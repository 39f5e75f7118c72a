"""Exact-arithmetic Deodhar decomposition for the flag variety of SL_d.

Classify a flag into its Deodhar component, recover the factorization
parameters by the generalized chamber ansatz, test and sample total
positivity, compute R-polynomials, and draw the chamber arrangements.

Importing the package runs none of its modules.  Each library module is
registered in ``sys.modules`` and bound here as an attribute; it runs on
first attribute access, and then binds its exported names here.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "components": (
        "ComponentConditions",
        "ComponentDescriptor",
        "FactorizationResult",
        "build_element",
        "chamber_coordinates",
        "classify",
        "classify_steps",
        "component_conditions",
        "element_from_coordinates",
        "factorize",
        "minor_polynomial",
    ),
    "diagrams": (
        "ANSATZ",
        "CLASSICAL",
        "LOWER",
        "UPPER",
        "Arrangement",
        "ansatz_minor_labels",
        "build_arrangement",
        "classical_arrangement",
        "classify_graphical",
        "diagram_formulas",
        "render",
    ),
    "errors": (
        "DeodharError",
        "DomainError",
        "InputError",
        "InternalCheckError",
        "NotInComponentError",
    ),
    "linalg": (
        "RatMatrix",
        "bruhat_position",
        "flag_equal",
        "matrix_from_json",
        "matrix_to_json",
        "opposite_position",
        "unipotent_representative",
    ),
    "pinning": (
        "GroupFactor",
        "GroupWord",
        "evaluate",
        "gen_acheck",
        "gen_sdot",
        "gen_sdot_inv",
        "gen_x",
        "gen_y",
        "gmin",
        "group_word_from_json",
        "group_word_to_json",
        "partial",
        "perm_matrix",
        "reduce_flag",
    ),
    "positivity": (
        "PositiveSample",
        "TnnCertificate",
        "braid_move_y",
        "is_totally_nonnegative",
        "random_positive_sample",
        "sample_positive",
    ),
    "subexpr": (
        "RPolynomial",
        "SubexpressionTrace",
        "enumerate_distinguished",
        "is_distinguished",
        "positive_subexpression",
        "r_polynomial",
        "trace_from_json",
        "trace_to_json",
    ),
    "weyl": (
        "Permutation",
        "a_reduced_word",
        "act",
        "bruhat_leq",
        "evaluate_word",
        "fundamental_weight",
        "identity_perm",
        "is_reduced",
        "longest_element",
        "pair",
        "reduced_words",
        "simple_reflection",
    ),
}

# Exported name -> the module that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


class _Publish:
    """Runs one library module, then binds its exported names in this package.

    That is when an eager ``from .module import ...`` would bind them.  A
    copy taken on this package's first read could instead be a caller's
    patch, kept after the patch is undone: bench/tracing.py patches a
    module's function first and this package, which sys.modules lists
    after its modules, last.
    """

    def __init__(self, loader, names: tuple[str, ...]):
        self.loader = loader
        self.names = names

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module) -> None:
        # The module keeps its file loader, as an eagerly imported one would.
        module.__spec__.loader = module.__loader__ = self.loader
        self.loader.exec_module(module)
        for name in self.names:
            globals()[name] = getattr(module, name)


def _register(name: str):
    """Put a module in sys.modules that runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(_Publish(spec.loader, _EXPORTS[name]))
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Any attribute read runs the module, which binds its names here.
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
