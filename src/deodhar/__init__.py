"""Exact-arithmetic Deodhar decomposition for the flag variety of SL_d.

Classify a flag into its Deodhar component, recover the factorization
parameters by the generalized chamber ansatz, test and sample total
positivity, compute R-polynomials, and draw the chamber arrangements.

Importing the package runs none of its modules.  Each library module is
registered in ``sys.modules`` and bound here as an attribute; it runs once,
under a lock, on first use, and then binds its exported names here.
"""

import _thread
import importlib.util
import sys
import types

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

_lock = _thread.RLock()


class _LazyModule(types.ModuleType):
    """A library module whose body runs on the first read of any attribute.

    Any, so that ``vars()``, ``__doc__`` and doctest see the run module.  Each
    read until the body has run holds one reentrant lock, so a second thread
    waits for a running body rather than read it half run.  The spec is
    marked initializing meanwhile, as by the import system, so a read from
    the body itself does not rerun it.  Then the module turns plain, read
    with no lock, and its exported names are bound here at once: a copy taken
    later could be a caller's patch, kept after the patch is undone
    (bench/tracing.py patches a module first).
    """

    def __getattribute__(self, attr: str):
        with _lock:
            spec = types.ModuleType.__getattribute__(self, "__spec__")
            if type(self) is _LazyModule and not getattr(spec, "_initializing", False):
                spec._initializing = True
                try:
                    spec.loader.exec_module(self)
                finally:
                    spec._initializing = False
                self.__class__ = types.ModuleType
                for name in _EXPORTS[spec.name.rpartition(".")[2]]:
                    globals()[name] = getattr(self, name)
        return types.ModuleType.__getattribute__(self, attr)


# Each library module, bound here and in sys.modules, to run on first use.
for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _module = importlib.util.module_from_spec(_spec)
    _module.__class__ = _LazyModule
    globals()[_name] = sys.modules[_spec.name] = _module
del _name, _spec, _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Any attribute read runs the module, which binds its names here.
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
