"""In-memory spans around calls into the public functions of each `deodhar` module.

The wrappers are installed by the benchmark, never by the library: a traced
pass patches each function in every `deodhar` namespace that bound it with
`from ... import`, and methods on their class, then restores the originals.
A span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, owner, attribute).  The owner is a module path for functions,
# or "module:Class" for methods.
TARGETS = [
    ("linalg.matmul", "deodhar.linalg:RatMatrix", "__mul__"),
    ("linalg.inverse", "deodhar.linalg:RatMatrix", "inverse"),
    ("linalg.minor", "deodhar.linalg:RatMatrix", "minor"),
    ("linalg.det", "deodhar.linalg:RatMatrix", "det"),
    ("weyl.perm_new", "deodhar.weyl:Permutation", "__post_init__"),
    ("weyl.times_s", "deodhar.weyl:Permutation", "times_s"),
    ("weyl.prefix_set", "deodhar.weyl:Permutation", "prefix_set"),
    ("pinning.factor_matrix", "deodhar.pinning", "factor_matrix"),
    ("pinning.evaluate", "deodhar.pinning", "evaluate"),
    ("pinning.gmin", "deodhar.pinning", "gmin"),
    ("subexpr.enumerate_distinguished", "deodhar.subexpr", "enumerate_distinguished"),
    ("components.classify", "deodhar.components", "classify"),
    ("components.factorize", "deodhar.components", "factorize"),
    ("components.chamber_t", "deodhar.components", "chamber_t"),
    ("components.chamber_m", "deodhar.components", "chamber_m"),
    ("positivity.is_totally_nonnegative", "deodhar.positivity", "is_totally_nonnegative"),
    ("diagrams.build_arrangement", "deodhar.diagrams", "build_arrangement"),
    ("diagrams.render", "deodhar.diagrams", "render"),
]


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _observe_minor(tracer, result) -> None:
    tracer.gauge_max("linalg.max_bits", _bits(result))


def _observe_enumerate(tracer, result) -> None:
    tracer.counts["subexpr.traces"] += len(result)


def _observe_factorize(tracer, result) -> None:
    params = list(result.t_params.values()) + list(result.m_params.values())
    if params:
        tracer.gauge_max("components.param_max_bits", max(_bits(x) for x in params))


def _observe_tnn(tracer, result) -> None:
    tracer.counts["positivity.tnn_true"] += bool(result.nonnegative)


def _observe_render(tracer, result) -> None:
    tracer.counts["diagrams.render.bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "linalg.minor": _observe_minor,
    "subexpr.enumerate_distinguished": _observe_enumerate,
    "components.factorize": _observe_factorize,
    "positivity.is_totally_nonnegative": _observe_tnn,
    "diagrams.render": _observe_render,
}


class Tracer:
    """Call counts, self times, gauges and (optionally) raw spans of one pass."""

    def __init__(self, record_spans: bool):
        self.record_spans = record_spans
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.gauges: dict = {}
        self.spans: list = []
        self.op = 0
        self._stack: list = []
        self._next_id = 0

    def gauge_max(self, name: str, value: int) -> None:
        self.gauges[name] = max(self.gauges.get(name, 0), value)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            parent = self._stack[-1][3] if self._stack else 0
            frame = [name, time.perf_counter(), 0.0, self._next_id]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                total = end - frame[1]
                self.calls[name] += 1
                self.self_s[name] += total - frame[2]
                if self._stack:
                    self._stack[-1][2] += total
                if self.record_spans:
                    self.spans.append((frame[3], parent, self.op, name, frame[1], end))
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def install(self) -> list:
        """Patch every target; returns the (owner, attribute, original) to restore."""
        patched = []
        for name, owner, attr in TARGETS:
            module_name, _, cls_name = owner.partition(":")
            module = sys.modules[module_name]
            if cls_name:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(name, original))
                patched.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "deodhar" and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
        return patched

    @staticmethod
    def uninstall(patched: list) -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
