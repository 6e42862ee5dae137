"""Layer trace for the benchmark: wrappers around osp22's public functions.

A ``Tracer`` keeps one span per wrapped call (name, start, end, parent span,
pass id) in typed arrays, and aggregates calls, inclusive time and self time
per span name while the run goes on.  Self time is a span's duration minus
the part covered by its child spans.  ``installed(tracer)`` puts the wrappers
in place and always restores the original attributes on exit, so only the
traced passes of a run see them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (layer, span name, owner, attribute): owner is a module path, or
# "module:Class" for a method.  Span names are "<layer>.<name>".
TARGETS = (
    ("grassmann", "mul", "osp22.grassmann:GrassmannElement", "__mul__"),
    ("grassmann", "add", "osp22.grassmann:GrassmannElement", "__add__"),
    ("grassmann", "radd", "osp22.grassmann:GrassmannElement", "__radd__"),
    ("grassmann", "sub", "osp22.grassmann:GrassmannElement", "__sub__"),
    ("grassmann", "rsub", "osp22.grassmann:GrassmannElement", "__rsub__"),
    ("grassmann", "neg", "osp22.grassmann:GrassmannElement", "__neg__"),
    ("grassmann", "rmul", "osp22.grassmann:GrassmannElement", "__rmul__"),
    ("grassmann", "truediv", "osp22.grassmann:GrassmannElement", "__truediv__"),
    ("grassmann", "conj", "osp22.grassmann:GrassmannElement", "conj"),
    ("grassmann", "berezin", "osp22.grassmann:GrassmannElement", "berezin"),
    ("grassmann", "power", "osp22.grassmann:GrassmannElement", "power"),
    ("basis", "eval_chi", "osp22.basis", "eval_chi"),
    ("basis", "chi_matrix", "osp22.basis", "chi_matrix"),
    ("basis", "quad_inner", "osp22.basis", "quad_inner"),
    ("basis", "gram_matrix", "osp22.basis", "gram_matrix"),
    ("basis", "schrodinger_residual", "osp22.basis", "schrodinger_residual"),
    ("superspace", "super_inner", "osp22.superspace:SuperVector", "super_inner"),
    ("superspace", "super_inner_integral", "osp22.superspace", "super_inner_integral"),
    ("superspace", "superadjoint_defect", "osp22.superspace", "superadjoint_defect"),
    ("superspace", "random_supervector", "osp22.superspace", "random_supervector"),
    ("representation", "matmul", "osp22.representation:SuperOperator", "__matmul__"),
    ("representation", "add", "osp22.representation:SuperOperator", "__add__"),
    ("representation", "rmul", "osp22.representation:SuperOperator", "__rmul__"),
    ("representation", "apply", "osp22.representation:SuperOperator", "apply"),
    ("representation", "superadjoint", "osp22.representation:SuperOperator", "superadjoint"),
    ("representation", "operator_exp", "osp22.representation", "operator_exp"),
    ("representation", "build_generator", "osp22.representation", "build_generator"),
    ("coherent", "series_state", "osp22.coherent", "series_state"),
    ("coherent", "crosscheck", "osp22.coherent", "crosscheck"),
    ("coherent", "berezin_symbol", "osp22.coherent", "berezin_symbol"),
    ("coherent", "displacement_operator", "osp22.coherent", "displacement_operator"),
    ("coherent", "trajectory", "osp22.coherent", "trajectory"),
)

LAYERS = ("grassmann", "basis", "superspace", "representation", "coherent", "suites")


def _matmul_counts(tracer, args, kwargs):
    a, c = args[0], args[1]
    blocks_c = getattr(c, "blocks", None)
    if blocks_c is None:
        return
    products = sum(1 for am in a.blocks for cm in blocks_c if not am & cm)
    tracer.counters["representation.matmul.block_products"] += products
    tracer.counters["representation.matmul.gflop"] += products * 8.0 * a.size**3 / 1e9


def _series_counts(tracer, args, kwargs):
    n = int(args[1] if len(args) > 1 else kwargs["n_max"])
    tracer.counters["coherent.series_state.slots_sum"] += n
    tracer.counters["coherent.series_state.slots_max"] = max(
        tracer.counters["coherent.series_state.slots_max"], n
    )


def _chi_counts(tracer, args, kwargs):
    modes = args[0] if args else kwargs["modes"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.counters["basis.chi_matrix.values"] += len(modes) * np.size(x)


COUNTERS = {
    "representation.matmul": _matmul_counts,
    "coherent.series_state": _series_counts,
    "basis.chi_matrix": _chi_counts,
}
COUNTER_NAMES = (
    "representation.matmul.block_products",
    "representation.matmul.gflop",
    "coherent.series_state.slots_sum",
    "coherent.series_state.slots_max",
    "basis.chi_matrix.values",
)


class Tracer:
    """Spans and per-name aggregates of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_pass = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.pass_id = 0
        self._stack: list[list] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span named by ``nid``."""
        stack = self._stack
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_pass.append(self.pass_id)
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        self.span_start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.span_end[sid] = t1
            dur = t1 - t0
            self.calls[nid] += 1
            self.total_s[nid] += dur
            self.self_s[nid] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def wrap(self, name: str, fn, count=None):
        nid = self.name_id(name)
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, args, kwargs)
            return call(nid, fn, args, kwargs)

        return traced

    def wrap_suite_checks(self, fn):
        @functools.wraps(fn)
        def traced(name, *args, **kwargs):
            nid = self.name_id(f"suites.{name}")
            return self.call(nid, fn, (name,) + args, kwargs)

        return traced

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) summed over the run."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix))

    def save(self, path, workload: str) -> None:
        np.savez_compressed(
            path,
            workload=np.array(workload),
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            pass_id=np.frombuffer(self.span_pass, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, cls_name) if cls_name else module


def _osp22_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "osp22" or n.startswith("osp22.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install span wrappers on every target; restore the originals on exit.

    A module function is replaced in every loaded osp22 module that binds the
    same object, so ``from .x import f`` copies are traced as well.
    """
    saved = []
    try:
        targets = [(f"{layer}.{name}", owner, attr) for layer, name, owner, attr in TARGETS]
        targets.append(("suites", "osp22.suites", "suite_checks"))
        for span, owner, attr in targets:
            obj = _resolve(owner)
            if ":" in owner:
                original = obj.__dict__[attr]
                holders = [obj]
            else:
                original = getattr(obj, attr)
                holders = [m for m in _osp22_modules() if m.__dict__.get(attr) is original]
            if span == "suites":
                wrapper = tracer.wrap_suite_checks(original)
            else:
                wrapper = tracer.wrap(span, original, COUNTERS.get(span))
            for holder in holders:
                saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)
