"""Per-layer tracing of ``detcalc`` from outside the package.

A :class:`Tracer` wraps the public functions and methods of each module of
the package (the layers) and records a span for every call: name, start,
end, parent span and operation id.  The Chow-ring methods in ``LEAVES`` run
up to a million times per operation and make no traced call of their own;
each of them is recorded as one aggregate per parent span and method (call
count, total time, term pairs) instead of one span per call.  A call made
inside a leaf is not traced: its time stays in the leaf.

Layer self time is computed from the spans afterwards: a span's duration
minus the durations of its child spans and leaf aggregates.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from time import perf_counter

LAYERS = ("partitions", "chow", "schur", "bundles", "invariants", "verify", "cli")

# Operator methods are part of the public protocol; `__radd__` and `__rmul__`
# are aliases of `__add__` and `__mul__` and are wrapped on their own.
OPERATORS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
             "__neg__", "__pow__")

LEAVES = {
    "chow.ChowClass.__mul__", "chow.ChowClass.__rmul__", "chow.ChowClass.__add__",
    "chow.ChowClass.__radd__", "chow.ChowClass.__neg__", "chow.ChowClass.part",
    "chow.ChowClass.is_zero", "chow.ChowClass.is_homogeneous",
    "chow.ChowClass.constant", "chow.AmbientSpace.zero", "chow.AmbientSpace.one",
    "chow.AmbientSpace.scalar", "chow.AmbientSpace.generator",
    "chow.AmbientSpace.integrate", "chow.AmbientSpace.pullback",
    "chow.AmbientSpace.pushforward", "chow.AmbientSpace.monomial_basis",
}

MUL = "chow.ChowClass.__mul__"
SCALAR_MUL = "chow.ChowClass.__mul__.scalar"  # class times a number
SPACE_BUILDERS = (
    "chow.projective_space", "chow.product_of_projective_spaces", "chow.proj_bundle",
)
INVARIANT_TIMES = ("ih_milnor_number", "euler_resolution", "euler_smooth_hypersurface",
                   "intersection_numbers", "c2_numbers")
PER_REPORT = ("ih_milnor_number", "euler_smooth_hypersurface", "porteous_degree")
REPORT = "invariants.build_report"


class Tracer:
    """Span recorder for one traced pass; install, run, uninstall, then read."""

    def __init__(self, package, modules: dict[str, object]):
        self.package = package
        self.modules = modules  # layer name -> module
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent span, op id)
        self.leaves: dict[tuple[int, int], list] = {}  # (parent, name id) -> [n, s, pairs]
        self.zero_schur: dict[int, int] = {}  # op id -> zero results of schur()
        self.ops: list[str] = []
        self.stack = [-1]
        self.in_leaf = [False]
        self.undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    # -- wrappers -------------------------------------------------------------

    def span_wrapper(self, name: str, fn):
        nid = self.name_id(name)
        spans, stack, in_leaf, ops = self.spans, self.stack, self.in_leaf, self.ops
        zero_schur = self.zero_schur if name == "schur.schur" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if in_leaf[0]:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (nid, start, end, parent, len(ops) - 1)
            if zero_schur is not None and not result.terms:
                op = len(ops) - 1
                zero_schur[op] = zero_schur.get(op, 0) + 1
            return result

        return traced

    def leaf_wrapper(self, name: str, fn):
        nid = self.name_id(name)
        scalar_nid = self.name_id(SCALAR_MUL) if name == MUL else None
        leaves, stack, in_leaf = self.leaves, self.stack, self.in_leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if in_leaf[0]:
                return fn(*args, **kwargs)
            key_nid, pairs = nid, 0
            if scalar_nid is not None:
                left, right = args
                if type(right) is type(left):
                    pairs = len(left.terms) * len(right.terms)
                else:
                    key_nid = scalar_nid
            in_leaf[0] = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                in_leaf[0] = False
                key = (stack[-1], key_nid)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, elapsed, pairs]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += pairs

        return traced

    def wrap(self, name: str, fn):
        if name in LEAVES:
            return self.leaf_wrapper(name, fn)
        return self.span_wrapper(name, fn)

    # -- install / uninstall ----------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of every layer module.

        A function is wrapped once, in the module that defines it; every
        module that imported it by name (``from .x import y``), the package
        namespace included, is then pointed at the same wrapper.
        """
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                    wrapped[id(value)] = self.wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    self.install_class(layer, value)
        for module in [self.package, *self.modules.values()]:
            for attr, value in list(vars(module).items()):
                if not attr.startswith("_") and id(value) in wrapped:
                    self.patch(module, attr, wrapped[id(value)])

    def install_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, functools.cached_property):
                prop = functools.cached_property(self.wrap(name, value.func))
                prop.__set_name__(cls, attr)
                self.patch(cls, attr, prop)
            elif isinstance(value, classmethod):
                self.patch(cls, attr, classmethod(self.wrap(name, value.__func__)))
            elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                self.patch(cls, attr, self.wrap(name, value))

    def uninstall(self) -> None:
        while self.undo:
            owner, attr, value = self.undo.pop()
            setattr(owner, attr, value)

    # -- operations ------------------------------------------------------------

    def op(self, label: str, run):
        """Run one operation under a root span named ``bench.op``."""
        self.ops.append(label)
        return self.span_wrapper("bench.op", run)()

    # -- metrics -----------------------------------------------------------------

    def layer_of(self, nid: int) -> str:
        return self.names[nid].split(".", 1)[0]

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (parent, nid), (count, total, pairs) in self.leaves.items():
            if parent >= 0:
                child[parent] += total
        out: dict[str, float] = {}
        for sid, (nid, start, end, parent, op) in enumerate(self.spans):
            layer = self.layer_of(nid)
            out[layer] = out.get(layer, 0.0) + (end - start) - child[sid]
        for (parent, nid), (count, total, pairs) in self.leaves.items():
            layer = self.layer_of(nid)
            out[layer] = out.get(layer, 0.0) + total
        return out

    def outermost(self, names) -> list[int]:
        """Ids of spans named in ``names`` with no ancestor named in ``names``."""
        ids = {self.ids[n] for n in names if n in self.ids}
        out = []
        for sid, span in enumerate(self.spans):
            if span[0] not in ids:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in ids:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(sid)
        return out

    def inclusive(self, *names: str) -> float:
        return sum(self.spans[s][2] - self.spans[s][1] for s in self.outermost(names))

    def calls(self, name: str, op: int | None = None) -> int:
        """Calls of ``name`` (in one operation when ``op`` is given)."""
        nid = self.ids.get(name)
        if name in LEAVES or name == SCALAR_MUL:
            return sum(agg[0] for (parent, n), agg in self.leaves.items()
                       if n == nid and (op is None or self.op_of(parent) == op))
        return sum(1 for span in self.spans
                   if span[0] == nid and (op is None or span[4] == op))

    def term_pairs(self, op: int | None = None) -> int:
        nid = self.ids.get(MUL)
        return sum(agg[2] for (parent, n), agg in self.leaves.items()
                   if n == nid and (op is None or self.op_of(parent) == op))

    def op_of(self, sid: int) -> int:
        return self.spans[sid][4] if sid >= 0 else -1

    def calls_per_report(self, name: str) -> float:
        reports = self.calls(REPORT)
        if not reports:
            return 0.0
        report_ids = set(self.outermost([REPORT]))
        nid = self.ids.get(name)
        count = 0
        for span in self.spans:
            if span[0] != nid:
                continue
            parent = span[3]
            while parent >= 0 and parent not in report_ids:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count / reports

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, keyed as in BENCHMARK.json."""
        own = self.self_times()
        schur_calls = self.calls("schur.schur")
        mul_calls = self.calls(MUL)
        pairs = self.term_pairs()
        out = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
        out.update({
            "schur.calls": schur_calls,
            "schur.zero_ratio": sum(self.zero_schur.values()) / schur_calls if schur_calls else 0.0,
            "chow.mul.calls": mul_calls,
            "chow.mul.term_pairs": pairs,
            "chow.mul.pairs_per_call": pairs / mul_calls if mul_calls else 0.0,
            "chow.inverse.calls": self.calls("chow.ChowClass.inverse"),
            "chow.space_build_s": self.inclusive(*SPACE_BUILDERS),
            "chow.proj_bundle.calls": self.calls("chow.proj_bundle"),
            "bundles.schur_seq_s": self.inclusive("bundles.VirtualPair.schur_seq"),
            "partitions.supersets_of.calls": self.calls("partitions.supersets_of"),
            "partitions.syt_count.calls": self.calls("partitions.syt_count"),
            "cli.parse_config_s": self.inclusive("cli.parse_config"),
            "cli.render_s": self.inclusive("cli.render_report", "cli.report_to_dict"),
            "verify.run_all_s": self.inclusive("verify.run_all"),
        })
        for fn in INVARIANT_TIMES:
            out[f"invariants.{fn}_s"] = self.inclusive(f"invariants.{fn}")
        for fn in PER_REPORT:
            out[f"invariants.{fn}.calls_per_report"] = self.calls_per_report(f"invariants.{fn}")
        return out

    def op_counts(self, label: str) -> dict[str, int]:
        op = self.ops.index(label)
        return {
            "chow.mul.calls": self.calls(MUL, op),
            "chow.mul.term_pairs": self.term_pairs(op),
            "schur.calls": self.calls("schur.schur", op),
        }

    def export(self) -> dict:
        """Spans as [name id, start, end, parent, op] with times in seconds
        from the first span; leaves as [parent, name id, calls, seconds, pairs]."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "names": self.names,
            "ops": self.ops,
            "spans": [[nid, round(start - origin, 7), round(end - origin, 7), parent, op]
                      for nid, start, end, parent, op in self.spans],
            "leaves": [[parent, nid, *agg] for (parent, nid), agg in self.leaves.items()],
        }


def write_trace(path: str, header: dict, tracers: list[Tracer]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**header, "passes": [t.export() for t in tracers]}, handle)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Times as medians over passes; counts from the first pass (they repeat)."""
    out = {}
    for key in per_pass[0]:
        if key.endswith("_s"):
            out[key] = statistics.median(m[key] for m in per_pass)
        else:
            out[key] = per_pass[0][key]
    return out
