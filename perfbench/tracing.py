"""Spans around the calls into each layer, recorded from the benchmark.

The traced run swaps the module attributes the library's own callers
look up at call time for wrappers that record one span per call (name,
start, end, parent, attributes) in memory, and restores them
afterwards. Nothing under ``src/`` is edited. Rate functions are
wrapped per object: every ``AveragedRate.fn`` of a freshly built
reduced model (one span per averaged-rate evaluation) and every
``HybridSystem`` rate function built from it (a call counter). If a
later version of the library no longer has one of these names, the
layer metrics that depend on it are reported as null instead of
failing the run.

Spans are folded into per-layer totals at the end of every iteration,
so memory holds one iteration's spans at most.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name, whether the result is a Trajectory
# whose event and channel counts annotate the span)
MODULE_HOOKS = (
    ("mscrn.reduce", "classify", "classify.classify", False),
    ("mscrn.ssa", "_simulate", "ssa.replica", True),
    ("mscrn.ssa", "run_ensemble", "ensemble.ssa", False),
    ("mscrn.pdmp", "run_ensemble_pdmp", "ensemble.pdmp", False),
    ("mscrn.verify", "run_ensemble", "verify.ssa", False),
    ("mscrn.verify", "run_ensemble_pdmp", "verify.limit", False),
    ("mscrn.pdmp", "simulate_pdmp", "pdmp.run", True),
    ("mscrn.averaging", "simulate_pdmp", "averaging.mc_path", True),
)
RATE_FN = "AveragedRate.fn"
TO_HYBRID = "ReducedModel.to_hybrid"
SYSTEM_RATES = "HybridSystem rates"
ENSEMBLE_SPANS = ("ensemble.ssa", "ensemble.pdmp", "verify.ssa", "verify.limit")
# span names whose individual durations are kept for percentiles
_PERCENTILE_SPANS = ("ssa.replica", "averaging.eval", "pdmp.run")


# name, unit, better, hooks the value depends on
LAYER_METRICS = (
    ("parser.parse_s", "s", "lower", ()),
    ("classify.classify_s", "s", "lower", ("mscrn.reduce.classify",)),
    ("reduce.build_s", "s", "lower", ()),
    ("reduce.to_hybrid_s", "s", "lower", (TO_HYBRID,)),
    ("ssa.replicas", "count", "higher", ("mscrn.ssa._simulate",)),
    ("ssa.channels", "count", "higher", ("mscrn.ssa._simulate",)),
    ("ssa.events", "count", "higher", ("mscrn.ssa._simulate",)),
    ("ssa.busy_s", "s", "lower", ("mscrn.ssa._simulate",)),
    ("ssa.events_per_s", "1/s", "higher", ("mscrn.ssa._simulate",)),
    ("ssa.replica_ms.p50", "ms", "lower", ("mscrn.ssa._simulate",)),
    ("ssa.replica_ms.p90", "ms", "lower", ("mscrn.ssa._simulate",)),
    ("ensemble.self_s", "s", "lower",
     ("mscrn.ssa.run_ensemble", "mscrn.pdmp.run_ensemble_pdmp",
      "mscrn.verify.run_ensemble", "mscrn.verify.run_ensemble_pdmp")),
    ("averaging.evals", "count", "lower", (RATE_FN,)),
    ("averaging.busy_s", "s", "lower", (RATE_FN,)),
    ("averaging.self_s", "s", "lower", (RATE_FN, "mscrn.averaging.simulate_pdmp")),
    ("averaging.eval_ms.p50", "ms", "lower", (RATE_FN,)),
    ("averaging.eval_ms.p90", "ms", "lower", (RATE_FN,)),
    ("averaging.mc_jumps", "count", "lower", ("mscrn.averaging.simulate_pdmp",)),
    ("averaging.mc_jumps_per_s", "1/s", "higher", ("mscrn.averaging.simulate_pdmp",)),
    ("averaging.distinct_frac", "ratio", "lower", (RATE_FN,)),
    ("pdmp.runs", "count", "higher", ("mscrn.pdmp.simulate_pdmp",)),
    ("pdmp.rate_evals", "count", "lower", (SYSTEM_RATES, TO_HYBRID)),
    ("pdmp.jumps", "count", "higher", ("mscrn.pdmp.simulate_pdmp",)),
    ("pdmp.busy_s", "s", "lower", ("mscrn.pdmp.simulate_pdmp",)),
    ("pdmp.run_ms.p50", "ms", "lower", ("mscrn.pdmp.simulate_pdmp",)),
    ("pdmp.run_ms.p90", "ms", "lower", ("mscrn.pdmp.simulate_pdmp",)),
    ("verify.ssa_s", "s", "lower", ("mscrn.verify.run_ensemble",)),
    ("verify.limit_s", "s", "lower", ("mscrn.verify.run_ensemble_pdmp",)),
    ("verify.self_s", "s", "lower",
     ("mscrn.verify.run_ensemble", "mscrn.verify.run_ensemble_pdmp")),
    ("trace.overhead_frac", "ratio", "lower", ()),
)


def _traj_attrs(traj):
    counts = getattr(traj, "event_counts", None)
    if counts is None:
        return None
    return (int(np.sum(counts)), len(counts))


def _distinct_states(states) -> int:
    """Number of distinct states, rounded to 12 digits, among the raw
    float64 bytes of the averaged-rate arguments."""
    by_size = {}
    for raw in states:
        by_size.setdefault(len(raw), []).append(raw)
    total = 0
    for group in by_size.values():
        rows = np.frombuffer(b"".join(group), dtype=float).reshape(len(group), -1)
        total += len(np.unique(np.round(rows, 12), axis=0))
    return total


class _Layer:
    """Totals of one span name over the traced iterations."""

    __slots__ = ("count", "busy", "self_s", "events", "channels", "durations")

    def __init__(self):
        self.count = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.events = 0
        self.channels = 0
        self.durations = array("d")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self.layers: dict[str, _Layer] = {}
        self.rate_evals = 0
        self.missing: set[str] = set()
        self.iterations = 0
        self.distinct = 0
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span; ``attrs(result)`` annotates it."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if attrs is not None:
            span[4] = attrs(result)
        return result

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return traced

    def _wrap_eval(self, fn):
        # the span logic of ``call``, inlined: this runs once per rate
        # evaluation, which a PDMP ensemble makes hundreds of thousands of times
        spans, stack = self.spans, self._stack

        def traced(v):
            span = ["averaging.eval", 0.0, 0.0, stack[-1] if stack else -1,
                    np.asarray(v, dtype=float).tobytes()]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(v)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def _count(self, fn):
        def counted(v):
            self.rate_evals += 1
            return fn(v)
        return counted

    # -- object-level hooks --------------------------------------------------

    def instrument_reduced(self, reduced):
        """Wrap each averaged rate, and make ``to_hybrid`` return a
        system whose rate functions count their calls."""
        rates = getattr(reduced, "rates", None)
        if not isinstance(rates, dict) or not all(hasattr(r, "fn") for r in rates.values()):
            self.missing.add(RATE_FN)
        else:
            for rate in rates.values():
                rate.fn = self._wrap_eval(rate.fn)
        original = getattr(type(reduced), "to_hybrid", None)
        if original is None:
            self.missing.add(TO_HYBRID)
            return

        def to_hybrid():
            system = self.call("reduce.to_hybrid", original, reduced)
            self._instrument_system(system)
            return system

        reduced.to_hybrid = to_hybrid

    def _instrument_system(self, system):
        try:
            system.jumps = tuple((self._count(fn), vec) for fn, vec in system.jumps)
            system.flows = tuple((self._count(fn), vec) for fn, vec in system.flows)
        except (AttributeError, TypeError, ValueError):
            self.missing.add(SYSTEM_RATES)

    # -- module-level hooks ----------------------------------------------------

    def install(self):
        for module_name, attr, name, is_traj in MODULE_HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, _traj_attrs if is_traj else None))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- folding -------------------------------------------------------------

    def end_iteration(self):
        """Fold this iteration's spans into the per-layer totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        states = []
        for j, (name, start, end, parent, attrs) in enumerate(spans):
            layer = self.layers.get(name)
            if layer is None:
                layer = self.layers[name] = _Layer()
            dur = end - start
            layer.count += 1
            layer.busy += dur
            layer.self_s += dur - child[j]
            if name in _PERCENTILE_SPANS:
                layer.durations.append(dur)
            if name == "averaging.eval":
                states.append(attrs)
            elif attrs is not None:
                layer.events += attrs[0]
                layer.channels = max(layer.channels, attrs[1])
        self.distinct += _distinct_states(states)
        spans.clear()
        self.iterations += 1

    # -- metrics ---------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict:
        """Per-layer metrics as means per traced iteration; percentiles
        over every call in the traced iterations."""
        n = max(self.iterations, 1)
        empty = _Layer()

        def layer(name):
            return self.layers.get(name, empty)

        def pct(name, q):
            d = layer(name).durations
            return float(np.percentile(d, q)) * 1e3 if len(d) else 0.0

        def ratio(a, b):
            return a / b if b > 0 else 0.0

        ssa_l, avg, mc, run = (layer("ssa.replica"), layer("averaging.eval"),
                               layer("averaging.mc_path"), layer("pdmp.run"))
        values = {
            "parser.parse_s": layer("parser.parse").busy / n,
            "classify.classify_s": layer("classify.classify").busy / n,
            "reduce.build_s": layer("reduce.build").busy / n,
            "reduce.to_hybrid_s": layer("reduce.to_hybrid").busy / n,
            "ssa.replicas": ssa_l.count / n,
            "ssa.channels": ssa_l.channels,
            "ssa.events": ssa_l.events / n,
            "ssa.busy_s": ssa_l.busy / n,
            "ssa.events_per_s": ratio(ssa_l.events, ssa_l.busy),
            "ssa.replica_ms.p50": pct("ssa.replica", 50),
            "ssa.replica_ms.p90": pct("ssa.replica", 90),
            "ensemble.self_s": sum(layer(s).self_s for s in ENSEMBLE_SPANS) / n,
            "averaging.evals": avg.count / n,
            "averaging.busy_s": avg.busy / n,
            "averaging.self_s": avg.self_s / n,
            "averaging.eval_ms.p50": pct("averaging.eval", 50),
            "averaging.eval_ms.p90": pct("averaging.eval", 90),
            "averaging.mc_jumps": mc.events / n,
            "averaging.mc_jumps_per_s": ratio(mc.events, mc.busy),
            "averaging.distinct_frac": ratio(self.distinct, avg.count),
            "pdmp.runs": run.count / n,
            "pdmp.rate_evals": self.rate_evals / n,
            "pdmp.jumps": run.events / n,
            "pdmp.busy_s": run.busy / n,
            "pdmp.run_ms.p50": pct("pdmp.run", 50),
            "pdmp.run_ms.p90": pct("pdmp.run", 90),
            "verify.ssa_s": layer("verify.ssa").busy / n,
            "verify.limit_s": layer("verify.limit").busy / n,
            "verify.self_s": layer("verify").self_s / n,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for name, unit, _, hooks in LAYER_METRICS:
            value = None if self.missing.intersection(hooks) else values[name]
            out[name] = {"value": value, "unit": unit}
        return out
