"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit on every workload, that the gates pass on real output, and that
each gate trips on a perturbed output.
"""

from __future__ import annotations

import copy
import json
import math
import signal
from time import perf_counter

import pytest

import run
from env import ROOT
from probe import PROBE_REF_S, SpeedProbe
from tracing import LAYER_METRICS
from workloads import K_SE, MC_FLOW_TOL, WORKLOADS, load_reference

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_emitted_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted(name, trace, monkeypatch):
    monkeypatch.setattr(run, "MIN_ITERATIONS", 1)
    out = run.measure(name, seed=3, seconds=0.0, trace=trace, size=WORKLOADS[name].tiny)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["failures"]
    assert result["failed"] == 0 and result["attempted"] >= WORKLOADS[name].n_checks
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], float | int), m["name"]
    json.dumps(result)


def test_missing_hook_reports_null(monkeypatch):
    import mscrn.ssa

    monkeypatch.delattr(mscrn.ssa, "_simulate")
    monkeypatch.setattr(run, "MIN_ITERATIONS", 1)
    out = run.measure("pdmp_mc_ab", seed=3, seconds=0.0, trace=True,
                      size=WORKLOADS["pdmp_mc_ab"].tiny)
    metrics = out["result"]["metrics"]
    assert out["result"]["correct"]
    assert metrics["ssa.events"]["value"] is None
    assert metrics["pdmp.busy_s"]["value"] > 0


def _shifted_final_mean(report):
    report.per_n_mean[-1] = report.per_n_mean[-1] + 0.2


def _failed(report):
    report.passed = False


def _non_monotone(report):
    report.trend = "non-monotone"


def _wrong_limit(report):
    report.reduced_mean = report.reduced_mean + 1e-3


VERIFY_PERTURBATIONS = {"verify.final_error": _shifted_final_mean,
                        "verify.passed": _failed,
                        "verify.trend": _non_monotone,
                        "verify.limit_exact": _wrong_limit}


def _shift(row, label_prefix, amount):
    def perturb(result):
        result.mean[row] = result.mean[row] + amount
    return label_prefix, perturb


def _beyond_gate(name, label, replicas):
    """A shift 20% past the widest K_SE band of a reference gate."""
    ref = load_reference()[name][label]
    se = max(math.sqrt(sd ** 2 / replicas + se ** 2) for sd, se in zip(ref["sd"], ref["se"]))
    return 1.2 * K_SE * se


def _perturbations(name, result):
    if name == "verify_ab":
        return VERIFY_PERTURBATIONS.items()
    if name == "pdmp_mc_ab":
        def shifted_path(traj):
            traj.states[:] = traj.states + 2 * MC_FLOW_TOL
        return [("A@", shifted_path)]
    labels = list(result.observables)
    if name == "ssa_ring32":
        return [_shift(o, f"{x}@", _beyond_gate(name, x, result.replicas))
                for o, x in enumerate(labels)]
    return [_shift(labels.index("G"), "G+Ga@", 0.01),
            _shift(labels.index("P"), "P@", _beyond_gate(name, "P", result.replicas))]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gates_trip_on_perturbed_output(name):
    wl = WORKLOADS[name]
    ctx = wl.setup(wl.tiny, run.iteration_seed(3, 0))
    result = wl.run(ctx)
    checks = wl.checks(ctx, result)
    assert len(checks) == wl.n_checks
    assert all(ok for _, ok in checks), checks
    tripped = set()
    for prefix, perturb in _perturbations(name, result):
        bad = copy.deepcopy(result)
        perturb(bad)
        failed = {label for label, ok in wl.checks(ctx, bad) if not ok}
        targeted = {label for label, _ in checks if label.startswith(prefix)}
        assert targeted and targeted <= failed, (prefix, failed)
        tripped |= failed
    assert tripped == {label for label, _ in checks}


def test_iteration_seeds_depend_on_seed_only():
    assert run.iteration_seed(0, 1) == run.iteration_seed(0, 1)
    assert len({run.iteration_seed(s, i) for s in range(3) for i in range(3)}) == 9


def test_speed_probe_samples_inside_section_and_rescales():
    def busy(seconds):
        start = perf_counter()
        while perf_counter() - start < seconds:
            pass
        return "done"

    probe = SpeedProbe()
    start = perf_counter()
    result, rescaled = probe.time(busy, 0.3)
    wall = perf_counter() - start
    assert result == "done"
    # one sample before, one after, and timer samples inside
    assert len(probe.samples) >= 4
    assert 0 < probe.wall[0] < 0.3 < wall
    assert rescaled == pytest.approx(probe.wall[0] * PROBE_REF_S
                                     / (sum(probe.samples) / len(probe.samples)))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) != probe._tick
