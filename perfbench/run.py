"""Benchmark entry point.

    python3 perfbench/run.py --workload verify_ab --seed 0 --seconds 30 --trace 0

Runs one workload in-process for about ``--seconds`` seconds and prints,
as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it records
the machine (CPU model, CPUs, Python and numpy versions, thread pins)
and the seed.

A run repeats iterations of set-up then main call until the time is
spent (and at least ``MIN_ITERATIONS`` ran). Iteration ``i`` simulates
with a seed derived from ``(seed, i)``, so a run's inputs depend on the
seed alone. With ``--trace 0`` it reports the end-to-end metrics:
``run_s`` and ``setup_s`` as medians over iterations, each time
rescaled to a reference machine speed by ``probe.SpeedProbe`` (the raw
wall times go to the info line), and the peak RSS. With ``--trace 1`` it spends the first half of the time untraced and
the second half traced, replaying the same iteration seeds, and
reports the per-layer metrics plus the tracing overhead. Every
iteration grades its output; the checks made and failed are reported
as ``attempted`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

import env

env.bootstrap()

import numpy as np  # noqa: E402

from probe import SpeedProbe, WallClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITERATIONS = 3
# setup_s: before every iteration, SETUP_BATCH set-ups are timed together
# (one set-up of the AB or gene model takes well under a millisecond,
# too short to time alone); setup_s is the median of the per-set-up
# means. Spreading the batches over the run lets them see the same mix
# of machine load as run_s. The first batch holds the process's first
# call into the library after imports.
SETUP_BATCH = 10

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def iteration_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Tally:
    """Correctness checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, checks, n_expected):
        """``checks`` is empty when the iteration raised; every check it
        never reached counts as failed."""
        self.attempted += n_expected
        self.failed += n_expected - sum(ok for _, ok in checks)
        self.failures += ([label for label, ok in checks if not ok] if checks
                          else ["<not reached>"])


def run_iteration(wl, size, seed, i, tally, clock, tracer=None):
    """One set-up plus main call; returns the main call's time by ``clock``."""
    s = iteration_seed(seed, i)
    args = () if tracer is None else (tracer,)
    checks = []
    try:
        ctx = wl.setup(size, s, *args)
        result, elapsed = clock.time(wl.run, ctx, *args)
        checks = wl.checks(ctx, result)
    except Exception:  # noqa: BLE001 - a failing iteration is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        elapsed = None
    tally.add(checks, wl.n_checks)
    return elapsed


def _setup_batch(wl, size, seed):
    for _ in range(SETUP_BATCH):
        wl.setup(size, seed)


def setup_time(wl, size, seed, clock) -> float:
    """Mean time of one set-up over a batch of SETUP_BATCH."""
    return clock.time(_setup_batch, wl, size, seed)[1] / SETUP_BATCH


def _loop(wl, size, seed, seconds, tally, clock, tracer=None, setup_clock=None,
          setup_times=None):
    times = []
    start = perf_counter()
    i = 0
    while i < MIN_ITERATIONS or perf_counter() - start < seconds:
        if setup_clock is not None:
            setup_times.append(setup_time(wl, size, seed, setup_clock))
        elapsed = run_iteration(wl, size, seed, i, tally, clock, tracer)
        if tracer is not None:
            tracer.end_iteration()
        if elapsed is None:
            break
        times.append(elapsed)
        i += 1
    return times


def measure(workload: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    wl = WORKLOADS[workload]
    size = size or wl.full
    tally = Tally()
    if not trace:
        setup_times = []
        probe = SpeedProbe()
        run_times = _loop(wl, size, seed, seconds, tally, probe, setup_clock=SpeedProbe(),
                          setup_times=setup_times)
        metrics = {
            "run_s": statistics.median(run_times) if run_times else None,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        samples = {"run_s": [round(t, 4) for t in run_times],
                   "setup_s": [round(t, 7) for t in setup_times],
                   "run_wall_s": [round(t, 4) for t in probe.wall],
                   "probe_ms": {"median": round(1e3 * statistics.median(probe.samples), 4),
                                "min": round(1e3 * min(probe.samples), 4),
                                "max": round(1e3 * max(probe.samples), 4)}}
    else:
        clock = WallClock()
        plain = _loop(wl, size, seed, seconds / 2, tally, clock)
        with Tracer() as tracer:
            traced = _loop(wl, size, seed, seconds / 2, tally, clock, tracer)
        overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                    if plain and traced else None)
        metrics = tracer.metrics(overhead)
        samples = {"untraced_run_s": [round(t, 4) for t in plain],
                   "traced_run_s": [round(t, 4) for t in traced]}

    return {
        "result": {
            "correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
        "failures": tally.failures,
        "samples": samples,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "samples": out["samples"],
            "failures": out["failures"], "machine": env.machine_info()}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
