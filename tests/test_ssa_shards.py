"""Per-replica ensembles over forked shards against the one-process loop.

The per-replica loop of ``run_ensemble`` cuts the replicas into one
contiguous range per usable CPU, runs the first range in the calling
process and every other range in a forked child. Replica r reads the
stream of ``SeedSequence([seed, r])`` wherever it runs, so the
statistics must be the same bytes at any CPU count, and a failing
ensemble must raise the error of its lowest failing replica, as the
replicas run one after another do. No call may leave a child behind.
"""

import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mscrn import rng as rng_mod
from mscrn import ssa
from mscrn.errors import EventCapExceeded, MscrnError
from mscrn.model import State
from mscrn.parser import parse_document

sys.path.insert(0, str(Path(__file__).parent))
import conftest as fx  # noqa: E402

GRID = (0.25, 0.5, 1.0)

# a production law no mass-action closure has, and an expression decay
EXPR_TEXT = """\
species A alpha=0
species B alpha=0
reaction 0 -> A @ expr 6/(1+B) beta=0
reaction A -> B @ mass-action kappa=1 beta=0
reaction B -> 0 @ expr 0.5*B beta=0
init A 2
"""
# 112 channels, so every replica takes the blocked pass
MODELS = {"ring16": (fx.ring_text(16), 10.0), "expr": (EXPR_TEXT, 1.0)}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(text, N, replicas, cpus, monkeypatch, seed=3, max_events=50_000_000):
    """``run_ensemble`` on the per-replica loop with ``cpus`` usable CPUs:
    its statistics as bytes, or its exception as (type, message), and
    the number of forks it made."""
    doc = parse_document(text)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with monkeypatch.context() as patch:
        patch.setattr(ssa, "usable_cpus", lambda: cpus)
        patch.setattr(ssa, "LOCKSTEP_REPLICAS", replicas + 1)
        patch.setattr(os, "fork", counted_fork)
        config = ssa.SimulationConfig(N=N, t_end=1.0, seed=seed, record=np.array(GRID),
                                      max_events=max_events)
        try:
            stats = ssa.run_ensemble(doc.model, doc.scaling, config, replicas, ["A", "B"],
                                     x0=State(doc.initial_scaled(), scaled=True))
            out = [stats.mean.tobytes(), stats.variance.tobytes()] + [
                stats.quantiles[q].tobytes() for q in sorted(stats.quantiles)]
        except MscrnError as exc:
            out = (type(exc), str(exc))
    _no_child_left()
    return out, len(forks)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("replicas", [1, 2, 5])
def test_statistics_are_the_same_bytes_at_any_cpu_count(name, replicas, monkeypatch):
    text, N = MODELS[name]
    want, forks = _run(text, N, replicas, 1, monkeypatch)
    assert forks == 0
    for cpus in (2, 3):
        got, forks = _run(text, N, replicas, cpus, monkeypatch)
        assert forks == min(replicas, cpus) - 1
        assert got == want


def _events(text, N, replicas, seed):
    doc = parse_document(text)
    config = ssa.SimulationConfig(N=N, t_end=1.0, seed=seed, record=np.array(GRID))
    x0 = State(doc.initial_scaled(), scaled=True)
    return [int(ssa._simulate(doc.model, doc.scaling, config, x0,
                              rng=rng_mod.stream(seed, r)).event_counts.sum())
            for r in range(replicas)]


@pytest.mark.parametrize("cap, failing", [(811, [3, 5]), (802, [2, 3, 5])])
def test_a_failing_ensemble_raises_the_lowest_failing_replicas_error(cap, failing,
                                                                     monkeypatch):
    # six ring replicas at seed 4 make 661, 801, 810, 881, 797 and 825
    # events. Under cap 811 replicas 3 and 5 fail: on 2 CPUs both sit in
    # the child's range 3..5, on 3 CPUs in the two children's ranges 2..3
    # and 4..5. Under cap 802 replica 2 fails too: in the calling
    # process's range 0..2 on 2 CPUs, in the first child's range on 3.
    text, N = MODELS["ring16"]
    events = _events(text, N, 6, seed=4)
    assert [r for r, n in enumerate(events) if n >= cap] == failing
    want, _ = _run(text, N, 6, 1, monkeypatch, seed=4, max_events=cap)
    assert want[0] is EventCapExceeded
    for cpus in (2, 3):
        got, forks = _run(text, N, 6, cpus, monkeypatch, seed=4, max_events=cap)
        assert forks == cpus - 1
        assert got == want


def test_a_child_that_dies_raises_mscrn_error_naming_its_replicas(monkeypatch):
    monkeypatch.setattr(ssa, "usable_cpus", lambda: 2)
    out = np.zeros((4, 3))

    def fill(lo, hi):
        if lo:   # the child, killed as from outside
            os.kill(os.getpid(), signal.SIGKILL)
        out[lo:hi] = 1.0

    with pytest.raises(MscrnError, match=r"replicas 2\.\.3: .* \(signal 9\)"):
        ssa._in_shards(out, fill)
    _no_child_left()


def test_an_error_that_does_not_unpickle_arrives_as_mscrn_error(monkeypatch):
    class Odd(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a}/{b}")

    def fill(lo, hi):
        if lo:
            raise Odd(1, 2)

    monkeypatch.setattr(ssa, "usable_cpus", lambda: 2)
    with pytest.raises(MscrnError, match="^Odd: 1/2$"):
        ssa._in_shards(np.zeros((2, 1)), fill)
    _no_child_left()


def test_keyboard_interrupt_kills_the_children(monkeypatch):
    monkeypatch.setattr(ssa, "usable_cpus", lambda: 3)

    def fill(lo, hi):
        if lo:
            time.sleep(60)
        raise KeyboardInterrupt

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        ssa._in_shards(np.zeros((3, 1)), fill)
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_the_pipe_read_survives_interval_timer_signals(monkeypatch):
    # the parent blocks on the child's pipe while SIGALRM fires every
    # 2 ms (PEP 475 retries the read); the child inherits no timer
    monkeypatch.setattr(ssa, "usable_cpus", lambda: 2)
    out = np.zeros((4, 2))
    ticks = []

    def fill(lo, hi):
        if lo:
            time.sleep(0.2)
        for r in range(lo, hi):
            out[r] = [r, signal.getitimer(signal.ITIMER_REAL)[1]]

    previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(1))
    signal.setitimer(signal.ITIMER_REAL, 0.002, 0.002)
    try:
        ssa._in_shards(out, fill)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(ticks) > 10
    assert out.tolist() == [[0, 0.002], [1, 0.002], [2, 0.0], [3, 0.0]]
    _no_child_left()


def test_one_cpu_while_a_second_thread_runs():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert ssa.usable_cpus() == 1
    finally:
        release.set()
        thread.join()
    assert ssa.usable_cpus() == len(os.sched_getaffinity(0))
