"""Lockstep ensembles against the replica-by-replica loop.

``run_ensemble`` runs all replicas of a mass-action model in lockstep
from ``LOCKSTEP_REPLICAS`` replicas on. Raising the constant past the
replica count sends the same call through the per-replica loop, the
reference: mean, variance and every quantile must be equal bit for bit,
and a failing ensemble must raise the same exception with the same
message. The propensity arrays are also checked against the scalar
closures at single states, including counts above 2^53 in a square,
where every rounding of the product shows.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mscrn import ssa
from mscrn.errors import MscrnError
from mscrn.model import State
from mscrn.parser import parse_document

sys.path.insert(0, str(Path(__file__).parent))
import conftest as fx  # noqa: E402

GRID = (0.25, 0.5, 1.0)
MAX_EVENTS = 20_000

# every mass-action fixture with an initial state, and a ring wide
# enough for the blocked pass
FIXTURES = {
    "gene": fx.GENE_TEXT, "ab": fx.AB_TEXT, "spatial_ab": fx.SPATIAL_AB_TEXT,
    "spatial_ab_homog": fx.SPATIAL_AB_HOMOGENEOUS_TEXT,
    "conserved": fx.CONSERVED_TEXT, "three_scale": fx.THREE_SCALE_TEXT,
    "spatial_gene": fx.SPATIAL_GENE_TEXT, "ring16": fx.ring_text(16),
}

# continuous A at raw counts near 1e8, where x^2 > 2^53
SQUARE_TEXT = """\
species A alpha=1
species B alpha=0
reaction 2 A -> A + B @ mass-action kappa=1 beta=0
reaction A + B -> A @ mass-action kappa=0.5 beta=-1
"""
CUBE_TEXT = """\
species A alpha=1
species B alpha=0
reaction 3 A -> 2 A + B @ mass-action kappa=20 beta=0
reaction B -> 0 @ mass-action kappa=1 beta=0
"""


def _outcome(doc, config, replicas, x0, monkeypatch, lockstep, blocked_channels=None):
    """Statistics of ``run_ensemble`` (or its exception as text) and
    whether the lockstep kernel ran; ``blocked_channels`` replaces
    ``ssa.BLOCKED_CHANNELS`` when given."""
    calls = []
    kernel = ssa._lockstep
    with monkeypatch.context() as patch:
        patch.setattr(ssa, "_lockstep", lambda *args: calls.append(1) or kernel(*args))
        if not lockstep:
            patch.setattr(ssa, "LOCKSTEP_REPLICAS", replicas + 1)
        if blocked_channels is not None:
            patch.setattr(ssa, "BLOCKED_CHANNELS", blocked_channels)
        try:
            stats = ssa.run_ensemble(doc.model, doc.scaling, config, replicas,
                                     _observables(doc), x0=x0)
            out = (stats.mean, stats.variance, stats.quantiles)
        except MscrnError as exc:
            out = f"{type(exc).__name__}: {exc}"
    return out, bool(calls)


def _observables(doc):
    model = doc.model
    network = model.network if model.is_spatial else model
    names = [s.name for s in network.species]
    if model.is_spatial:
        names += [f"{names[0]}@{model.compartments[-1]}"]
    return names


def _assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert sorted(got[2]) == sorted(want[2])
    for q in want[2]:
        assert np.array_equal(got[2][q], want[2][q])


def _compare(doc, config, replicas, x0, monkeypatch, reference_blocked_channels=None):
    got, ran = _outcome(doc, config, replicas, x0, monkeypatch, lockstep=True)
    want, ran_reference = _outcome(doc, config, replicas, x0, monkeypatch, lockstep=False,
                                   blocked_channels=reference_blocked_channels)
    assert ran and not ran_reference
    _assert_same(got, want)
    return got


def test_wide_ring_takes_the_blocked_pass():
    doc = parse_document(FIXTURES["ring16"])
    assert ssa._Compiled(doc.model, doc.scaling, 10).blocks is not None


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_ensembles_match_per_replica_loop(name, monkeypatch):
    doc = parse_document(FIXTURES[name])
    x0 = State(doc.initial_scaled(), scaled=True)
    replicas = ssa.LOCKSTEP_REPLICAS + 5
    for N in (10, 100):
        config = ssa.SimulationConfig(N=N, t_end=1.0, seed=4, record=np.array(GRID),
                                      max_events=MAX_EVENTS)
        got = _compare(doc, config, replicas, x0, monkeypatch)
        if name == "ring16":
            # the lockstep is the flat pass, so it also equals a reference
            # whose per-replica loop takes the flat pass
            channels = len(ssa._Compiled(doc.model, doc.scaling, N).ids)
            _compare(doc, config, replicas, x0, monkeypatch,
                     reference_blocked_channels=channels + 1)
        if name.startswith("spatial_ab") and N == 100:
            # the fast movement reaches the event cap in both paths
            assert got.startswith("EventCapExceeded")


def test_dense_grid_where_one_event_passes_several_grid_times(monkeypatch):
    # 41 grid times from 0 to t_end at an N so small that the mean wait
    # spans several grid steps: the passed-grid loop of the lockstep runs
    # many rounds in one step, and every grid time passed takes the state
    # before the event
    from mscrn import rng as rng_mod

    grid = np.linspace(0.0, 1.0, 41)
    replicas = ssa.LOCKSTEP_REPLICAS + 5
    for name, N in (("ab", 4), ("spatial_ab", 2)):
        doc = parse_document(FIXTURES[name])
        x0 = State(doc.initial_scaled(), scaled=True)
        config = ssa.SimulationConfig(N=N, t_end=1.0, seed=4, record=grid)
        _compare(doc, config, replicas, x0, monkeypatch)
        passes = []
        for r in range(replicas):
            log = ssa._simulate(doc.model, doc.scaling,
                                ssa.SimulationConfig(N=N, t_end=1.0, record="events"), x0,
                                rng=rng_mod.stream(4, r)).event_log
            times = [0.0] + [t for t, _ in log]
            passes += np.diff(np.searchsorted(grid, times, side="right")).tolist()
        assert sum(p >= 2 for p in passes) >= len(passes) / 4


def test_square_of_large_counts(monkeypatch):
    # a continuous power is a product of floats in both paths, cubes too
    x0 = State(np.array([100_000_003.0, 0.0]), scaled=False)
    config = ssa.SimulationConfig(N=1e8, t_end=1.0, seed=2, record=np.array(GRID))
    for text in (SQUARE_TEXT, CUBE_TEXT):
        _compare(parse_document(text), config, ssa.LOCKSTEP_REPLICAS + 1, x0, monkeypatch)


def test_table_equals_scalar_propensities():
    # one formula: at single raw states, negative counts and counts below
    # a falling factorial's order included, the arrays give the closures'
    # values bit for bit, and a negative value where a closure raises
    gen = np.random.default_rng(0)
    for text in list(FIXTURES.values()) + [SQUARE_TEXT]:
        doc = parse_document(text)
        compiled = ssa._Compiled(doc.model, doc.scaling, 1e8)
        # one row and one column per channel, whichever pass the model takes
        assert compiled.delta.shape[0] == len(compiled.ids)
        dim = compiled.delta.shape[1] - 1
        rows = np.concatenate([gen.integers(-3, 6, size=(200, dim)),
                               gen.integers(10 ** 8 - 5, 10 ** 8 + 5, size=(20, dim))])
        x = np.hstack([rows, np.ones((len(rows), 1))]).astype(float)
        table = compiled.table(x)
        assert table.shape == (len(rows), len(compiled.ids))
        for row, values in zip(rows.tolist(), table):
            for c, propensity in enumerate(compiled.propensities):
                try:
                    want = propensity(row)
                except MscrnError as exc:
                    assert values[c] < 0 and repr(float(values[c])) in str(exc)
                    continue
                assert values[c] == want


def _random_mass_action_model(data):
    """A random spatial mass-action network; a continuous species consumed
    at order two can be drawn below zero, after which a rate reading it
    turns negative and the run raises."""
    from hypothesis import strategies as st

    nd = data.draw(st.integers(1, 3))
    ns = data.draw(st.integers(1, 3))
    names = [f"S{i}" for i in range(ns)]
    lines = [f"species {n} alpha={data.draw(st.sampled_from(['0', '1']))} eta=1"
             for n in names]
    lines.append("compartments " + " ".join(f"d{d}" for d in range(nd)))

    def side():
        terms = []
        for n in names:
            order = data.draw(st.integers(0, 2))
            if order:
                terms.append(f"{order} {n}" if order > 1 else n)
        return terms

    for _ in range(data.draw(st.integers(1, 4))):
        left, right = side(), side()
        if sorted(left) == sorted(right):
            right = right + [names[-1]]
        kappas = ",".join(repr(data.draw(st.floats(0.1, 3.0))) for _ in range(nd))
        lines.append(f"reaction {' + '.join(left) or '0'} -> {' + '.join(right) or '0'} "
                     f"@ mass-action kappa={kappas} "
                     f"beta={data.draw(st.sampled_from(['0', '1/2']))}")
    for n in names:
        for d1 in range(nd):
            for d2 in range(nd):
                if d1 != d2 and data.draw(st.booleans()):
                    lines.append(f"move {n} from d{d1} to d{d2} "
                                 f"rate {data.draw(st.floats(0.1, 3.0))!r}")
    return parse_document("\n".join(lines) + "\n"), ns, nd


def test_random_networks_match_per_replica_loop(monkeypatch):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    outcomes = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def run(data):
        doc, ns, nd = _random_mass_action_model(data)
        N = data.draw(st.sampled_from([1.0, 4.0]))
        alphas = np.array([float(a) for a in doc.model.network.alphas])
        raw = np.array([[data.draw(st.integers(0, 5)) for _ in range(nd)]
                        for _ in range(ns)], dtype=float)
        x0 = State(raw / (N ** alphas)[:, None], scaled=True)
        grid = data.draw(st.sampled_from([(1.0,), (0.0, 0.5, 1.0), (0.1, 0.2, 0.9)]))
        config = ssa.SimulationConfig(N=N, t_end=1.0, seed=data.draw(st.integers(0, 999)),
                                      record=np.array(grid),
                                      max_events=data.draw(st.sampled_from([40, 400])))
        replicas = data.draw(st.integers(ssa.LOCKSTEP_REPLICAS, ssa.LOCKSTEP_REPLICAS + 8))
        got = _compare(doc, config, replicas, x0, monkeypatch)
        outcomes.append(got.split(":")[0] if isinstance(got, str) else "ok")

    run()
    # the strategy reaches all three outcomes
    assert {"ok", "EventCapExceeded", "RateEvaluationError"} <= set(outcomes)


class _Pattern:
    """A stand-in for a replica's generator: uniforms repeating
    ``pattern`` by stream position, drawn as ``random(n)`` or into
    ``out``."""

    def __init__(self, pattern):
        self.pattern = np.asarray(pattern, dtype=float)
        self.pos = 0

    def random(self, size=None, out=None):
        n = size if out is None else len(out)
        values = self.pattern[(self.pos + np.arange(n)) % len(self.pattern)]
        self.pos += n
        if out is None:
            return values
        out[:] = values
        return out


def test_ties_and_rounding_with_crafted_uniforms(monkeypatch):
    from mscrn import rng as rng_mod

    def compare(text, x0, grid, t_end, pattern):
        monkeypatch.setattr(rng_mod, "stream", lambda seed, replica=None: _Pattern(pattern))
        doc = parse_document(text)
        config = ssa.SimulationConfig(N=1, t_end=t_end, seed=0, record=np.array(grid))
        _compare(doc, config, ssa.LOCKSTEP_REPLICAS, State(np.array(x0)), monkeypatch)

    # a channel uniform of exactly 0 passes the zero-propensity channels
    # before it (bisect_right), in both paths
    compare("species A alpha=0\nreaction A -> 0 @ mass-action kappa=1\n"
            "reaction 0 -> A @ mass-action kappa=1\n", [0.0], (0.5, 1.0, 2.0), 2.0,
            [0.5, 0.0])
    # an event at exactly a grid time comes after the snapshot there; the
    # waiting time must round as math.log rounds for the event to land on it
    u = np.random.default_rng(1).random(200_000)
    exact = np.array([-math.log(v) for v in (1.0 - u).tolist()])
    lower = np.flatnonzero(-np.log(1.0 - u) < exact)
    if not len(lower):
        pytest.skip("np.log rounds as math.log on every sample here")
    wait = exact[lower[0]]
    compare("species A alpha=0\nreaction 0 -> A @ mass-action kappa=1\n", [0.0],
            (wait,), 2 * wait, [u[lower[0]], 0.5])


def test_residual_rounding_up_to_its_block_sum(monkeypatch):
    # One species decays in every compartment; at the start only three
    # channels are positive: a in block 0 and p1, p2 (p1 + p2 = s) at
    # the head of block 1, whose last channel is zero. The largest
    # uniform below 1 makes the target the float below a + s. In the
    # blocked pass of the per-replica loop the residual target - a rounds
    # up to s itself, past every partial sum of block 1, and the pick
    # takes the block's last channel of positive propensity, p2, never a
    # zero one. The lockstep's flat choice must take the same channel.
    from mscrn import rng as rng_mod

    a, p1, p2 = 0.20306690262920823, 1.0, 1.9002898339570775
    s = p1 + p2
    u = math.nextafter(1.0, 0.0)
    assert u * (a + s) - a >= s

    def text(kappa, ones):
        lines = ["species A alpha=0",
                 "compartments " + " ".join(f"d{d}" for d in range(len(kappa))),
                 f"reaction A -> 0 @ mass-action kappa={','.join(map(repr, kappa))}"]
        return "\n".join(lines + [f"init A @ d{d} 1" for d in ones]) + "\n"

    kappa = [1.0] * ssa.BLOCKED_CHANNELS
    probe = parse_document(text(kappa, [0]))
    size = ssa._Compiled(probe.model, probe.scaling, 1).blocks[0]
    assert size >= 3
    kappa[0], kappa[size], kappa[size + 1] = a, p1, p2
    doc = parse_document(text(kappa, [0, size, size + 1]))
    x0 = State(doc.initial_scaled(), scaled=True)
    pattern = [0.5, u]
    log = ssa._simulate(doc.model, doc.scaling,
                        ssa.SimulationConfig(N=1, t_end=10.0, record="events"), x0,
                        rng=_Pattern(pattern)).event_log
    # p2, then p1 (the target is again the float below the total), then a
    assert [c for _, c in log] == [size + 1, size, 0]
    monkeypatch.setattr(rng_mod, "stream", lambda seed, replica=None: _Pattern(pattern))
    config = ssa.SimulationConfig(N=1, t_end=10.0, record=np.array([0.3, 1.0, 10.0]))
    _compare(doc, config, ssa.LOCKSTEP_REPLICAS, x0, monkeypatch)


FAILING_TEXT = """\
species A alpha=1
reaction 2 A -> 0 @ mass-action kappa=1 beta=0
reaction A -> 0 @ mass-action kappa=1 beta=0
reaction 0 -> A @ mass-action kappa=2 beta=0
"""


def test_error_of_lowest_failing_replica(monkeypatch):
    # A = 1 can fire 2 A -> 0, and A -> 0 then has a negative rate; other
    # replicas run to the event cap. The error raised is the one of the
    # lowest-numbered failing replica, whichever fails first in time.
    from mscrn import rng as rng_mod

    doc = parse_document(FAILING_TEXT)
    x0 = State(np.array([2.0]))
    replicas = ssa.LOCKSTEP_REPLICAS + 2
    kinds = set()
    for seed in range(30):
        config = ssa.SimulationConfig(N=1, t_end=100.0, seed=seed, record=np.array([1.0]),
                                      max_events=30)
        got = _compare(doc, config, replicas, x0, monkeypatch)
        failures = []
        for r in range(replicas):
            try:
                ssa._simulate(doc.model, doc.scaling, config, x0,
                              rng=rng_mod.stream(seed, r))
            except MscrnError as exc:
                failures.append(type(exc).__name__)
        assert got.startswith(failures[0])
        kinds.add((failures[0], frozenset(failures)))
    # both orders occur: a rate error before a later replica's cap, and a
    # cap (always at the last event) before a later replica's rate error
    assert ("RateEvaluationError", frozenset({"RateEvaluationError",
                                              "EventCapExceeded"})) in kinds
    assert ("EventCapExceeded", frozenset({"RateEvaluationError",
                                           "EventCapExceeded"})) in kinds
