"""The Monte Carlo fast-tier estimator on ``pdmp.JumpChain`` against a
plain walk of exactly ``mc.budget`` events: a numpy state, every rate
called on it after every jump, the uniforms of ``mc.seed`` drawn in one
piece, and the visits after the burn-in cut into ``N_BATCHES`` batches of
``(budget - burn-in) // N_BATCHES`` visits, the last also taking the
leftover ones.

Both read the stream of ``mc.seed`` in the same order, so the stationary
laws must be equal (``==``) in every stored state, weight and batch
index, in the ESS and the event count; a point mass must sit at the same
state; a failure must raise the same error type and message. Covered:
the fast tier of every fixture that has one, hypothesis-drawn
mass-action tiers with frozen continuous reactants and discrete order-2
reactants, the systems a spatial case-1 rate, an expression-law tier and
the THREE_SCALE middle tier hand to the estimator, absorbed chains, a
budget below the ESS threshold, failing rates and jumps, an expression
law closed where its discrete reactant runs out, and the edges
of the budget (the burn-in ending inside a batch, the leftover visits
joining the last batch, absorption before the budget, and a full memo
whose new states are walked unlinked). A rate that grows without bound
still stops at the budget. A capped jump raises the error type and
message recorded at commit be52e5b. Every Monte Carlo fast tier,
nonspatial or spatial, gets its system from the one builder,
``averaging.fast_tier_system``.

The chain's graph of stored states is checked on its own: with no room
to store a rate, every fast tier above gives the same estimate bit for
bit; a path through more states than the memo holds fills it to its cap
and no further, links stored states only, along their own channels, and
misses exactly where a replay of the path says; hits and misses add up
to the refreshed jumps.
"""

import math
import sys
import time
import warnings
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from mscrn import averaging, pdmp
from mscrn import rng as rng_mod
from mscrn.averaging import (McConfig, StationaryMeasure, _empirical_from_jump_paths,
                             averaged_rate_three_scale, averaged_rate_two_scale,
                             constrained_start, fast_discrete, fast_subsystem,
                             stationary_fast)
from mscrn.classify import classify, conserved_basis
from mscrn.errors import EventCapExceeded, MscrnError, NegativeRate, RateEvaluationError
from mscrn.parser import parse_document
from mscrn.pdmp import (HybridSystem, JumpChain, _checked_state, occupation_arrays,
                        simulate_pdmp)
from mscrn.spatial_cases import averaged_rate_spatial

sys.path.insert(0, str(Path(__file__).parent))
import conftest as fx  # noqa: E402


# ---------------------------------------------------------------------------
# the reference walk


def _reference_estimator(fast_system, v0, mc, discrete):
    """The time average of a walk of ``mc.budget`` events, on a numpy
    state with every rate recomputed after every jump."""
    budget = int(mc.budget)
    burn = int(budget * averaging.BURN_IN_FRAC)
    v = _checked_state(fast_system, v0)
    changes = [np.asarray(vec).tolist() for _, vec in fast_system.jumps]
    uniforms = iter(rng_mod.stream(mc.seed).random(2 * budget).tolist())

    def rates():
        out = [rate_fn(v) for rate_fn, _ in fast_system.jumps]
        for i, r in enumerate(out):
            if r < 0 or not math.isfinite(r):
                raise NegativeRate(f"jump rate {i} evaluated to {r}")
        return out

    visits = []   # (state, duration) of each visit of positive duration after the burn-in
    prop, t, events = rates(), 0.0, 0
    while events < budget:
        cum = list(accumulate(prop))
        if not cum or cum[-1] <= 0.0:
            break
        total = cum[-1]
        t_next = t - math.log(1.0 - next(uniforms)) / total
        chosen = min(bisect_right(cum, next(uniforms) * total), len(prop) - 1)
        events += 1
        if events > burn and t_next > t:
            visits.append((tuple(v.tolist()), t_next - t))
        t = t_next
        for i, c in enumerate(changes[chosen]):
            if c:
                v[i] += c
                if c < 0 and v[i] < 0:
                    raise NegativeRate("jump left the nonnegative orthant")
        prop = rates()

    if not any(prop):
        return StationaryMeasure("pointmass", point=v, discrete=discrete)
    if budget - burn < averaging.MIN_ESS:
        raise averaging.NonErgodicSuspected(
            f"only {budget - burn} post-burn-in events (threshold {averaging.MIN_ESS})")
    n_batches = averaging.N_BATCHES
    quota, last = max(1, (budget - burn) // n_batches), n_batches - 1
    cuts = [visits[b * quota:(b + 1) * quota] for b in range(last)] + [visits[last * quota:]]
    sums = []   # each batch's visits summed per state, in first-visit order
    for cut in cuts:
        acc = {}
        for state, weight in cut:
            acc[state] = acc.get(state, 0.0) + weight
        sums.append(acc)
    states, weights, batch = occupation_arrays(sums, len(v))
    return StationaryMeasure("empirical", states=states, weights=weights, batch=batch,
                             ess=budget - burn, n_events=budget, discrete=discrete)


def _outcome(estimator, system, v0, mc, discrete):
    try:
        m = estimator(system, v0, mc, discrete)
    except MscrnError as exc:
        return ("error", type(exc).__name__, str(exc))
    return _summary(m)


def _summary(m):
    if m.variant == "pointmass":
        return ("pointmass", m.point.tolist())
    return ("empirical", m.states.shape, m.states.tolist(), m.weights.tolist(),
            m.batch.tolist(), m.ess, m.n_events)


def _assert_same(system, v0, mc, discrete):
    """The chain estimator equals the reference; returns the outcome."""
    want = _outcome(_reference_estimator, system, v0, mc, discrete)
    got = _outcome(_empirical_from_jump_paths, system, v0, mc, discrete)
    assert got == want
    return got


# ---------------------------------------------------------------------------
# fixtures' fast tiers


FAST_TIER_FIXTURES = {
    "ab": fx.AB_TEXT, "spatial_ab": fx.SPATIAL_AB_TEXT,
    "spatial_ab_homog": fx.SPATIAL_AB_HOMOGENEOUS_TEXT, "conserved": fx.CONSERVED_TEXT,
    "spatial_conserved": fx.SPATIAL_CONSERVED_TEXT, "three_scale": fx.THREE_SCALE_TEXT,
}


def _fixture_tier(name, frozen_level):
    """The (system, v0, discrete) of a fixture's fast tier, every slower
    continuous species frozen at ``frozen_level``."""
    doc = parse_document(FAST_TIER_FIXTURES[name])
    cl = classify(doc.model, doc.scaling)
    discrete = fast_discrete(cl)
    basis = conserved_basis(cl)
    frozen = np.array([frozen_level if s.alpha else 2.0 for s in cl.network.species])
    system = fast_subsystem(cl, frozen)
    if basis.empty:
        v0 = np.zeros(len(discrete))
    else:
        v0 = constrained_start(basis, [3.0] * len(basis.vectors), len(discrete), discrete)
    return system, v0, discrete


@pytest.mark.parametrize("name", sorted(FAST_TIER_FIXTURES))
def test_fixture_fast_tiers_match_reference(name):
    for frozen_level, seed, budget in ((0.7, 0, 1500), (2.0, 3, 4000)):
        system, v0, discrete = _fixture_tier(name, frozen_level)
        assert not system.flows
        out = _assert_same(system, v0, McConfig(budget=budget, seed=seed), discrete)
        assert out[0] == "empirical"


# ---------------------------------------------------------------------------
# drawn mass-action tiers


def _draw_tier(data):
    """A network whose fast tier is mass action on 1-3 discrete species
    F*, with 1-2 continuous species C* frozen on the fast timescale: each
    fast reaction may carry a C catalyst (order 1 or 2, written before or
    after the fast reactants), and fast reactants have order 0-2. Only
    a reaction without fast reactants adds fast molecules, so no path
    grows faster than linearly in time. The species are declared in a
    drawn order, so frozen species sit both before and after the fast
    ones."""
    from hypothesis import strategies as st

    n_fast = data.draw(st.integers(1, 3))
    n_cont = data.draw(st.integers(1, 2))
    fast = [f"F{i}" for i in range(n_fast)]
    cont = [f"C{i}" for i in range(n_cont)]
    lines = [f"species {name} alpha={0 if name in fast else 1}"
             for name in data.draw(st.permutations(fast + cont))]

    def side(names_orders):
        terms = [name for name, n in names_orders for _ in range(n)]
        return " + ".join(terms) or "0"

    for _ in range(data.draw(st.integers(1, 5))):
        source = data.draw(st.sampled_from(fast))
        order = data.draw(st.integers(0, 2))
        target = data.draw(st.sampled_from(fast))
        if order:
            count = data.draw(st.integers(0, order - (source == target)))
        else:
            count = data.draw(st.integers(1, 2))
        left = [(source, order)]
        right = [(target, count)]
        if data.draw(st.booleans()):
            catalyst = (data.draw(st.sampled_from(cont)), data.draw(st.integers(1, 2)))
            before = data.draw(st.booleans())
            left = [catalyst] + left if before else left + [catalyst]
            right = right + [catalyst]
        kappa = data.draw(st.floats(0.2, 3.0))
        lines.append(f"reaction {side(left)} -> {side(right)} "
                     f"@ mass-action kappa={kappa!r} beta=1")
    for name in cont:
        lines.append(f"reaction {name} -> 0 @ mass-action kappa=1 beta=1")
    return "\n".join(lines) + "\n"


def test_drawn_mass_action_tiers_match_reference():
    from hypothesis import HealthCheck, assume, given, settings
    from hypothesis import strategies as st

    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(data=st.data())
    def check(data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            doc = parse_document(_draw_tier(data))
            try:
                cl = classify(doc.model, doc.scaling)
            except MscrnError:
                assume(False)
        assume(cl.kind == "two")
        network = cl.network
        frozen = np.array([data.draw(st.floats(0.05, 4.0)) if s.alpha else 0.0
                           for s in network.species])
        system = fast_subsystem(cl, frozen)
        assume(not system.flows)
        v0 = [float(data.draw(st.integers(0, 4))) for _ in cl.fast.rows]
        mc = McConfig(budget=data.draw(st.integers(300, 2000)),
                      seed=data.draw(st.integers(0, 999)))
        seen.add(_assert_same(system, v0, mc, fast_discrete(cl))[0])

    check()
    # the draws reach the empirical law and at least one other outcome
    assert "empirical" in seen and len(seen) > 1


# ---------------------------------------------------------------------------
# systems handed over by the rate builders


def _captured(monkeypatch, evaluate):
    """The pure-jump (system, v0, mc, discrete) calls that ``evaluate()``
    makes to ``averaging.montecarlo_measure``."""
    calls = []
    real = averaging.montecarlo_measure

    def spy(system, v0, mc, discrete):
        if not system.flows:
            calls.append((system, np.array(v0, dtype=float), mc, discrete))
        return real(system, v0, mc, discrete)

    with monkeypatch.context() as m:
        m.setattr(averaging, "montecarlo_measure", spy)
        evaluate()
    assert calls
    return calls


def test_every_fast_tier_system_comes_from_the_one_builder(monkeypatch):
    # every Monte Carlo fast tier, two-scale, conserved, the three-scale
    # inner tier and spatial cases 1-4, is simulated on a system that
    # averaging.fast_tier_system built; only the three-scale middle tier (M)
    # is built elsewhere
    built, handed = [], []
    real_build, real_measure = averaging.fast_tier_system, averaging.montecarlo_measure

    def build(*args):
        built.append(real_build(*args))
        return built[-1]

    def measure(system, *args):
        handed.append(system)
        return real_measure(system, *args)

    def classified(text):
        doc = parse_document(text)
        return classify(doc.model, doc.scaling)

    monkeypatch.setattr(averaging, "fast_tier_system", build)
    monkeypatch.setattr(averaging, "montecarlo_measure", measure)
    mc = McConfig(budget=500, seed=1)
    cons, spatial = classified(fx.CONSERVED_TEXT), classified(fx.SPATIAL_AB_TEXT)
    evaluations = {
        "two-scale": lambda: averaged_rate_two_scale(
            classified(fx.AB_TEXT), 0, mode="montecarlo", mc=mc)([0.5]),
        "conserved": lambda: averaged_rate_two_scale(
            cons, 4, mode="montecarlo", mc=mc, conserved=conserved_basis(cons))([1.0, 3.0]),
        "three-scale": lambda: averaged_rate_three_scale(
            classified(fx.THREE_SCALE_TEXT), 4, mode="montecarlo", mc=mc)([1.0]),
    }
    for case in (1, 2, 3, 4):
        evaluations[f"case {case}"] = lambda case=case: averaged_rate_spatial(
            spatial, case, 0, mode="montecarlo", mc=mc)([0.5])
    for name, evaluate in evaluations.items():
        built.clear()
        handed.clear()
        evaluate()
        fast = [system for system in handed if system.labels != ("M",)]
        assert fast, name
        assert all(any(system is b for b in built) for system in fast), name


def test_spatial_case1_tier_matches_reference(monkeypatch):
    doc = parse_document(fx.SPATIAL_AB_TEXT)
    cl = classify(doc.model, doc.scaling)
    rate = averaged_rate_spatial(cl, 1, 0, mode="montecarlo", mc=McConfig(budget=3000, seed=2))
    for system, v0, mc, discrete in _captured(monkeypatch, lambda: rate([0.6])):
        assert all(hasattr(rate_fn, "row_terms") for rate_fn, _ in system.jumps)
        assert _assert_same(system, v0, mc, discrete)[0] == "empirical"


def test_expression_tier_matches_reference(monkeypatch):
    doc = parse_document(fx.EXPR_TIER_TEXT)
    cl = classify(doc.model, doc.scaling)
    frozen = np.array([0.8, 0.0])

    def evaluate():
        stationary_fast(cl, frozen, mode="montecarlo", mc=McConfig(budget=3000, seed=4))

    calls = _captured(monkeypatch, evaluate)
    for system, v0, mc, discrete in calls:
        # the expression law is opaque, the mass-action ones have row forms
        assert [hasattr(rate_fn, "row_terms") for rate_fn, _ in system.jumps] == [
            True, False, True]
        assert _assert_same(system, v0, mc, discrete)[0] == "empirical"


def test_three_scale_middle_tier_matches_reference(monkeypatch):
    doc = parse_document(fx.THREE_SCALE_TEXT)
    cl = classify(doc.model, doc.scaling)
    rate = averaged_rate_three_scale(cl, 4, mc=McConfig(budget=600, seed=1))
    calls = _captured(monkeypatch, lambda: rate([1.0]))
    middle = [c for c in calls if c[0].labels == ("M",)]
    assert len(middle) == 1
    assert _assert_same(*middle[0])[0] == "empirical"


# ---------------------------------------------------------------------------
# absorbed chains, budgets, failures


def _listed(rate_fn, reads):
    """``rate_fn`` marked as a rate the chain evaluates on its list state,
    reading the coordinates ``reads``: a row form whose terms sit there."""
    rate_fn.row_terms = (1.0, tuple((i, 1, False) for i in reads))
    return rate_fn


def _death(listed):
    """x -> x - 1 at rate 1.5 x; the opaque rate needs an array."""
    if listed:
        rate = _listed(lambda v: 1.5 * v[0], [0])
    else:
        def rate(v):
            return 1.5 * v.sum()
    return HybridSystem(("x",), ((rate, np.array([-1])),), ())


@pytest.mark.parametrize("listed", [False, True])
def test_absorbed_chains_match_reference(listed):
    system = _death(listed)
    # absorbed after three jumps, and absorbed from the start
    assert _assert_same(system, [3.0], McConfig(budget=500), [True]) == ("pointmass", [0.0])
    assert _assert_same(system, [0.0], McConfig(budget=500), [True]) == ("pointmass", [0.0])


def test_growing_tier_stops_at_the_budget(monkeypatch):
    # F -> F + F at rate F from F = 1: the Yule rate grows without bound,
    # and the walk still ends at its budget-th event, at F = 1001
    yule = HybridSystem(("F",), ((_listed(lambda v: v[0], [0]), np.array([1])),), ())
    start = time.perf_counter()
    out, [(counts, chain)] = _walked(monkeypatch, yule, [1.0], McConfig(budget=1000), [True])
    assert time.perf_counter() - start < 2.0
    assert out[0] == "empirical" and out[-1] == 1000
    assert counts == [1000] and chain.key == (1001.0,)


def test_budget_below_ess_threshold_matches_reference():
    doc = parse_document(fx.AB_TEXT)
    cl = classify(doc.model, doc.scaling)
    system = fast_subsystem(cl, np.array([0.5, 0.0]))
    # 120 events leave 96 after the burn-in, below the 100 required
    out = _assert_same(system, [0.0], McConfig(budget=120), [True])
    assert out[:2] == ("error", "NonErgodicSuspected")


def _failing_tier(death_law):
    return f"""\
species A alpha=1
species B alpha=0
reaction A -> 0 @ mass-action kappa=1 beta=1
reaction A + B -> A @ mass-action kappa=0.1 beta=1
reaction 0 -> B @ mass-action kappa=5 beta=1
reaction B -> 0 @ expr {death_law} beta=1
"""


@pytest.mark.parametrize("death_law, error", [
    ("B*(4 - B)", "RateEvaluationError"),   # negative once births carry B past 4
    ("B/(3 - B)", "RateEvaluationError"),   # not finite at B = 3
])
def test_failing_expression_tiers_raise_as_before(death_law, error):
    doc = parse_document(_failing_tier(death_law))
    cl = classify(doc.model, doc.scaling)
    system = fast_subsystem(cl, np.array([1.0, 0.0]))
    with np.errstate(all="ignore"):
        out = _assert_same(system, [0.0], McConfig(budget=2000), [True])
    assert out[:2] == ("error", error)


def test_gated_expression_tier_matches_reference():
    # the death law 4 is closed at B = 0, where its discrete reactant B
    # has fewer molecules than its order, so the walk stays in the orthant
    doc = parse_document(_failing_tier("4"))
    cl = classify(doc.model, doc.scaling)
    system = fast_subsystem(cl, np.array([1.0, 0.0]))
    assert system.jumps[-1][0](np.array([0.0])) == 0.0
    assert _assert_same(system, [0.0], McConfig(budget=2000), [True])[0] == "empirical"


def test_overflowing_frozen_power_raises_as_before():
    # C^2 overflows at C = 1e160: the numpy power gives an infinite rate,
    # reported as a non-finite rate, where a float power would raise
    # OverflowError
    doc = parse_document("species C alpha=1\nspecies B alpha=0\n"
                         "reaction C -> 0 @ mass-action kappa=1 beta=1\n"
                         "reaction C + C + B -> C + C @ mass-action kappa=1 beta=1\n"
                         "reaction 0 -> B @ mass-action kappa=1 beta=1\n")
    cl = classify(doc.model, doc.scaling)
    with np.errstate(all="ignore"):
        system = fast_subsystem(cl, np.array([1e160, 0.0]))
        out = _assert_same(system, [1.0], McConfig(budget=500), [True])
    assert out == ("error", "NegativeRate", "jump rate 0 evaluated to inf")


@pytest.mark.parametrize("listed", [False, True])
def test_failing_jumps_and_rates_raise_as_before(listed):
    def wrap(rate, reads):
        return _listed(rate, reads) if listed else rate

    # a jump of -1 fires at x = 0
    leaves = HybridSystem(("x",), ((wrap(lambda v: 1.0, []), np.array([-1])),), ())
    assert _assert_same(leaves, [0.0], McConfig(budget=500), [True]) == (
        "error", "NegativeRate", "jump left the nonnegative orthant")
    # channel 1's rate turns negative, then not a number, as x grows
    for bad in (lambda v: 2.0 - v[0], lambda v: math.nan if v[0] > 2 else 1.0):
        system = HybridSystem(("x",), ((wrap(lambda v: 1.0, []), np.array([1])),
                                       (wrap(bad, [0]), np.array([0]))), ())
        out = _assert_same(system, [0.0], McConfig(budget=500), [True])
        assert out[:2] == ("error", "NegativeRate") and out[2].startswith("jump rate 1 ")

    # at x = 3 channel 1 turns negative and channel 2 raises: every rate
    # is evaluated before one is checked, so channel 2's error wins
    def raises(v):
        if v[0] >= 3:
            raise RateEvaluationError(f"no rate at {v[0]}")
        return 0.5

    system = HybridSystem(("x",), ((wrap(lambda v: 1.0, []), np.array([1])),
                                   (wrap(lambda v: 2.0 - v[0], [0]), np.array([0])),
                                   (wrap(raises, [0]), np.array([0]))), ())
    assert _assert_same(system, [0.0], McConfig(budget=500), [True]) == (
        "error", "RateEvaluationError", "no rate at 3.0")


def test_capped_jump_raises_as_recorded():
    # event logs of pure-jump runs capped at the jump that leaves the
    # orthant, which raises its own error, and at the jump whose refresh
    # turns a rate negative, where the cap is raised; one jump later the
    # refresh's error is (all recorded at commit be52e5b)
    down = HybridSystem(("x",), ((_listed(lambda v: 1.0, []), np.array([-1])),), ())
    turns = HybridSystem(("x",), ((_listed(lambda v: 1.0, []), np.array([1])),
                                  (_listed(lambda v: 2.0 - v[0], [0]), np.array([0]))), ())
    recorded = [
        (down, [2.0], 2, EventCapExceeded, "exceeded 2 events at t=1.0550835022060634"),
        (down, [2.0], 3, NegativeRate, "jump left the nonnegative orthant"),
        (turns, [0.0], 3, EventCapExceeded, "exceeded 3 events at t=2.03676010356412"),
        (turns, [0.0], 4, NegativeRate, "jump rate 1 evaluated to -1.0"),
    ]
    for system, v0, cap, error, message in recorded:
        with pytest.raises(error) as info:
            simulate_pdmp(system, v0, 10.0, seed=0, record="events", max_events=cap)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# the per-state rate memo


@pytest.mark.parametrize("name", sorted(FAST_TIER_FIXTURES) + ["expression", "middle"])
def test_memo_changes_no_output(monkeypatch, name):
    # a chain that stores no rates evaluates them after every jump, as
    # before the memo; its estimate is the same bit for bit, and its rate
    # evaluations are its events
    if name == "expression":
        doc = parse_document(fx.EXPR_TIER_TEXT)
        cl = classify(doc.model, doc.scaling)
        calls = _captured(monkeypatch, lambda: stationary_fast(
            cl, np.array([0.8, 0.0]), mode="montecarlo", mc=McConfig(budget=3000, seed=4)))
        system, v0, mc, discrete = calls[0]
    elif name == "middle":
        doc = parse_document(fx.THREE_SCALE_TEXT)
        cl = classify(doc.model, doc.scaling)
        rate = averaged_rate_three_scale(cl, 4, mc=McConfig(budget=600, seed=1))
        calls = _captured(monkeypatch, lambda: rate([1.0]))
        system, v0, mc, discrete = next(c for c in calls if c[0].labels == ("M",))
    else:
        system, v0, discrete = _fixture_tier(name, 0.7)
        mc = McConfig(budget=4000, seed=3)
    with_memo = _empirical_from_jump_paths(system, v0, mc, discrete)
    monkeypatch.setattr(pdmp, "_MEMO_RATES", 0)
    without = _empirical_from_jump_paths(system, v0, mc, discrete)
    assert _summary(with_memo) == _summary(without)
    assert without.rate_evals == without.n_events
    # the fast tiers revisit a handful of states
    assert with_memo.rate_evals < without.n_events / 10


def _birth(rate=1.0):
    """x -> x + 1 at a constant rate, and x -> x at rate x (a rate that
    reads x, so every jump refreshes it); both count their calls."""
    calls = []

    def constant(v):
        calls.append(0)
        return rate

    def linear(v):
        calls.append(1)
        return v[0]

    return HybridSystem(("x",), ((_listed(constant, []), np.array([1])),
                                 (_listed(linear, [0]), np.array([0]))), ()), calls


def test_memo_holds_at_most_its_cap(monkeypatch):
    # a pure birth path meets a new state at every jump: with room for 10
    # rates (10 states of one channel) the memo stops at 10 states while
    # the path visits over 10 times as many, and the run equals one
    # without memo
    system = HybridSystem(("x",), ((_listed(lambda v: 1.0, []), np.array([1])),), ())
    runs = {}
    for cap in (10, 0):
        monkeypatch.setattr(pdmp, "_MEMO_RATES", cap)
        chain = JumpChain(system, [0.0])
        counts = chain.run(150.0, rng_mod.events(rng_mod.stream(2)))
        runs[cap] = (counts, chain.key)
        assert len(chain.memo) == cap
    assert runs[10][0][0] >= 100 and runs[10] == runs[0]
    monkeypatch.undo()
    # the memo's room is counted in rates, over all channels
    assert JumpChain(_birth()[0], [0.0]).memo_cap == pdmp._MEMO_RATES // 2


def test_memo_hits_and_misses_count_the_refreshed_events():
    # birth at rate 3 and x -> x at rate x: the second channel fires
    # without moving, so the path revisits its states. A jump into a state
    # an earlier jump entered is a memo hit and evaluates no rate; any
    # other is a miss and evaluates the rates that read x, here one
    system, calls = _birth(3.0)
    chain = JumpChain(system, [0.0])
    keys = []
    counts = chain.run(20.0, rng_mod.events(rng_mod.stream(5)),
                       snapshot=lambda t, key: keys.append(key), log=[])
    seen, hits = set(), 0
    for key in keys:
        hits += key in seen
        seen.add(key)
    assert sum(counts) == len(keys) and counts[1] > 10
    assert hits + chain.misses == len(keys)
    assert chain.misses == len(seen)
    assert len(calls) == 2 + chain.misses


# ---------------------------------------------------------------------------
# the transition graph of stored states


def _birth_death():
    """x -> x + 1 at rate 2 and x -> x - 1 at rate x: a path that keeps
    coming back to a handful of states."""
    return HybridSystem(("x",), ((_listed(lambda v: 2.0, []), np.array([1])),
                                 (_listed(lambda v: v[0], [0]), np.array([-1]))), ())


def test_graph_with_fewer_stored_states_than_visited_changes_no_output(monkeypatch):
    # room for 3 of the about 10 states the path visits: the estimate
    # equals the one of a chain that stores nothing, bit for bit, and the
    # one with the default room
    system, mc = _birth_death(), McConfig(budget=4000, seed=6)
    runs = {}
    for room in (6, 0, pdmp._MEMO_RATES):
        monkeypatch.setattr(pdmp, "_MEMO_RATES", room)
        runs[room] = _summary(_empirical_from_jump_paths(system, [0.0], mc, [True]))
    assert runs[6] == runs[0] == runs[pdmp._MEMO_RATES]
    assert len(set(map(tuple, runs[0][2]))) > 6


def test_graph_holds_its_cap_links_stored_states_and_counts_its_misses(monkeypatch):
    # the graph stores the first 3 states jumps enter, links only stored
    # states along their own channels, and misses on every jump into a
    # state it did not store when the jump came, as a replay of the path
    # counts them
    monkeypatch.setattr(pdmp, "_MEMO_RATES", 6)
    system = _birth_death()
    chain = JumpChain(system, [0.0])
    keys = []
    counts = chain.run(60.0, rng_mod.events(rng_mod.stream(8)),
                       snapshot=lambda t, key: keys.append(key), log=[])
    assert chain.memo_cap == 3 and len(chain.memo) == 3 and len(set(keys)) > 6
    stored, misses = set(), 0
    for key in keys:
        if key not in stored:
            misses += 1
            if len(stored) < chain.memo_cap:
                stored.add(key)
    assert chain.misses == misses and set(chain.memo) == stored
    linked = 0
    for key, (own_key, rates, cum, links) in chain.memo.items():
        assert own_key == key and cum == list(accumulate(rates))
        for c, target in enumerate(links):
            if target is not None:
                linked += 1
                assert chain.memo[target[0]] is target
                assert target[0] == (key[0] + system.jumps[c][1][0],)
    assert linked >= 3
    # the same path on a chain that stores nothing
    monkeypatch.setattr(pdmp, "_MEMO_RATES", 0)
    bare = JumpChain(system, [0.0])
    assert bare.run(60.0, rng_mod.events(rng_mod.stream(8))) == counts
    assert bare.key == chain.key and bare.misses == len(keys) and not bare.memo


# ---------------------------------------------------------------------------
# the edges of the budget


def _walked(monkeypatch, system, v0, mc, discrete):
    """The outcome of ``_empirical_from_jump_paths`` and, for each run of
    a chain it made, the events per channel and the chain."""
    walks, real = [], JumpChain.run

    def run(chain, *args, **kwargs):
        counts = real(chain, *args, **kwargs)
        walks.append((counts, chain))
        return counts

    with monkeypatch.context() as m:
        m.setattr(JumpChain, "run", run)
        got = _outcome(_empirical_from_jump_paths, system, v0, mc, discrete)
    return got, walks


def test_burn_in_ends_inside_a_batch_and_leftover_visits_join_the_last(monkeypatch):
    # a pure birth enters a new state at every event, so each kept row is
    # one visit: of 1014 events 202 (of 202.8) are burnt, the quota is
    # 812 // 16 = 50, and the 12 visits left over join batch 15; the
    # first kept visit is to x = 202, which event 203 ends
    birth = HybridSystem(("x",), ((_listed(lambda v: 1.0, []), np.array([1])),), ())
    mc = McConfig(budget=1014, seed=5)
    got, [(counts, chain)] = _walked(monkeypatch, birth, [0.0], mc, [True])
    assert counts == [1014] and chain.key == (1014.0,)
    assert got == _outcome(_reference_estimator, birth, [0.0], mc, [True])
    _, shape, states, _, batch, ess, n_events = got
    assert shape == (812, 1) and (ess, n_events) == (812, 1014)
    assert states[0] == [202.0] and states[-1] == [1013.0]
    assert np.bincount(batch).tolist() == [50] * 15 + [62]


def test_absorbed_before_the_budget_matches_reference(monkeypatch):
    # the death chain from x = 3 is absorbed after three events, well
    # before its budget of 500
    system, mc = _death(True), McConfig(budget=500)
    got, [(counts, chain)] = _walked(monkeypatch, system, [3.0], mc, [True])
    assert got == ("pointmass", [0.0]) and counts == [3] and chain.key == (0.0,)
    assert got == _outcome(_reference_estimator, system, [3.0], mc, [True])


def test_full_memo_walked_unlinked_matches_reference(monkeypatch):
    # room for 3 of the about 10 states the walk visits: the states met
    # once the memo is full are walked on unlinked nodes
    monkeypatch.setattr(pdmp, "_MEMO_RATES", 6)
    system, mc = _birth_death(), McConfig(1000, seed=6)
    got, [(_, chain)] = _walked(monkeypatch, system, [0.0], mc, [True])
    assert len(chain.memo) == chain.memo_cap == 3 < chain.misses
    assert got[0] == "empirical" and got[-1] == 1000
    assert got == _outcome(_reference_estimator, system, [0.0], mc, [True])


# ---------------------------------------------------------------------------
# the event draws of an estimate


def _counted_draws(monkeypatch):
    """Count the event draws each estimate reads, from a supply that runs
    past its budget, so reading too many shows."""
    taken, real = [], rng_mod.cached_events

    def counted(seed, budget):
        taken.append(0)
        for pair in real(seed, budget + 10):
            taken[-1] += 1
            yield pair

    monkeypatch.setattr(rng_mod, "cached_events", counted)
    return taken


def test_estimate_reads_its_budget_of_draws_or_fewer_when_absorbed(monkeypatch):
    taken = _counted_draws(monkeypatch)
    out = _summary(_empirical_from_jump_paths(_birth_death(), [0.0], McConfig(700, seed=3),
                                              [True]))
    assert out[0] == "empirical" and taken == [700]
    # the death chain from x = 3 is absorbed after three events
    out = _summary(_empirical_from_jump_paths(_death(True), [3.0], McConfig(500), [True]))
    assert out == ("pointmass", [0.0]) and taken == [700, 3]


def test_estimates_from_the_cache_equal_those_on_fresh_draws():
    # each estimate again on a cleared cache, where its draws are made anew;
    # two budgets of one seed are two entries
    system = _birth_death()
    rng_mod._cached_draws.cache_clear()
    cached = [_summary(_empirical_from_jump_paths(system, [0.0], McConfig(budget, seed=4),
                                                  [True]))
              for budget in (2000, 3000, 2000, 3000)]
    info = rng_mod._cached_draws.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    fresh = []
    for budget in (2000, 3000):
        rng_mod._cached_draws.cache_clear()
        fresh.append(_summary(_empirical_from_jump_paths(system, [0.0],
                                                         McConfig(budget, seed=4), [True])))
    assert cached == fresh * 2 and cached[0] != cached[1]


def test_estimates_at_ten_seeds_leave_the_cache_at_its_bound():
    rng_mod._cached_draws.cache_clear()
    for seed in range(10):
        _empirical_from_jump_paths(_birth_death(), [0.0], McConfig(500, seed=seed), [True])
    info = rng_mod._cached_draws.cache_info()
    assert info.currsize == info.maxsize == rng_mod.EVENT_CACHE_ENTRIES
    rng_mod.cached_events(9, 500)   # the last seed's draws are still kept
    assert rng_mod._cached_draws.cache_info().hits == info.hits + 1
