"""Movement equilibria, product measures, stationary measures, averaged
rates. Oracles: two-state balance equations, multinomial/binomial
moments, the birth-death Poisson law, and hand-composed closed forms.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from mscrn.averaging import (MEMO_SIZE, McConfig, StateMemo, StationaryMeasure,
                             _occupation, averaged_rate_three_scale,
                             averaged_rate_two_scale, constrained_start,
                             movement_equilibria, product_measure, stationary_fast)
from mscrn.classify import classify, conserved_basis
from mscrn.errors import (AnalyticUnavailable, ModelError, NonErgodicSuspected,
                          ReducibleChainError)
from mscrn.model import mass_action_rate
from mscrn.parser import parse_document, parse_model
from mscrn.pdmp import OdeConfig

sys.path.insert(0, str(Path(__file__).parent))
import conftest as fx  # noqa: E402


def test_movement_equilibrium_two_state(movement_doc):
    pis = movement_equilibria(movement_doc.model)
    assert pis.tolist() == [[2 / 3, 1 / 3]]


def test_movement_equilibrium_symmetric_cycle():
    text = ("species W alpha=0 eta=1\ncompartments a b c\n"
            "move W from a to b rate 1\nmove W from b to c rate 1\n"
            "move W from c to a rate 1\n")
    model, _ = parse_model(text)
    assert movement_equilibria(model).tolist() == [[1 / 3] * 3]


def test_movement_equilibrium_single_compartment():
    text = "species W alpha=0 eta=1\ncompartments only\n"
    model, _ = parse_model(text)
    assert movement_equilibria(model).tolist() == [[1.0]]


def test_movement_equilibrium_reducible():
    text = ("species W alpha=0 eta=1\ncompartments a b c\n"
            "move W from c to a rate 1\nmove W from c to b rate 1\n")
    model, _ = parse_model(text)
    with pytest.raises(ReducibleChainError):
        movement_equilibria(model)


def test_product_measure_binomial_marginal(movement_doc):
    # discrete species, pi=(0.5,0.5) needs a symmetric fixture
    text = ("species W alpha=0 eta=1\ncompartments a b\n"
            "move W from a to b rate 1\nmove W from b to a rate 1\n")
    model, _ = parse_model(text)
    measure = product_measure(model, [10.0])
    support = list(measure.support())
    assert len(support) == 11
    for positions, prob in support:
        n1 = int(positions[0, 0])
        assert prob == pytest.approx(sps.binom.pmf(n1, 10, 0.5), rel=1e-12)


def test_product_measure_point_mass(movement_doc):
    # continuous species: deterministic split s*pi = (8/3, 4/3)
    text = ("species C alpha=1 eta=1\ncompartments a b\n"
            "move C from a to b rate 1\nmove C from b to a rate 2\n")
    model, _ = parse_model(text)
    measure = product_measure(model, [4.0])
    support = list(measure.support())
    assert len(support) == 1
    positions, prob = support[0]
    assert prob == 1.0
    assert np.allclose(positions[0], [8 / 3, 4 / 3])


def test_product_measure_zero_total(movement_doc):
    measure = product_measure(movement_doc.model, [0.0])
    support = list(measure.support())
    assert len(support) == 1
    assert np.all(support[0][0] == 0.0)


def test_product_measure_sampler_means(movement_doc):
    from mscrn import rng as rng_mod
    measure = product_measure(movement_doc.model, [30.0])
    rng = rng_mod.stream(5)
    draws = np.array([measure.sample(rng)[0] for _ in range(100_000)])
    expected = 30.0 * np.array([2 / 3, 1 / 3])
    se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - expected) < 3 * se)


def test_product_measure_multinomial_chisquare(movement_doc):
    # sampler marginal matches the exact binomial pmf (chi-square, 1%)
    from mscrn import rng as rng_mod
    measure = product_measure(movement_doc.model, [12.0])
    rng = rng_mod.stream(9)
    counts = np.zeros(13)
    draws = 100_000
    for _ in range(draws):
        counts[int(measure.sample(rng)[0, 0])] += 1
    pmf = sps.binom.pmf(np.arange(13), 12, 2 / 3)
    # pool sparse tail cells for a valid chi-square
    keep = pmf * draws >= 5
    observed = np.concatenate([counts[keep], [counts[~keep].sum()]])
    expected = np.concatenate([pmf[keep] * draws, [pmf[~keep].sum() * draws]])
    stat = sps.chisquare(observed, expected)
    assert stat.pvalue > 0.01


def test_stationary_fast_analytic(ab_doc):
    c = classify(ab_doc.model, ab_doc.scaling)
    frozen = np.array([1.0, 0.0])
    measure = stationary_fast(c, frozen, mode="analytic")
    assert measure.variant == "moments"
    assert measure.mean_vector().tolist() == [pytest.approx(0.5)]
    # Poisson(1/2): E[B(B-1)] = 1/4, with no standard error
    assert measure.expect_mass_action(1.0, [2]) == (pytest.approx(0.25), 0.0)


def test_stationary_fast_analytic_unavailable():
    # a fast pairwise annihilation is not linear birth-death
    text = ("species B alpha=0\nspecies S alpha=0\n"
            "reaction 0 -> B @ mass-action kappa=1 beta=1\n"
            "reaction 2 B -> 0 @ mass-action kappa=1 beta=1\n"
            "reaction 0 -> S @ mass-action kappa=1 beta=0\n")
    model, scaling = parse_model(text)
    c = classify(model, scaling)
    with pytest.raises(AnalyticUnavailable):
        stationary_fast(c, np.zeros(2), mode="analytic")
    # auto mode falls back to Monte Carlo explicitly
    measure = stationary_fast(c, np.zeros(2), mode="auto",
                              mc=McConfig(budget=20_000, seed=2))
    assert measure.variant == "empirical"


def test_stationary_fast_montecarlo_agrees(ab_doc):
    c = classify(ab_doc.model, ab_doc.scaling)
    frozen = np.array([1.0, 0.0])
    measure = stationary_fast(c, frozen, mode="montecarlo",
                              mc=McConfig(budget=60_000, seed=4))
    value, se = measure.expect(lambda z: z[0])
    assert se > 0
    assert abs(value - 0.5) < 3 * se + 1e-3
    assert measure.ess > 100


def test_stationary_fast_zero_rates_point_mass():
    # fast tier present but inactive at this frozen state: the chain is
    # absorbed immediately, the time-average is the start point
    text = ("species B alpha=0\nspecies A alpha=1\n"
            "reaction A + B -> A @ mass-action kappa=1 beta=1\n"
            "reaction A -> 0 @ mass-action kappa=1 beta=1\n")
    model, scaling = parse_model(text)
    c = classify(model, scaling)
    frozen = np.array([0.0, 0.0])   # A = 0 kills the only fast reaction
    measure = stationary_fast(c, frozen, mode="montecarlo",
                              v_f0=np.array([3.0]))
    assert measure.variant == "pointmass"
    assert measure.point[0] == 3.0


def test_stationary_fast_ess_threshold(ab_doc):
    c = classify(ab_doc.model, ab_doc.scaling)
    with pytest.raises(NonErgodicSuspected):
        stationary_fast(c, np.array([1.0, 0.0]), mode="montecarlo",
                        mc=McConfig(budget=2000, ess_threshold=10**7, seed=1))


def test_constrained_samples_on_surface(conserved_doc):
    c = classify(conserved_doc.model, conserved_doc.scaling)
    basis = conserved_basis(c)
    frozen = np.zeros(3)
    measure = stationary_fast(c, frozen, mode="montecarlo",
                              mc=McConfig(budget=20_000, seed=6),
                              conserved=basis, conserved_values=[4.0])
    assert measure.variant == "empirical"
    for state in measure.states:
        assert state[0] + state[1] == 4.0


DIMER_TEXT = """\
species D alpha=0
species M alpha=0
species S alpha=0
reaction D -> M + M @ mass-action kappa=1 beta=1
reaction M + M -> D @ mass-action kappa=1 beta=1
reaction M -> M + S @ mass-action kappa=1 beta=0
"""


def test_constrained_start_integer_for_nonunit_basis():
    # the dimer's fast tier conserves 2D + M. At total n the chain moves
    # between the states with D = (n - M)/2, so E[M] is 1 at n = 1 (the
    # only state, absorbing), 2/3 at n = 2 (D = 1 at rate 1, M = 2 at rate
    # 2 * 1) and 9/7 at n = 3 (M = 1 at rate 1 against M = 3 at rate 6).
    # A start of D = 1/2 at n = 1 left every fast rate at 0 and read 0.
    doc = parse_document(DIMER_TEXT)
    c = classify(doc.model, doc.scaling)
    basis = conserved_basis(c)
    assert basis.vectors == ((2, 1),)
    for n, start in ((1, [0, 1]), (2, [1, 0]), (3, [1, 1]), (4, [2, 0]), (5, [2, 1])):
        assert constrained_start(basis, [n], 2, [True, True]).tolist() == start
    rate = averaged_rate_two_scale(c, 2, mode="montecarlo", mc=McConfig(budget=5000),
                                   conserved=basis)
    assert rate([0.0, 1.0]) == 1.0 and rate.standard_error([0.0, 1.0]) == 0.0
    for n, exact in ((2, 2 / 3), (3, 9 / 7)):
        state = [0.0, float(n)]
        assert abs(rate(state) - exact) <= 3 * rate.standard_error(state)


def test_constrained_start_without_integer_repair_raises():
    # 2x + 3y = 1 (the law of 3X -> 2Y) has no nonnegative integer solution
    class Basis:
        vectors = ((2, 3),)

    with pytest.raises(ModelError, match="supply v_f0"):
        constrained_start(Basis, [1.0], 2, [True, True])


def test_constrained_analytic_binomial(conserved_doc):
    # activation share 1/(1+2) = 1/3: E[Ea | total n] = n/3 exactly. The
    # moment law without its conservation rows has no solution here, and
    # one that reads factorial moments as Poisson gives E[Ea(Ea-1)] = 4
    c = classify(conserved_doc.model, conserved_doc.scaling)
    basis = conserved_basis(c)
    measure = stationary_fast(c, np.zeros(3), mode="analytic",
                              conserved=basis, conserved_values=[6.0])
    assert measure.variant == "moments"
    value, se = measure.expect_mass_action(1.0, [0, 1])
    assert se == 0.0
    assert value == pytest.approx(2.0)
    # second factorial moment of Binomial(6, 1/3): 6*5*(1/3)^2
    value2, _ = measure.expect_mass_action(1.0, [0, 2])
    assert value2 == pytest.approx(30.0 / 9.0)


def test_averaged_rate_two_scale_closed_form(ab_doc):
    c = classify(ab_doc.model, ab_doc.scaling)
    rate = averaged_rate_two_scale(c, 0)
    assert rate.kind == "analytic"
    for v in (0.25, 1.0, 3.0):
        assert rate([v]) == pytest.approx(v / (1 + v), rel=1e-14)
    assert rate.text == "k1*k2*vA/(k3+k1*vA)"


def test_averaged_rate_exact_at_one(ab_doc):
    # kappa = (1,1,1): the reduced rate at v_A = 1 is exactly 1/2
    c = classify(ab_doc.model, ab_doc.scaling)
    rate = averaged_rate_two_scale(c, 0, mode="analytic")
    assert rate([1.0]) == 0.5


def test_averaged_rate_mc_within_3se(ab_doc):
    c = classify(ab_doc.model, ab_doc.scaling)
    analytic = averaged_rate_two_scale(c, 0, mode="analytic")
    mc = averaged_rate_two_scale(c, 0, mode="montecarlo",
                                 mc=McConfig(budget=60_000, seed=8))
    grid = np.linspace(0.2, 2.0, 10)
    for v in grid:
        want = analytic([v])
        got, se = mc([v]), mc.standard_error([v])
        assert abs(got - want) < 3 * se + 1e-3, f"v={v}"


def test_mixed_fast_tier_within_3se():
    # B birth-death at rate 1 with a fast flow dC/dt = B - C: the hybrid
    # estimator samples the path on a grid 20 time units apart, far beyond
    # the unit relaxation time, so its 16 kept samples (budget 20, burn-in
    # 4) are nearly independent, one per batch. The stationary Var C is
    # 1/2, so the SE of the mean is about sqrt(1/2) / 4 = 0.18. The
    # averaged rate of A + C -> 0 built on it is pinned in
    # averaging_parity.json
    doc = parse_document(fx.MIXED_TIER_TEXT)
    c = classify(doc.model, doc.scaling)
    mc = McConfig(budget=20, seed=0)
    measure = stationary_fast(c, np.array([1.0, 0.0, 0.0]), mode="montecarlo", mc=mc)
    assert measure.variant == "empirical" and measure.ess == 16
    assert len(set(measure.batch.tolist())) == 16 and measure.n_events > 0
    value, se = measure.expect(lambda z: z[1])   # E[C] = E[B] = 1
    assert 0.09 < se < 0.36
    assert abs(value - 1.0) < 3 * se


def test_flow_fast_tier_fixed_point():
    # dC/dt = 2 - C settled at its fixed point C = 2 at 1e-12
    # tolerances: exact to about that, with no standard error
    doc = parse_document(fx.FLOW_TIER_TEXT)
    c = classify(doc.model, doc.scaling)
    mc = McConfig(ode=OdeConfig(rel_tol=1e-12, abs_tol=1e-12))
    measure = stationary_fast(c, np.array([1.0, 0.0]), mode="montecarlo", mc=mc)
    assert measure.variant == "pointmass"
    assert measure.point.tolist() == [pytest.approx(2.0, rel=1e-9)]
    rate = averaged_rate_two_scale(c, 2, mode="montecarlo", mc=mc)
    for v in (1.0, 1.5):
        assert rate([v]) == pytest.approx(2.0 * v, rel=1e-9)
        assert rate.standard_error([v]) == 0.0


# Stiff flow-only tier: C and D exchange at rate 100 each way while C is
# born and dies at rate 0.01, so the total S = C + D relaxes by
# S' = 0.01 - 0.005 S, 20000 times slower than the exchange. An explicit
# integration comes within 1e-5 of the fixed point C = D = 1 only after
# about 2000 time units, and a drift bound relative to the flows' sizes
# passes at C = 0.72.
STIFF_FLOW_TIER_TEXT = """\
species A alpha=1
species C alpha=1
species D alpha=1
reaction 0 -> C @ mass-action kappa=0.01 beta=2
reaction C -> 0 @ mass-action kappa=0.01 beta=2
reaction C -> D @ mass-action kappa=100 beta=2
reaction D -> C @ mass-action kappa=100 beta=2
reaction A + C -> 0 @ mass-action kappa=1 beta=1
init A 1
"""

# Bistable flow-only tier: dC/dt = -(C - 1)(C - 2)(C - 3), stable at 1
# and 3 with the unstable fixed point 2 between them. Newton's method
# from C near 2.5 lands on 1, while the path goes to 3.
BISTABLE_FLOW_TIER_TEXT = """\
species A alpha=1
species C alpha=1
reaction 0 -> C @ mass-action kappa=6 beta=2
reaction C -> 0 @ mass-action kappa=11 beta=2
reaction C + C -> C + C + C @ mass-action kappa=6 beta=2
reaction C + C + C -> C + C @ mass-action kappa=1 beta=2
reaction A + C -> 0 @ mass-action kappa=1 beta=1
init A 1
"""

# The bistable C beside dD/dt = 1 - D: (2, 1) is a saddle, which a path
# started at (2.01, 0) first comes closer to.
SADDLE_FLOW_TIER_TEXT = BISTABLE_FLOW_TIER_TEXT.replace("init A 1\n", """\
species D alpha=1
reaction 0 -> D @ mass-action kappa=1 beta=2
reaction D -> 0 @ mass-action kappa=1 beta=2
init A 1
""")


@pytest.mark.parametrize("text,v_f0,point", [
    (STIFF_FLOW_TIER_TEXT, None, [1.0, 1.0]),
    # pure decay from a nonzero start settles at 0
    ("species A alpha=1\nspecies C alpha=1\n"
     "reaction C -> 0 @ mass-action kappa=1 beta=2\n"
     "reaction A + C -> 0 @ mass-action kappa=1 beta=1\n", [5.0], [0.0]),
    (BISTABLE_FLOW_TIER_TEXT, None, [1.0]),
    (BISTABLE_FLOW_TIER_TEXT, [2.2], [3.0]),
    (BISTABLE_FLOW_TIER_TEXT, [10.0], [3.0]),
    (SADDLE_FLOW_TIER_TEXT, [2.01, 0.0], [3.0, 1.0]),
], ids=["stiff", "decay", "bistable-0", "bistable-2.2", "bistable-10", "saddle"])
def test_flow_fast_tier_reaches_its_fixed_point_at_default_tolerances(text, v_f0, point):
    doc = parse_document(text)
    c = classify(doc.model, doc.scaling)
    measure = stationary_fast(c, np.ones(c.network.n_species), mode="montecarlo", v_f0=v_f0)
    assert measure.variant == "pointmass"
    assert measure.point.tolist() == pytest.approx(point, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("text,k,factor", [(fx.FLOW_TIER_TEXT, 2, 2.0),
                                            (STIFF_FLOW_TIER_TEXT, 4, 1.0)],
                         ids=["flow", "stiff"])
def test_flow_fast_tier_settles_at_default_tolerances(text, k, factor):
    # at the default rel_tol of 1e-6 the adaptive step holds the state
    # only about 1e-6 from the fixed point, so the drift never falls to
    # the 1e-9 bound; the fixed point is solved for from the integrated
    # state. A + C -> 0 averages to v_A E[C], with E[C] = 2 and 1.
    doc = parse_document(text)
    rate = averaged_rate_two_scale(classify(doc.model, doc.scaling), k, mode="montecarlo")
    for v in (1.0, 1.5):
        assert rate([v]) == pytest.approx(factor * v, rel=1e-9)
        assert rate.standard_error([v]) == 0.0


def test_averaged_rate_independent_of_fast_unchanged():
    # a slow reaction not involving the fast species passes through
    text = ("species A alpha=1\nspecies B alpha=0\n"
            "reaction A + B -> 0 @ mass-action kappa=1 beta=1\n"
            "reaction 0 -> B @ mass-action kappa=1 beta=1\n"
            "reaction B -> 0 @ mass-action kappa=1 beta=1\n"
            "reaction A -> 0 @ mass-action kappa=0.7 beta=1\n")
    model, scaling = parse_model(text)
    c = classify(model, scaling)
    rate = averaged_rate_two_scale(c, 3)
    assert rate([2.0]) == pytest.approx(0.7 * 2.0, rel=1e-14)


def test_averaged_rate_expression_polynomial():
    # expression slow rate, polynomial in the fast species: Poisson raw
    # moments E[B] = m, E[B^2] = m + m^2 with m = 1/(1 + v_A)
    text = ("species A alpha=1\nspecies B alpha=0\n"
            "reaction A + B -> 0 @ expr A*B beta=1\n"
            "reaction 0 -> B @ mass-action kappa=1 beta=1\n"
            "reaction B -> 0 @ mass-action kappa=1 beta=1\n")
    model, scaling = parse_model(text)
    c = classify(model, scaling)
    with pytest.raises(AnalyticUnavailable):
        # the fast tier itself sees the expression law of reaction 0
        averaged_rate_two_scale(c, 0, mode="analytic")


def test_averaged_rate_expression_slow_polynomial():
    # fast tier pure mass action; only the slow readout is an expression
    text = ("species A alpha=1\nspecies B alpha=0\n"
            "reaction A -> 0 @ expr A*B^2 beta=1\n"
            "reaction 0 -> B @ mass-action kappa=2 beta=1\n"
            "reaction B -> 0 @ mass-action kappa=1 beta=1\n")
    model, scaling = parse_model(text)
    c = classify(model, scaling)
    rate = averaged_rate_two_scale(c, 0, mode="analytic")
    # B ~ Poisson(2): E[B^2] = 2 + 4 = 6
    assert rate([1.5]) == pytest.approx(1.5 * 6.0, rel=1e-12)


def test_three_scale_nested(three_scale_doc):
    c = classify(three_scale_doc.model, three_scale_doc.scaling)
    rate = averaged_rate_three_scale(c, 4, mc=McConfig(budget=40_000, seed=5))
    value, se = rate([1.0]), rate.standard_error([1.0])
    assert se > 0
    assert abs(value - 0.75) < 3 * se + 5e-3


def test_three_scale_inner_config_keeps_the_callers_settings(three_scale_doc, monkeypatch):
    # the inner tier runs at its own budget, seed and ESS threshold and
    # keeps every other field of the caller's McConfig
    import mscrn.averaging as averaging
    seen = []

    def spy(classification, frozen, **kwargs):
        seen.append(kwargs["mc"])
        return stationary_fast(classification, frozen, **kwargs)

    monkeypatch.setattr(averaging, "stationary_fast", spy)
    c = classify(three_scale_doc.model, three_scale_doc.scaling)
    ode = OdeConfig(rel_tol=1e-8)
    rate = averaged_rate_three_scale(c, 4, mc=McConfig(budget=400, seed=5, n_batches=4, ode=ode))
    rate([1.0])
    assert seen
    for mc in seen:
        assert (mc.n_batches, mc.ode) == (4, ode)
        assert (mc.budget, mc.seed, mc.ess_threshold) == (2000, 18, 50)


def test_three_scale_rate_only_slow(three_scale_doc):
    # add nothing: use a synthetic reduced call on a rate that ignores
    # the faster tiers entirely
    text = ("species F alpha=0\nspecies M alpha=0\nspecies S alpha=1\n"
            "reaction M -> M + F @ mass-action kappa=1 beta=1\n"
            "reaction F -> 0 @ mass-action kappa=2 beta=1\n"
            "reaction 0 -> M @ mass-action kappa=3 beta=1/2\n"
            "reaction M -> 0 @ mass-action kappa=1 beta=1/2\n"
            "reaction S -> 0 @ mass-action kappa=0.3 beta=1\n")
    model, scaling = parse_model(text)
    c = classify(model, scaling)
    rate = averaged_rate_three_scale(c, 4)
    assert rate.kind == "analytic"
    assert rate([2.0]) == pytest.approx(0.6, rel=1e-14)
    assert rate.standard_error([2.0]) == 0.0


def test_three_scale_middle_empty_delegates(ab_doc):
    c = classify(ab_doc.model, ab_doc.scaling)
    rate = averaged_rate_three_scale(c, 0)
    assert rate([1.0]) == pytest.approx(0.5)


def test_state_memo_bounded_and_stable():
    calls = []

    def fn(state):
        calls.append(float(state[0]))
        return float(state[0]) ** 2

    memo = StateMemo(fn)
    for x in range(MEMO_SIZE + 40):
        assert memo(np.array([float(x)])) == float(x) ** 2
    assert len(memo.entries) == MEMO_SIZE
    # the oldest state was evicted and is recomputed to the same value
    assert memo(np.array([0.0])) == 0.0
    assert calls.count(0.0) == 2
    assert len(memo.entries) == MEMO_SIZE


def test_rate_and_se_share_one_estimate(ab_doc, monkeypatch):
    from mscrn import averaging
    runs = []
    original = averaging.montecarlo_measure

    def counted(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(averaging, "montecarlo_measure", counted)
    c = classify(ab_doc.model, ab_doc.scaling)
    rate = averaged_rate_two_scale(c, 0, mode="montecarlo",
                                   mc=McConfig(budget=1000, seed=2))
    rate([0.7])
    rate.standard_error([0.7])
    assert len(runs) == 1


def test_occupation_matches_per_visit_dicts():
    # each batch keeps its distinct states in first-visit order, with the
    # weights summed in visit order, exactly as a dict keyed by state
    # tuples accumulates them; an empty batch leaves no rows
    rng = np.random.default_rng(7)
    batches = [(rng.integers(0, 4, (n, 2)).astype(float), rng.random(n))
               for n in (40, 0, 1, 25)]
    states, weights, batch = _occupation(iter(batches), 2)
    for b, (rows, w) in enumerate(batches):
        want = {}
        for row, x in zip(rows, w):
            want[tuple(row)] = want.get(tuple(row), 0.0) + x
        mine = batch == b
        assert [tuple(state) for state in states[mine]] == list(want)
        assert weights[mine].tolist() == list(want.values())
    assert _occupation(iter([]), 3)[0].shape == (0, 3)


def test_empirical_mass_action_matches_per_state_loop():
    # the array form of expect_mass_action over stored samples (the row
    # evaluator) equals the per-state path of expect on the law of
    # mass_action_rate bit for bit: falling factorials of
    # discrete variables (zero below the order), powers of continuous
    # ones, empty and uneven batches
    rng = np.random.default_rng(4)
    sizes = (7, 0, 12, 1, 30)
    states = np.column_stack([rng.integers(0, 5, sum(sizes)).astype(float),
                              rng.random(sum(sizes)) * 3,
                              rng.integers(0, 3, sum(sizes)).astype(float)])
    measure = StationaryMeasure("empirical", states=states, weights=rng.random(sum(sizes)),
                                batch=np.repeat(np.arange(len(sizes)), sizes), ess=50,
                                discrete=[True, False, True])
    assert measure.dim == 3
    for coeff, orders in ((1.7, [2, 2, 1]), (0.3, [0, 3, 0]), (2.0, [0, 0, 0]),
                          (1.0, [1, 1, 4]), (1.3, [3, 1, 2])):
        value, se = measure.expect_mass_action(coeff, orders)
        law = mass_action_rate(coeff, [(j, n, measure.discrete[j])
                                       for j, n in enumerate(orders) if n])
        assert (value, se) == measure.expect(law)
    for discrete in ([True], [True, True]):
        with pytest.raises(NonErgodicSuspected):
            StationaryMeasure("empirical", states=np.empty((0, len(discrete))),
                              weights=np.empty(0), batch=np.empty(0, dtype=int), ess=0,
                              discrete=discrete).expect_mass_action(1.0, [1] * len(discrete))


@pytest.mark.parametrize("field, value", [
    ("budget", 0), ("budget", -5), ("burn_in_frac", 1.0), ("burn_in_frac", 1.5),
    ("burn_in_frac", -0.5), ("burn_in_frac", float("nan")), ("n_batches", 0),
    ("n_batches", 1), ("ess_threshold", -1)])
def test_mc_config_rejects_bad_values(field, value):
    # these raised ZeroDivisionError or a misleading NonErgodicSuspected
    # at the first estimate, or were accepted silently
    with pytest.raises(ModelError, match=field):
        McConfig(**{field: value})
