"""Hybrid jump/flow simulation: flow accuracy, hazard law, conservation.

Oracles: closed-form linear ODE solutions, the exponential law of
constant-rate jumps, the Rayleigh law of a linearly growing hazard, and
the birth-death stationary mean of the titration intermediate.
"""

import numpy as np
import pytest
from scipy import stats as sps

from mscrn.averaging import fast_subsystem
from mscrn.classify import classify, conserved_basis
from mscrn.errors import EventCapExceeded, ModelError, NegativeRate
from mscrn.model import State
from mscrn.pdmp import HybridSystem, OdeConfig, run_ensemble_pdmp, simulate_pdmp
from mscrn.reduce import build_reduced_model
from mscrn.ssa import SimulationConfig


def test_jump_free_linear_ode():
    # dv/dt = k3*g - k4*v with g=1, k3=2, k4=1, v(0)=0:
    # v(t) = 2(1 - exp(-t)); terminal error within 10x relative tolerance
    k3, k4 = 2.0, 1.0
    system = HybridSystem(
        labels=("P",),
        jumps=(),
        flows=(
            (lambda v: k3 * 1.0, np.array([1.0])),
            (lambda v: k4 * v[0], np.array([-1.0])),
        ))
    cfg = OdeConfig(rel_tol=1e-6, abs_tol=1e-9)
    traj = simulate_pdmp(system, [0.0], t_end=1.0, seed=0, ode_config=cfg)
    expected = 2.0 * (1.0 - np.exp(-1.0))
    assert traj.final_state[0] == pytest.approx(expected, rel=1e-5)
    assert traj.event_counts.size == 0


def test_grid_recording_matches_closed_form():
    system = HybridSystem(("P",), (), ((lambda v: 2.0, np.array([1.0])),
                                       (lambda v: v[0], np.array([-1.0]))))
    grid = np.linspace(0.1, 2.0, 8)
    traj = simulate_pdmp(system, [0.0], t_end=2.0, seed=0, record=grid)
    expected = 2.0 * (1.0 - np.exp(-grid))
    assert np.allclose(traj.states[:, 0], expected, rtol=1e-5, atol=1e-8)


def test_constant_rate_interjump_exponential():
    # lambda = 3 constant, no flow: inter-jump gaps are Exp(3);
    # KS test at the 1% level on >= 10^4 samples
    system = HybridSystem(("X",), ((lambda v: 3.0, np.array([1], dtype=np.int64)),), ())
    traj = simulate_pdmp(system, [0.0], t_end=4000.0, seed=5, record="events")
    jump_times = np.array([t for t, _ in traj.event_log])
    assert len(jump_times) >= 10_000
    gaps = np.diff(np.concatenate([[0.0], jump_times]))[:10_000]
    stat = sps.kstest(gaps, "expon", args=(0, 1 / 3.0))
    assert stat.pvalue > 0.01


def test_hazard_integration_rayleigh_law():
    # dv/dt = 1 with jump rate v: hazard t^2/2, first jump ~ Rayleigh(1).
    # The jump counts itself in N and the rate is v while N = 0, so a run
    # stops jumping at its first jump, the only one the law is about
    system = HybridSystem(
        ("V", "N"),
        ((lambda v: v[0] * (v[1] == 0), np.array([0, 1], dtype=np.int64)),),
        ((lambda v: 1.0, np.array([1.0, 0.0])),))
    first_times = []
    for r in range(1200):
        traj = simulate_pdmp(system, [0.0, 0.0], t_end=6.0, seed=1000 + r, record="events")
        assert traj.event_log, "expected at least one jump by t=6"
        first_times.append(traj.event_log[0][0])
    stat = sps.kstest(np.array(first_times), "rayleigh")
    assert stat.pvalue > 0.01


def test_state_dependent_jump_selection():
    # two competing constant-rate jumps 1 and 3: counts split 1:3
    system = HybridSystem(
        ("X",),
        ((lambda v: 1.0, np.array([1], dtype=np.int64)),
         (lambda v: 3.0, np.array([1], dtype=np.int64))),
        ())
    traj = simulate_pdmp(system, [0.0], t_end=3000.0, seed=8)
    total = traj.event_counts.sum()
    frac = traj.event_counts[1] / total
    se = np.sqrt(0.75 * 0.25 / total)
    assert abs(frac - 0.75) < 4 * se


def test_negative_rate_aborts():
    system = HybridSystem(("X",), (), ((lambda v: 1.0, np.array([-1.0])),))
    with pytest.raises(NegativeRate):
        simulate_pdmp(system, [0.05], t_end=10.0, seed=0)


@pytest.mark.parametrize("bad", [-0.5, float("nan")])
def test_jump_rate_checked_at_the_jump_state(bad):
    # a flow X' = X and two jumps of N at rate 1, the second one except at
    # the state where the first jump fires: no Cash-Karp stage visits that
    # state, so only the check of the rates at the jump can raise
    def system(rate):
        return HybridSystem(("N", "X"), ((lambda v: 1.0, np.array([1, 0])),
                                         (rate, np.array([1, 0]))),
                            ((lambda v: v[1], np.array([0.0, 1.0])),))

    calls = []
    simulate_pdmp(system(lambda v: calls.append(tuple(v)) or 1.0), [0.0, 1.0], 2.0, seed=0)
    jump_state = [state for state in calls if state[0] == 0.0][-1]
    assert calls.count(jump_state) == 1
    with pytest.raises(NegativeRate, match=f"jump rate evaluated to {bad}"):
        simulate_pdmp(system(lambda v: bad if tuple(v) == jump_state else 1.0),
                      [0.0, 1.0], 2.0, seed=0)


def test_stiff_flow_rejects_steps_that_leave_orthant():
    # dv/dt = -400 v^2 from v = 3 has v(t) = 1/(1/3 + 400 t) > 0; the
    # first trial step's stages overshoot below zero and must shrink the
    # step rather than abort the run
    system = HybridSystem(("C",), (), ((lambda v: 200.0 * v[0] ** 2, np.array([-2.0])),))
    grid = np.linspace(0.1, 0.5, 5)
    traj = simulate_pdmp(system, [3.0], t_end=0.5, seed=0, record=grid)
    assert traj.states[:, 0] == pytest.approx(1 / (1 / 3 + 400 * grid), rel=1e-5)


@pytest.mark.parametrize("rate, jump, error", [
    (lambda v: 1.0, -1, NegativeRate),              # leaves the orthant
    (lambda v: -1.0, 1, NegativeRate),              # negative rate
    (lambda v: float("nan"), 1, NegativeRate),      # non-finite rate
    (lambda v: 1e6, 1, EventCapExceeded),           # event cap
])
def test_pure_jump_checks(rate, jump, error):
    system = HybridSystem(("X",), ((rate, np.array([jump], dtype=np.int64)),), ())
    with pytest.raises(error):
        simulate_pdmp(system, [2.0], t_end=10.0, seed=0, max_events=100)


@pytest.mark.parametrize("cap", [0, -3, 2.5, "10", None])
def test_bad_event_cap_rejected(cap):
    # the cap is checked before the run starts, so no jump fires first
    jump = HybridSystem(("X",), ((lambda v: 1.0, np.array([1], dtype=np.int64)),), ())
    flow = HybridSystem(("X",), ((lambda v: 1.0, np.array([1], dtype=np.int64)),),
                        ((lambda v: -v[0], np.array([1.0])),))
    for system in (jump, flow):
        with pytest.raises(ModelError, match="max_events must be an integer >= 1"):
            simulate_pdmp(system, [2.0], t_end=10.0, seed=0, max_events=cap)
        assert simulate_pdmp(system, [2.0], t_end=0.0, seed=0, max_events=1).final_state[0] == 2.0


def test_conditional_fast_birth_death_mean(ab_doc):
    # fast intermediate given v_A = 1: birth 1, death (1+1)B,
    # stationary mean 1/(1+1) = 0.5; batch-means error bar
    c = classify(ab_doc.model, ab_doc.scaling)
    frozen = np.array([1.0, 0.0])
    traj = simulate_pdmp(fast_subsystem(c, frozen), [0.0], t_end=20_000.0, seed=3,
                         record="events")
    times = np.concatenate([[0.0], traj.times[1:]])
    values = traj.states[:-1, 0]
    dt = np.diff(traj.times)
    start = np.searchsorted(traj.times[:-1], 500.0)
    dt, values = dt[start:], values[start:]
    batches = np.array_split(np.arange(len(dt)), 20)
    means = np.array([np.sum(values[b] * dt[b]) / np.sum(dt[b]) for b in batches])
    estimate = means.mean()
    se = means.std(ddof=1) / np.sqrt(len(means))
    assert abs(estimate - 0.5) < 3 * se + 1e-3


def test_conditional_fast_zero_rates_constant(conserved_doc):
    # freezing the context of a fast pair with nothing to do: empty jump
    # activity when rates vanish (all molecules absent)
    c = classify(conserved_doc.model, conserved_doc.scaling)
    frozen = np.zeros(3)
    traj = simulate_pdmp(fast_subsystem(c, frozen), [0.0, 0.0], t_end=5.0, seed=0)
    assert traj.event_counts.sum() == 0
    assert np.array_equal(traj.final_state, [0.0, 0.0])


def test_conditional_fast_conserves_theta(conserved_doc):
    # activation/deactivation pair: E + Ea exactly constant along the path
    c = classify(conserved_doc.model, conserved_doc.scaling)
    basis = conserved_basis(c)
    assert basis.vectors == ((1, 1),)
    frozen = np.array([0.0, 0.0, 0.0])
    traj = simulate_pdmp(fast_subsystem(c, frozen), [5.0, 2.0], t_end=50.0, seed=4,
                         record="events")
    assert traj.event_counts.sum() > 100
    totals = traj.states @ np.array([1.0, 1.0])
    assert np.all(totals == 7.0)


def test_pure_jump_engine_matches_ssa():
    # the hybrid engine's pure-jump path and the stochastic engine are
    # independent implementations of the same chain: cross-validate the
    # mean of a birth-death model at t=1 (exact mean 5(1-e^-1))
    from mscrn import rng as rng_mod
    from mscrn.parser import parse_model
    from mscrn.ssa import SimulationConfig, run_ensemble
    from mscrn.model import State

    text = ("species X alpha=0\n"
            "reaction 0 -> X @ mass-action kappa=5\n"
            "reaction X -> 0 @ mass-action kappa=1\n")
    model, scaling = parse_model(text)
    cfg = SimulationConfig(N=1, t_end=1.0, seed=31, record=[1.0])
    ssa_stats = run_ensemble(model, scaling, cfg, 4000, ["X"],
                             x0=State(np.array([0.0])))

    system = HybridSystem(
        ("X",),
        ((lambda v: 5.0, np.array([1], dtype=np.int64)),
         (lambda v: v[0], np.array([-1], dtype=np.int64))),
        ())
    finals = np.empty(4000)
    for r in range(4000):
        traj = simulate_pdmp(system, [0.0], t_end=1.0, rng=rng_mod.stream(77, r))
        finals[r] = traj.final_state[0]
    exact = 5 * (1 - np.exp(-1))
    se_ssa = ssa_stats.standard_error()[0, 0]
    se_pdmp = finals.std(ddof=1) / np.sqrt(len(finals))
    assert abs(ssa_stats.mean[0, 0] - exact) < 3 * se_ssa
    assert abs(finals.mean() - exact) < 3 * se_pdmp


def test_reduced_gene_limit_system(gene_doc):
    system = build_reduced_model(gene_doc.model, gene_doc.scaling).to_hybrid()
    assert system.labels == ("G", "Ga", "P")
    assert len(system.jumps) == 2   # activation, deactivation
    assert len(system.flows) == 2   # production, degradation
    jump_vectors = sorted(tuple(vec) for _, vec in system.jumps)
    assert jump_vectors == [(-1, 1, 0), (1, -1, 0)]
    flow_vectors = sorted(tuple(vec) for _, vec in system.flows)
    assert flow_vectors == [(0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]


def test_gene_limit_flow_between_jumps(gene_doc):
    # with the gene frozen active (jumps suppressed by zero rates),
    # the protein follows v' = k3 - k4 v exactly
    system = build_reduced_model(gene_doc.model, gene_doc.scaling).to_hybrid()
    system.jumps = tuple((lambda v: 0.0, vec) for _, vec in system.jumps)
    traj = simulate_pdmp(system, [0.0, 1.0, 0.0], t_end=1.0, seed=0)
    assert traj.final_state[2] == pytest.approx(2 * (1 - np.exp(-1)), rel=1e-5)


# -- inputs rejected before any work -----------------------------------------

def _counted_system(calls):
    """dv/dt = 1 with jump rate 1; every rate evaluation is counted."""
    def rate(v):
        calls.append(1)
        return 1.0
    return HybridSystem(("X", "V"), ((rate, np.array([1, 0], dtype=np.int64)),),
                        ((rate, np.array([0.0, 1.0])),))


@pytest.mark.parametrize("t_end", [float("inf"), float("nan"), -1.0])
def test_t_end_must_be_finite_and_nonnegative(t_end):
    # an infinite horizon never returned, even under an event cap, and NaN
    # or negative ones returned the initial state; the stochastic engine's
    # configuration applies the same rule
    calls = []
    system = _counted_system(calls)
    with pytest.raises(ModelError, match="t_end"):
        simulate_pdmp(system, [0.0, 1.0], t_end, max_events=50)
    with pytest.raises(ModelError, match="t_end"):
        run_ensemble_pdmp(system, [0.0, 1.0], t_end, 0, 3, [1.0], np.eye(2))
    with pytest.raises(ModelError, match="t_end"):
        SimulationConfig(N=1, t_end=t_end)
    assert not calls


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_v0_must_be_finite(bad):
    # a NaN coordinate passed the sign check and the run never returned
    calls = []
    system = _counted_system(calls)
    with pytest.raises(ModelError, match="finite"):
        simulate_pdmp(system, [0.0, bad], 1.0)
    with pytest.raises(ModelError, match="finite"):
        run_ensemble_pdmp(system, [0.0, bad], 1.0, 0, 3, [1.0], np.eye(2))
    assert not calls


@pytest.mark.parametrize("flows", [False, True])
def test_unknown_record_mode_raises_model_error(flows):
    # a misspelt mode was read as a grid and raised numpy's ValueError;
    # both engines now share one record parser
    system = HybridSystem(("x",), ((lambda v: 1.0, np.array([1])),),
                          ((lambda v: 1.0, np.array([1.0])),) if flows else ())
    with pytest.raises(ModelError, match="unknown record mode 'evnts'"):
        simulate_pdmp(system, [0.0], 1.0, record="evnts")


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "max_step", "min_step"])
def test_ode_config_rejects_nan(field):
    with pytest.raises(ModelError, match=field):
        OdeConfig(**{field: float("nan")})
    OdeConfig(max_step=float("inf"))


@pytest.mark.parametrize("weights", [np.eye(3), np.ones(3), np.ones((1, 2, 2)), []])
def test_ensemble_weights_must_match_the_state(weights):
    # a wrong shape raised numpy's ValueError after every replica had run
    calls = []
    with pytest.raises(ModelError, match="weights"):
        run_ensemble_pdmp(_counted_system(calls), [0.0, 1.0], 1.0, 0, 3, [1.0], weights)
    assert not calls


# -- properties over hypothesis-drawn hybrid systems ------------------------

def _draw_hybrid(data):
    """A hybrid system with mass-action rates: integer jumps on one or two
    discrete coordinates, drifts on one or two continuous ones. A reaction
    lowers a coordinate only by what its reactants hold there, so exact
    paths stay in the nonnegative orthant; a flow that raises a continuous
    coordinate is at most linear in the continuous ones, so no flow blows
    up in finite time."""
    from hypothesis import strategies as st
    from mscrn.model import mass_action_rate

    n_disc = data.draw(st.integers(1, 2))
    n_cont = data.draw(st.integers(1, 2))
    dim = n_disc + n_cont
    alphas = (0,) * n_disc + (1,) * n_cont
    orders = st.lists(st.integers(0, 2), min_size=dim, max_size=dim)

    def reaction(first, last):
        reactants = data.draw(orders)
        products = data.draw(orders)
        column = np.zeros(dim, dtype=np.int64)
        column[first:last] = np.subtract(products, reactants)[first:last]
        if not column.any():
            column[first] = 1
        terms = tuple((i, n) for i, n in enumerate(reactants) if n)
        kappa = data.draw(st.floats(0.1, 2.0))
        return terms, column, mass_action_rate(kappa, [(i, n, alphas[i] == 0) for i, n in terms])

    jumps = []
    for _ in range(data.draw(st.integers(1, 3))):
        _, column, rate = reaction(0, n_disc)
        jumps.append((rate, column))
    flows = []
    for _ in range(data.draw(st.integers(1, 3))):
        terms, column, rate = reaction(n_disc, dim)
        if (column > 0).any() and sum(n for i, n in terms if i >= n_disc) > 1:
            column = np.minimum(column, 0)
            if not column.any():
                continue
        flows.append((rate, column.astype(float)))
    if not flows:
        flows.append((lambda v: 1.0, np.eye(dim)[n_disc]))
    v0 = [float(data.draw(st.integers(0, 4))) for _ in range(n_disc)] \
        + [data.draw(st.floats(0.0, 3.0)) for _ in range(n_cont)]
    labels = tuple(f"x{i}" for i in range(dim))
    return HybridSystem(labels, tuple(jumps), tuple(flows)), v0, n_disc


def _property(check, max_examples=25):
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    return settings(max_examples=max_examples, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])(
        given(data=st.data())(check))


def test_hybrid_paths_stay_in_orthant():
    # every recorded state of a hybrid path is nonnegative up to the
    # engine's rounding tolerance, and discrete coordinates stay integers
    tol = 10 * OdeConfig().abs_tol

    def check(data):
        from hypothesis import strategies as st
        system, v0, n_disc = _draw_hybrid(data)
        seed = data.draw(st.integers(0, 999))
        for record in ("events", np.linspace(0.1, 0.5, 5)):
            try:
                traj = simulate_pdmp(system, v0, t_end=0.5, seed=seed, record=record,
                                     max_events=2000)
            except EventCapExceeded:
                return
            states = np.vstack([traj.states, traj.final_state])
            assert states.min() >= -tol
            assert np.array_equal(states[:, :n_disc], np.rint(states[:, :n_disc]))

    _property(check)()


def test_hybrid_replay_identical():
    # the same system, start and seed give the same jumps, times and states
    def check(data):
        from hypothesis import strategies as st
        system, v0, _ = _draw_hybrid(data)
        seed = data.draw(st.integers(0, 999))
        runs = []
        for _ in range(2):
            try:
                runs.append(simulate_pdmp(system, v0, t_end=0.5, seed=seed,
                                          record="events", max_events=2000))
            except EventCapExceeded:
                return
        first, second = runs
        assert first.event_log == second.event_log
        assert np.array_equal(first.states, second.states)
        assert np.array_equal(first.final_state, second.final_state)
        assert np.array_equal(first.event_counts, second.event_counts)

    _property(check)()


def test_conserved_coordinates_move_only_through_conserved_reactions(conserved_doc):
    # CONSERVED reduced to (S, c1 = E + Ea): along every path, c1 changes
    # only when a reaction of the conserved set fires, and each jump moves
    # the state by its reaction's column
    reduced = build_reduced_model(conserved_doc.model, conserved_doc.scaling)
    system = reduced.to_hybrid()
    n_slow = len(reduced.classification.slow.rows)
    k_c = reduced.conserved.k_c

    def check(data):
        from hypothesis import strategies as st
        v0 = [float(data.draw(st.integers(0, 5))), float(data.draw(st.integers(0, 8)))]
        traj = simulate_pdmp(system, v0, t_end=data.draw(st.floats(0.5, 3.0)),
                             seed=data.draw(st.integers(0, 999)), record="events")
        for step, (_, channel) in enumerate(traj.event_log):
            k, column = reduced.jump_reactions[channel]
            delta = traj.states[step + 1] - traj.states[step]
            assert np.array_equal(delta, column)
            if k not in k_c:
                assert not delta[n_slow:].any()

    _property(check, max_examples=30)()
