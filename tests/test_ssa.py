"""Exactness, determinism and conservation checks for the stochastic engine.

Statistical oracles are closed-form moments of first-order networks
(Poisson process mean, linear death expectation, two-state occupancy).
"""

import numpy as np
import pytest

from mscrn.errors import EventCapExceeded, ModelError, RateEvaluationError
from mscrn.model import ScalingSpec, State
from mscrn.parser import parse_document, parse_model
from mscrn.pdmp import HybridSystem, run_ensemble_pdmp, simulate_pdmp
from mscrn.ssa import (SimulationConfig, observable_weights, run_ensemble,
                       simulate, simulate_spatial)

BIRTH_TEXT = "species A alpha=0\nreaction 0 -> A @ mass-action kappa=5\n"
DEATH_TEXT = "species A alpha=0\nreaction A -> 0 @ mass-action kappa=1\n"


def test_birth_process_poisson_mean():
    # Poisson process: E A(t) = kappa * t = 10 at t=2
    model, scaling = parse_model(BIRTH_TEXT)
    cfg = SimulationConfig(N=1, t_end=2.0, seed=7, record=[2.0])
    stats = run_ensemble(model, scaling, cfg, replicas=10_000, observables=["A"],
                         x0=State(np.array([0.0])))
    se = stats.standard_error()[0, 0]
    assert abs(stats.mean[0, 0] - 10.0) < 3 * se
    assert se < 0.05  # sanity: enough replicas to make the test meaningful


def test_death_process_mean_curve():
    # E A(t) = 100 exp(-t) for unit per-capita death
    model, scaling = parse_model(DEATH_TEXT)
    grid = [0.25, 0.5, 1.0]
    cfg = SimulationConfig(N=1, t_end=1.0, seed=11, record=grid)
    stats = run_ensemble(model, scaling, cfg, replicas=10_000, observables=["A"],
                         x0=State(np.array([100.0])))
    for j, t in enumerate(grid):
        expected = 100.0 * np.exp(-t)
        se = stats.standard_error()[0, j]
        assert abs(stats.mean[0, j] - expected) < 3 * se, f"t={t}"


def test_absorbing_state_single_snapshot():
    model, scaling = parse_model(DEATH_TEXT)
    cfg = SimulationConfig(N=1, t_end=5.0, seed=1)
    traj = simulate(model, scaling, cfg, State(np.array([0.0])))
    assert len(traj.times) == 1
    assert traj.t_end == 5.0
    assert traj.final_state[0] == 0.0


def test_determinism_same_seed():
    model, scaling = parse_model(DEATH_TEXT)
    cfg = SimulationConfig(N=1, t_end=1.0, seed=42, record="events")
    t1 = simulate(model, scaling, cfg, State(np.array([50.0])))
    t2 = simulate(model, scaling, cfg, State(np.array([50.0])))
    assert t1.event_log == t2.event_log
    assert np.array_equal(t1.states, t2.states)


def test_ensemble_determinism(ab_doc):
    cfg = SimulationConfig(N=50, t_end=0.5, seed=3, record=[0.25, 0.5])
    x0 = State(ab_doc.initial_scaled(), scaled=True)
    s1 = run_ensemble(ab_doc.model, ab_doc.scaling, cfg, 20, ["A", "B"], x0=x0)
    s2 = run_ensemble(ab_doc.model, ab_doc.scaling, cfg, 20, ["A", "B"], x0=x0)
    assert np.array_equal(s1.mean, s2.mean)
    assert np.array_equal(s1.variance, s2.variance)


def test_single_replica_equals_trajectory(ab_doc):
    grid = [0.2, 0.4]
    cfg = SimulationConfig(N=30, t_end=0.4, seed=9, record=grid)
    x0 = State(ab_doc.initial_scaled(), scaled=True)
    stats = run_ensemble(ab_doc.model, ab_doc.scaling, cfg, 1, ["A"], x0=x0)
    from mscrn import rng as rng_mod
    from mscrn.ssa import _simulate
    traj = _simulate(ab_doc.model, ab_doc.scaling, cfg, x0, rng=rng_mod.stream(9, 0))
    labels, weights = observable_weights(ab_doc.model, ["A"])
    assert np.allclose(stats.mean, weights @ traj.states.T)
    assert np.all(stats.variance == 0)


def test_replay_identity(ab_doc):
    # zeta @ event_counts reconstructs the raw state delta exactly
    cfg = SimulationConfig(N=40, t_end=0.7, seed=5, record="events")
    x0 = State(ab_doc.initial_scaled(), scaled=True)
    traj = simulate(ab_doc.model, ab_doc.scaling, cfg, x0)
    zeta = ab_doc.model.stoichiometric_matrix()
    alphas = np.array([1.0, 0.0])
    raw0 = np.array([40.0, 0.0])
    raw_end = traj.final_state * (40.0 ** alphas)
    delta = zeta @ traj.event_counts
    assert np.allclose(raw0 + delta, np.rint(raw_end))


def test_event_cap():
    model, scaling = parse_model(BIRTH_TEXT)
    cfg = SimulationConfig(N=1, t_end=100.0, seed=0, max_events=10)
    with pytest.raises(EventCapExceeded):
        simulate(model, scaling, cfg, State(np.array([0.0])))


def test_scaled_raw_initial_consistency(ab_doc):
    # scaled init v_A=1 at N=25 must give raw x_A=25
    cfg = SimulationConfig(N=25, t_end=0.0, seed=0)
    x0 = State(ab_doc.initial_scaled(), scaled=True)
    traj = simulate(ab_doc.model, ab_doc.scaling, cfg, x0)
    assert traj.final_state[0] == pytest.approx(1.0)
    with pytest.raises(ModelError):
        bad = State(np.array([0.5, 0.0]), scaled=True)
        simulate(ab_doc.model, ab_doc.scaling, SimulationConfig(N=3, t_end=0.0, seed=0), bad)


def test_movement_occupancy_fraction(movement_doc):
    # two-state chain, rates 1 and 2: stationary occupancy (2/3, 1/3);
    # time-averaged fraction over the event log, batch-means error bar
    model, scaling = movement_doc.model, movement_doc.scaling
    x0 = State(np.array([[1000.0, 0.0]]), scaled=True)
    cfg = SimulationConfig(N=1, t_end=80.0, seed=21, record="events")
    traj = simulate_spatial(model, scaling, cfg, x0)
    assert len(traj.event_log) > 100_000
    times = traj.times
    occupancy = traj.states[:, 0, 0] / 1000.0
    # discard burn-in, integrate piecewise-constant path
    start = np.searchsorted(times, 10.0)
    dt = np.diff(times[start:])
    values = occupancy[start:-1]
    batches = np.array_split(np.arange(len(dt)), 20)
    batch_means = np.array([np.sum(values[b] * dt[b]) / np.sum(dt[b]) for b in batches])
    estimate = batch_means.mean()
    se = batch_means.std(ddof=1) / np.sqrt(len(batch_means))
    assert abs(estimate - 2.0 / 3.0) < 3 * se + 1e-4


def test_movement_conserves_totals(movement_doc):
    # every snapshot keeps the per-species total exactly constant
    x0 = State(np.array([[700.0, 300.0]]), scaled=True)
    cfg = SimulationConfig(N=1, t_end=5.0, seed=2, record="events")
    traj = simulate_spatial(movement_doc.model, movement_doc.scaling, cfg, x0)
    sums = traj.states.sum(axis=2)
    assert np.all(sums == 1000.0)


def test_spatial_homogeneous_sums_match_nonspatial():
    # Fast uniform mixing with homogeneity-matched constants: the sum
    # process is statistically indistinguishable from the one-compartment
    # model (Welch two-sample test on S_A at t=1).
    spatial_text = (
        "species A alpha=1 eta=1/4\n"
        "species B alpha=0 eta=1/4\n"
        "compartments d1 d2\n"
        "reaction A + B -> 0 @ mass-action kappa=2,2 beta=1\n"
        "reaction 0 -> B @ mass-action kappa=0.5,0.5 beta=1\n"
        "reaction B -> 0 @ mass-action kappa=1,1 beta=1\n"
        "move A from d1 to d2 rate 1\nmove A from d2 to d1 rate 1\n"
        "move B from d1 to d2 rate 1\nmove B from d2 to d1 rate 1\n")
    spatial_doc = parse_document(spatial_text)
    N = 200
    replicas = 600
    cfg = SimulationConfig(N=N, t_end=1.0, seed=17, record=[1.0])
    x0_sp = State(np.array([[0.5, 0.5], [0.0, 0.0]]), scaled=True)
    sp = run_ensemble(spatial_doc.model, spatial_doc.scaling, cfg, replicas,
                      ["A"], x0=x0_sp)

    from conftest import AB_TEXT
    ab = parse_document(AB_TEXT)
    x0_ns = State(np.array([1.0, 0.0]), scaled=True)
    ns = run_ensemble(ab.model, ab.scaling, cfg, replicas, ["A"], x0=x0_ns)

    diff = sp.mean[0, 0] - ns.mean[0, 0]
    se = np.sqrt(sp.variance[0, 0] / replicas + ns.variance[0, 0] / replicas)
    assert abs(diff) < 3 * se


def test_quantiles_monotone_and_variance_nonneg(ab_doc):
    cfg = SimulationConfig(N=50, t_end=1.0, seed=6, record=[0.5, 1.0])
    x0 = State(ab_doc.initial_scaled(), scaled=True)
    stats = run_ensemble(ab_doc.model, ab_doc.scaling, cfg, 200, ["A", "B"], x0=x0)
    assert np.all(stats.variance >= 0)
    qs = sorted(stats.quantiles)
    for lo, hi in zip(qs, qs[1:]):
        assert np.all(stats.quantiles[lo] <= stats.quantiles[hi] + 1e-12)


def test_conserved_total_changes_only_outside_fast_set(conserved_doc):
    # theta = (1,1) on (E, Ea): the total moves only at firings of the
    # slow injection/removal channels, never at fast conversions
    from mscrn.classify import classify, conserved_basis
    c = classify(conserved_doc.model, conserved_doc.scaling)
    basis = conserved_basis(c)
    k_fast = c.k_sets["fast"]
    cfg = SimulationConfig(N=40, t_end=0.5, seed=12, record="events")
    x0 = State(np.array([3.0, 0.0, 0.0]), scaled=True)
    traj = simulate(conserved_doc.model, conserved_doc.scaling, cfg, x0)
    assert traj.event_counts.sum() > 100
    theta = np.zeros(3)
    for j, i in enumerate(basis.fast_rows):
        theta[i] = basis.vectors[0][j]
    totals = traj.states @ theta
    for step, (t, channel) in enumerate(traj.event_log):
        k = traj.channels[channel][1][0]
        delta = totals[step + 1] - totals[step]
        if k in k_fast:
            assert delta == 0.0
        # (slow channels may or may not change the total)


def test_throughput_smoke_benchmark(ab_doc, capsys):
    # performance contract: the titration fixture at N=1000 should stream
    # events quickly; this is a smoke measurement, not a hard gate
    import time
    cfg = SimulationConfig(N=1000, t_end=2.0, seed=99)
    x0 = State(ab_doc.initial_scaled(), scaled=True)
    start = time.perf_counter()
    traj = simulate(ab_doc.model, ab_doc.scaling, cfg, x0)
    elapsed = time.perf_counter() - start
    events = int(traj.event_counts.sum())
    rate = events / elapsed
    with capsys.disabled():
        print(f"\n[benchmark] N=1000 titration: {events} events, "
              f"{rate:,.0f} events/s")
    assert rate > 2e4   # loose floor; the target is 1e5 on desk hardware


# DEATH_TEXT as a hybrid system
DEATH_SYSTEM = HybridSystem(("A",), ((lambda v: v[0], np.array([-1], dtype=np.int64)),), ())


def _simulate_both(engine, record):
    """Simulate the death chain from A = 3 to t = 1 on either engine with
    the given ``record``."""
    if engine == "ssa":
        model, scaling = parse_model(DEATH_TEXT)
        cfg = SimulationConfig(N=1, t_end=1.0, seed=0, record=record)
        return simulate(model, scaling, cfg, State(np.array([3.0])))
    return simulate_pdmp(DEATH_SYSTEM, [3.0], t_end=1.0, seed=0, record=record)


@pytest.mark.parametrize("engine", ["ssa", "pdmp"])
def test_record_grid_rules_shared_by_both_engines(engine):
    # an empty grid records one snapshot, of the initial state at t = 0,
    # as no grid does; a grid that is not one-dimensional is a model error
    for record in ([], None):
        traj = _simulate_both(engine, record)
        assert list(traj.times) == [0.0]
        assert traj.states.shape == (1, 1)
        assert traj.states[0] == [3.0]
        assert traj.final_state[0] < 3.0
    with pytest.raises(ModelError):
        _simulate_both(engine, [[0.5, 1.0]])


@pytest.mark.parametrize("ensemble", ["ssa", "pdmp"])
@pytest.mark.parametrize("replicas, grid", [(0, [0.5, 1.0]), (2, [])])
def test_ensembles_reject_no_replicas_or_no_grid(ensemble, replicas, grid):
    if ensemble == "ssa":
        model, scaling = parse_model(DEATH_TEXT)
        cfg = SimulationConfig(N=1, t_end=1.0, seed=0)
        run = lambda: run_ensemble(model, scaling, cfg, replicas, ["A"], grid=grid,
                                   x0=State(np.array([3.0])))
    else:
        run = lambda: run_ensemble_pdmp(DEATH_SYSTEM, [3.0], 1.0, 0, replicas, grid,
                                        np.eye(1))
    with pytest.raises(ModelError):
        run()


def test_replay_identity_random_networks():
    # zeta @ event_counts == raw state delta, for arbitrary small networks
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from mscrn.model import MassAction, Network, Reaction, Species

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def run(data):
        n_species = data.draw(st.integers(1, 3))
        species = [Species(f"S{i}") for i in range(n_species)]
        n_reactions = data.draw(st.integers(1, 4))
        reactions = []
        for _ in range(n_reactions):
            reactants = {i: data.draw(st.integers(0, 2)) for i in range(n_species)}
            products = {i: data.draw(st.integers(0, 2)) for i in range(n_species)}
            if not any(reactants.values()) and not any(products.values()):
                products[0] = 1
            kappa = data.draw(st.floats(0.1, 3.0))
            reactions.append(Reaction.make(reactants, products,
                                           rate_law=MassAction(kappa)))
        net = Network(species, reactions)
        x0 = np.array([float(data.draw(st.integers(0, 6))) for _ in range(n_species)])
        cfg = SimulationConfig(N=1, t_end=0.5, seed=data.draw(st.integers(0, 999)),
                               max_events=5000)
        try:
            traj = simulate(net, ScalingSpec(), cfg, State(x0.copy()))
        except EventCapExceeded:
            return
        delta = net.stoichiometric_matrix() @ traj.event_counts
        assert np.array_equal(x0 + delta, traj.final_state)

    run()


def test_expression_law_simulation():
    # expression and mass-action forms of the same rate agree in mean
    expr_text = ("species A alpha=0\n"
                 "reaction A -> 0 @ expr 1.0*A beta=0\n")
    model, scaling = parse_model(expr_text)
    cfg = SimulationConfig(N=1, t_end=1.0, seed=13, record=[1.0])
    stats = run_ensemble(model, scaling, cfg, 4000, ["A"], x0=State(np.array([100.0])))
    se = stats.standard_error()[0, 0]
    assert abs(stats.mean[0, 0] - 100.0 * np.exp(-1)) < 3 * se


def test_negative_mass_action_propensity_raises():
    # the expression law fires whatever the count, so the continuous A is
    # drawn below zero; the mass-action rate of A -> B then turns negative
    # and the run stops instead of choosing among negative propensities
    model, scaling = parse_model("species A alpha=1\nspecies B alpha=0\n"
                                 "reaction A -> 0 @ expr 1 beta=1\n"
                                 "reaction A -> B @ mass-action kappa=1 beta=0\n")
    cfg = SimulationConfig(N=2, t_end=10.0, seed=0)
    with pytest.raises(RateEvaluationError, match="negative mass-action"):
        simulate(model, scaling, cfg, State(np.array([1.0, 0.0])))


def test_capped_event_raises_as_recorded():
    # the second event draws the continuous A below zero, so its refresh
    # meets a negative propensity: capped at that event, the cap is raised,
    # capped one later, the refresh's error (recorded at commit be52e5b)
    model, scaling = parse_model("species A alpha=1\nspecies B alpha=0\n"
                                 "reaction A -> 0 @ expr 1 beta=1\n"
                                 "reaction A -> B @ mass-action kappa=1 beta=0\n")
    recorded = {2: (EventCapExceeded, "exceeded 2 events at t=0.42621706053125913"),
                3: (RateEvaluationError, "negative mass-action propensity -0.5")}
    for cap, (error, message) in recorded.items():
        cfg = SimulationConfig(N=2, t_end=10.0, seed=0, record="events", max_events=cap)
        with pytest.raises(error) as info:
            simulate(model, scaling, cfg, State(np.array([1.0, 0.0])))
        assert str(info.value) == message


def test_expression_law_stops_when_its_discrete_reactant_runs_out():
    # A -> 0 at the constant expression rate 1 consumes the discrete A:
    # the channel closes at A = 0 instead of drawing A below zero
    model, scaling = parse_model("species A alpha=0\nreaction A -> 0 @ expr 1 beta=0\n")
    cfg = SimulationConfig(N=10, t_end=5.0, seed=0, record=[1.0, 3.0, 5.0])
    traj = simulate(model, scaling, cfg, State(np.array([2.0])))
    assert traj.states[:, 0].tolist() == [2.0, 0.0, 0.0]
    assert traj.event_counts.tolist() == [2]
    # an order-2 law reopens when births bring A back to 2: its channel
    # reads A although the law does not, and fires only at A >= 2
    model, scaling = parse_model("species A alpha=0\n"
                                 "reaction 0 -> A @ mass-action kappa=1 beta=0\n"
                                 "reaction A + A -> 0 @ expr 5 beta=0\n")
    cfg = SimulationConfig(N=1, t_end=20.0, seed=3, record="events")
    traj = simulate(model, scaling, cfg, State(np.array([0.0])))
    before = traj.states[:-1, 0]
    chosen = np.array([c for _, c in traj.event_log])
    assert traj.event_counts[1] >= 5
    assert before[chosen == 1].min() >= 2 and traj.states.min() >= 0
