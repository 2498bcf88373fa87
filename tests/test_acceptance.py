"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its runtime and asserting the stated tolerance.

Reaction ids are 0-based throughout the package; the golden reaction
sets below are the 1-based sets from the design notes shifted by one.
"""

import time

import numpy as np
import pytest
from scipy import stats as sps

from mscrn.averaging import (McConfig, averaged_rate_two_scale, fast_subsystem,
                             product_measure)
from mscrn.classify import classify, conserved_basis
from mscrn.model import State
from mscrn.parser import parse_document
from mscrn.pdmp import HybridSystem, OdeConfig, simulate_pdmp
from mscrn.spatial_cases import averaged_rate_spatial
from mscrn.ssa import SimulationConfig, simulate
from mscrn.verify import verify_convergence

import conftest as fx


class _Timer:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.1f}s, limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s ({elapsed:.1f}s)"


def test_criterion_1_classification_golden(gene_doc, ab_doc):
    with _Timer("1 classification golden", 1.0):
        c = classify(gene_doc.model, gene_doc.scaling)
        idx = gene_doc.model.index
        assert c.kind == "single"
        assert c.i_circ == {idx["G"], idx["Ga"]}
        assert c.i_bullet == {idx["P"]}
        assert c.k_sets["star_circ"] == {0, 1}
        assert c.k_sets["star_bullet"] == {2, 3}
        assert np.array_equal(c.star.matrix,
                              [[-1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, -1]])
        assert np.array_equal(c.star.matrix, gene_doc.model.stoichiometric_matrix())

        c2 = classify(ab_doc.model, ab_doc.scaling)
        idx2 = ab_doc.model.index
        assert c2.kind == "two"
        assert c2.i_fast == {idx2["B"]}
        assert c2.i_slow == {idx2["A"]}
        assert c2.k_sets["fast"] == {0, 1, 2}
        assert c2.k_sets["slow"] == {0}
        assert np.array_equal(c2.fast.matrix, [[-1, 1, -1]])
        assert conserved_basis(c2).empty


def test_criterion_2_averaged_rate_oracle(ab_doc):
    with _Timer("2 averaged-rate oracle", 30.0):
        c = classify(ab_doc.model, ab_doc.scaling)
        analytic = averaged_rate_two_scale(c, 0, mode="analytic")
        assert analytic([1.0]) == 0.5   # exact
        mc = averaged_rate_two_scale(c, 0, mode="montecarlo",
                                     mc=McConfig(budget=1_000_000, seed=42))
        value, se = mc([1.0]), mc.standard_error([1.0])
        assert se > 0
        assert abs(value - 0.5) <= 3 * se


def test_criterion_3_spatial_case_formulas(spatial_ab_doc, spatial_ab_homog_doc):
    with _Timer("3 spatial case formulas", 10.0):
        c = classify(spatial_ab_doc.model, spatial_ab_doc.scaling)
        pi_a = np.array([2 / 3, 1 / 3])
        pi_b = np.array([0.5, 0.5])
        k1, k2, k3 = np.array([1.0, 2.0]), np.array([1.5, 0.5]), np.array([0.7, 1.3])
        kbar1 = (k1 * pi_a * pi_b).sum()
        kbar2 = k2.sum()
        kbar3 = (k3 * pi_b).sum()
        grid = [0.25, 0.5, 1.0, 2.0, 5.0]
        rates = {case: averaged_rate_spatial(c, case, 0, mode="analytic")
                 for case in (1, 2, 3, 4)}
        for s in grid:
            fast_move = kbar1 * kbar2 * s / (kbar3 + kbar1 * s)
            slow_move = sum(k1[d] * k2[d] * pi_a[d] * s / (k3[d] + k1[d] * pi_a[d] * s)
                            for d in range(2))
            assert rates[1]([s]) == pytest.approx(fast_move, rel=1e-12)
            assert rates[2]([s]) == pytest.approx(fast_move, rel=1e-12)
            assert rates[3]([s]) == pytest.approx(slow_move, rel=1e-12)
            assert rates[4]([s]) == pytest.approx(slow_move, rel=1e-12)
            # movement speed of continuous slow species is irrelevant
            assert rates[1]([s]) == pytest.approx(rates[2]([s]), rel=1e-14)
            assert rates[3]([s]) == pytest.approx(rates[4]([s]), rel=1e-14)
        # uniform slow equilibrium + homogeneity: all four coincide
        ch = classify(spatial_ab_homog_doc.model, spatial_ab_homog_doc.scaling)
        hom = {case: averaged_rate_spatial(ch, case, 0, mode="analytic")
               for case in (1, 2, 3, 4)}
        for s in grid:
            values = [hom[case]([s]) for case in (1, 2, 3, 4)]
            assert max(values) - min(values) <= 1e-13 * (1 + abs(values[0]))


def test_criterion_4_fast_movement_invariance(spatial_ab_doc):
    with _Timer("4 fast-movement invariance", 60.0):
        base = classify(spatial_ab_doc.model, spatial_ab_doc.scaling)
        variants = []
        for f12, f21 in ((7.0, 7.0), (5.0, 3.0)):
            text = fx.SPATIAL_AB_TEXT \
                .replace("move B from d1 to d2 rate 1",
                         f"move B from d1 to d2 rate {f12}") \
                .replace("move B from d2 to d1 rate 1",
                         f"move B from d2 to d1 rate {f21}")
            doc = parse_document(text)
            variants.append(classify(doc.model, doc.scaling))
        for case in (3, 4):
            r0 = averaged_rate_spatial(base, case, 0, mode="analytic")
            for other in variants:
                r1 = averaged_rate_spatial(other, case, 0, mode="analytic")
                for s in (0.25, 1.0, 4.0):
                    assert r0([s]) == r1([s])   # exact invariance
        # Monte Carlo mode: unchanged within 3 combined standard errors
        mc0 = averaged_rate_spatial(base, 3, 0, mode="montecarlo",
                                    mc=McConfig(budget=60_000, seed=5))
        mc1 = averaged_rate_spatial(variants[1], 3, 0, mode="montecarlo",
                                    mc=McConfig(budget=60_000, seed=51))
        for s in (0.5, 2.0):
            se = mc0.standard_error([s]) + mc1.standard_error([s])
            assert abs(mc0([s]) - mc1([s])) <= 3 * se


def test_criterion_5_convergence_harness(ab_doc, gene_doc):
    with _Timer("5 convergence harness", 300.0):
        report = verify_convergence(ab_doc.model, ab_doc.scaling, [10, 100, 1000],
                                    replicas=2000, times=[0.25, 0.5, 0.75, 1.0],
                                    x0_scaled=ab_doc.initial_scaled(), seed=2024)
        assert report.errors[-1] <= 0.05
        assert report.trend == "decreasing"
        assert report.passed

        report2 = verify_convergence(gene_doc.model, gene_doc.scaling,
                                     [10, 100, 1000], replicas=2000,
                                     times=[0.25, 0.5, 0.75, 1.0],
                                     x0_scaled=gene_doc.initial_scaled(), seed=7)
        assert report2.errors[-1] <= 0.05
        assert report2.trend == "decreasing"
        assert report2.passed


def test_criterion_6_movement_equilibrium(movement_doc):
    with _Timer("6 movement equilibrium", 60.0):
        # occupancy fraction of a pure-movement model, >= 1e5 events
        x0 = State(np.array([[1000.0, 0.0]]), scaled=True)
        cfg = SimulationConfig(N=1, t_end=80.0, seed=21, record="events")
        traj = simulate(movement_doc.model, movement_doc.scaling, cfg, x0)
        assert len(traj.event_log) >= 100_000
        occupancy = traj.states[:, 0, 0] / 1000.0
        start = np.searchsorted(traj.times, 10.0)
        dt = np.diff(traj.times[start:])
        values = occupancy[start:-1]
        batches = np.array_split(np.arange(len(dt)), 20)
        means = np.array([np.sum(values[b] * dt[b]) / np.sum(dt[b]) for b in batches])
        se = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(means.mean() - 2 / 3) <= 3 * se + 1e-4

        # multinomial marginal against the exact binomial pmf (chi-square, 1%)
        from mscrn import rng as rng_mod
        measure = product_measure(movement_doc.model, [12.0])
        rng = rng_mod.stream(9)
        draws = 100_000
        counts = np.zeros(13)
        for _ in range(draws):
            counts[int(measure.sample(rng)[0, 0])] += 1
        pmf = sps.binom.pmf(np.arange(13), 12, 2 / 3)
        keep = pmf * draws >= 5
        observed = np.concatenate([counts[keep], [counts[~keep].sum()]])
        expected = np.concatenate([pmf[keep] * draws, [pmf[~keep].sum() * draws]])
        assert sps.chisquare(observed, expected).pvalue > 0.01


def test_criterion_7_pdmp_correctness():
    with _Timer("7 pdmp correctness", 60.0):
        # jump-free linear ODE against the closed form, 10x integrator tol
        rel_tol = 1e-6
        system = HybridSystem(("P",), (), ((lambda v: 2.0, np.array([1.0])),
                                           (lambda v: v[0], np.array([-1.0]))))
        traj = simulate_pdmp(system, [0.0], t_end=1.0, seed=0,
                             ode_config=OdeConfig(rel_tol=rel_tol))
        want = 2.0 * (1.0 - np.exp(-1.0))
        assert abs(traj.final_state[0] - want) / want <= 10 * rel_tol

        # constant-rate jumps: KS on 1e4 inter-jump times at the 1% level
        jump_system = HybridSystem(
            ("X",), ((lambda v: 3.0, np.array([1], dtype=np.int64)),), ())
        jump_traj = simulate_pdmp(jump_system, [0.0], t_end=3500.0, seed=5,
                                  record="events")
        times = np.array([t for t, _ in jump_traj.event_log])
        assert len(times) >= 10_000
        gaps = np.diff(np.concatenate([[0.0], times]))[:10_000]
        assert sps.kstest(gaps, "expon", args=(0, 1 / 3)).pvalue > 0.01


def test_criterion_8_conservation(conserved_doc, movement_doc):
    with _Timer("8 conservation", 60.0):
        # conserved functionals exactly constant along fast-subsystem paths
        c = classify(conserved_doc.model, conserved_doc.scaling)
        basis = conserved_basis(c)
        traj = simulate_pdmp(fast_subsystem(c, np.zeros(3)), [5.0, 2.0],
                             t_end=200.0, seed=4, record="events")
        assert traj.event_counts.sum() > 500
        for theta in basis.vectors:
            totals = traj.states @ np.array(theta, dtype=float)
            assert np.all(totals == totals[0])

        # movement-only runs conserve every per-species total exactly
        x0 = State(np.array([[700.0, 300.0]]), scaled=True)
        cfg = SimulationConfig(N=1, t_end=5.0, seed=2, record="events")
        mtraj = simulate(movement_doc.model, movement_doc.scaling, cfg, x0)
        assert mtraj.event_counts.sum() > 1000
        sums = mtraj.states.sum(axis=2)
        assert np.all(sums == 1000.0)
