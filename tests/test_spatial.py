"""Spatial averaged rates: the four movement-speed cases, their
coincidences, movement-rescaling invariance, and conserved variants.

Oracles are the hand-composed closed forms written out in the fixture
comments: averaged constants for the fast-movement regime, compartment
sums of local laws for the slow-movement regime.
"""

import warnings

import numpy as np
import pytest

from mscrn.averaging import McConfig, averaged_rate_two_scale, movement_equilibrium
from mscrn.classify import classify, conserved_basis
from mscrn.errors import AnalyticUnavailable, CaseUnavailable, MscrnError
from mscrn.parser import parse_document, parse_model
from mscrn.reduce import build_reduced_model
from mscrn.spatial_cases import averaged_rate_single_scale, averaged_rate_spatial

import conftest as fx

PI_A = np.array([2 / 3, 1 / 3])
PI_B = np.array([0.5, 0.5])
K1 = np.array([1.0, 2.0])
K2 = np.array([1.5, 0.5])
K3 = np.array([0.7, 1.3])
KBAR1 = float((K1 * PI_A * PI_B).sum())      # 2/3
KBAR2 = float(K2.sum())                      # 2
KBAR3 = float((K3 * PI_B).sum())             # 1


def rate_fast_movement(s):
    return KBAR1 * KBAR2 * s / (KBAR3 + KBAR1 * s)


def rate_slow_movement(s):
    return sum(K1[d] * K2[d] * PI_A[d] * s / (K3[d] + K1[d] * PI_A[d] * s)
               for d in range(2))


GRID = [0.25, 0.5, 1.0, 2.0, 5.0]


def test_case_formulas_match_hand_composition(spatial_ab_doc):
    c = classify(spatial_ab_doc.model, spatial_ab_doc.scaling)
    for case, oracle in ((1, rate_fast_movement), (2, rate_fast_movement),
                         (3, rate_slow_movement), (4, rate_slow_movement)):
        rate = averaged_rate_spatial(c, case, 0, mode="analytic")
        assert rate.kind == "analytic"
        for s in GRID:
            assert rate([s]) == pytest.approx(oracle(s), rel=1e-12), (case, s)
            assert rate.standard_error([s]) == 0.0


def test_case1_equals_case2_and_case3_equals_case4(spatial_ab_doc):
    # all slow species continuous: the movement speed of slow species
    # does not matter
    c = classify(spatial_ab_doc.model, spatial_ab_doc.scaling)
    r = {case: averaged_rate_spatial(c, case, 0) for case in (1, 2, 3, 4)}
    for s in GRID:
        assert r[1]([s]) == pytest.approx(r[2]([s]), rel=1e-14)
        assert r[3]([s]) == pytest.approx(r[4]([s]), rel=1e-14)


def test_homogeneous_uniform_all_cases_coincide(spatial_ab_homog_doc):
    c = classify(spatial_ab_homog_doc.model, spatial_ab_homog_doc.scaling)
    rates = [averaged_rate_spatial(c, case, 0) for case in (1, 2, 3, 4)]
    for s in GRID:
        values = [r([s]) for r in rates]
        assert max(values) - min(values) < 1e-13 * (1 + abs(values[0]))
        # and they all equal the single-compartment reduced rate s/(1+s/2)
        assert values[0] == pytest.approx(s / (1 + s / 2), rel=1e-12)


def _rescaled_fast_movement(doc_text, factor_12, factor_21):
    text = doc_text.replace("move B from d1 to d2 rate 1",
                            f"move B from d1 to d2 rate {factor_12}")
    text = text.replace("move B from d2 to d1 rate 1",
                        f"move B from d2 to d1 rate {factor_21}")
    return parse_document(text)


def test_fast_movement_invariance_analytic(spatial_ab_doc):
    # slow-movement cases never consult the fast species' equilibrium
    base = classify(spatial_ab_doc.model, spatial_ab_doc.scaling)
    for f12, f21 in ((7.0, 7.0), (5.0, 3.0)):
        other_doc = _rescaled_fast_movement(fx.SPATIAL_AB_TEXT, f12, f21)
        other = classify(other_doc.model, other_doc.scaling)
        for case in (3, 4):
            r0 = averaged_rate_spatial(base, case, 0, mode="analytic")
            r1 = averaged_rate_spatial(other, case, 0, mode="analytic")
            for s in GRID:
                assert r0([s]) == r1([s])


def test_fast_movement_invariance_montecarlo(spatial_ab_doc):
    base = classify(spatial_ab_doc.model, spatial_ab_doc.scaling)
    other_doc = _rescaled_fast_movement(fx.SPATIAL_AB_TEXT, 5.0, 3.0)
    other = classify(other_doc.model, other_doc.scaling)
    r0 = averaged_rate_spatial(base, 3, 0, mode="montecarlo",
                               mc=McConfig(budget=40_000, seed=31))
    r1 = averaged_rate_spatial(other, 3, 0, mode="montecarlo",
                               mc=McConfig(budget=40_000, seed=77))
    for s in (0.5, 2.0):
        se = r0.standard_error([s]) + r1.standard_error([s])
        assert abs(r0([s]) - r1([s])) < 3 * se


def test_case12_montecarlo_agrees_with_analytic(spatial_ab_doc):
    c = classify(spatial_ab_doc.model, spatial_ab_doc.scaling)
    rate = averaged_rate_spatial(c, 1, 0, mode="montecarlo",
                                 mc=McConfig(budget=40_000, seed=19))
    for s in (0.5, 2.0):
        want = rate_fast_movement(s)
        got, se = rate([s]), rate.standard_error([s])
        assert abs(got - want) < 3 * se + 1e-3


def test_spatial_conserved_case3(spatial_conserved_doc):
    c = classify(spatial_conserved_doc.model, spatial_conserved_doc.scaling)
    assert c.spatial_case.tag == 3
    basis = conserved_basis(c)
    assert basis.vectors == ((1, 1),)
    assert basis.k_c == {2, 3}
    # reduced state: (s_S, s_c); oracles from the fixture comment
    r4 = averaged_rate_spatial(c, 3, 4, conserved=basis)
    assert r4([0.0, 3.0]) == pytest.approx(2.75, rel=1e-10)
    r2 = averaged_rate_spatial(c, 3, 2, conserved=basis)
    assert r2([0.0, 3.0]) == pytest.approx(1.0, rel=1e-12)
    r3 = averaged_rate_spatial(c, 3, 3, conserved=basis)
    assert r3([0.0, 3.0]) == pytest.approx(0.85, rel=1e-10)


def test_spatial_conserved_case34_has_no_montecarlo(spatial_conserved_doc):
    # the conserved cases 3/4 only have the constrained closed form; in
    # mode montecarlo they raise instead of returning it as a Monte Carlo
    # rate with standard error 0
    c = classify(spatial_conserved_doc.model, spatial_conserved_doc.scaling)
    basis = conserved_basis(c)
    for case in (3, 4):
        with pytest.raises(CaseUnavailable, match="no Monte Carlo path"):
            averaged_rate_spatial(c, case, 4, conserved=basis, mode="montecarlo")
    assert averaged_rate_spatial(c, 1, 4, conserved=basis, mode="montecarlo").kind \
        == "montecarlo"


def test_spatial_conserved_depends_on_fast_movement(spatial_conserved_doc):
    # unlike the unconserved slow-movement cases, conserved totals are
    # carried between compartments by the fast species, so their
    # movement rates matter
    base = classify(spatial_conserved_doc.model, spatial_conserved_doc.scaling)
    basis = conserved_basis(base)
    skewed_text = fx.SPATIAL_CONSERVED_TEXT.replace(
        "move Ea from d1 to d2 rate 1", "move Ea from d1 to d2 rate 9")
    skewed_doc = parse_document(skewed_text)
    skewed = classify(skewed_doc.model, skewed_doc.scaling)
    skewed_basis = conserved_basis(skewed)
    r0 = averaged_rate_spatial(base, 3, 4, conserved=basis)
    r1 = averaged_rate_spatial(skewed, 3, 4, conserved=skewed_basis)
    assert abs(r0([0.0, 3.0]) - r1([0.0, 3.0])) > 1e-3


def test_spatial_conserved_case12(spatial_conserved_doc):
    # sum-level constrained law: Ea_total ~ Binomial(s_c, p) with
    # p = kbar_act/(kbar_act + kbar_deact), movement-averaged constants
    # kbar_act = (1+3)/2 = 2 and kbar_deact = (2+1)/2 = 3/2; the readout
    # rate is sum_d kappa_4d pi_Ea(d) times E[Ea_total] = p s_c.
    c = classify(spatial_conserved_doc.model, spatial_conserved_doc.scaling)
    basis = conserved_basis(c)
    rate = averaged_rate_spatial(c, 1, 4, conserved=basis)
    p = 2.0 / (2.0 + 1.5)
    want = (1 * 0.5 + 2 * 0.5) * (p * 3.0)
    assert rate([0.0, 3.0]) == pytest.approx(want, rel=1e-10)


def test_three_scale_spatial_unsupported():
    text = ("species F alpha=0 eta=2\nspecies M alpha=0 eta=2\n"
            "species S alpha=1 eta=2\ncompartments d1 d2\n"
            "reaction M -> M + F @ mass-action kappa=1 beta=1\n"
            "reaction F -> 0 @ mass-action kappa=2 beta=1\n"
            "reaction 0 -> M @ mass-action kappa=3 beta=1/2\n"
            "reaction M -> 0 @ mass-action kappa=1 beta=1/2\n"
            "reaction F + S -> F @ mass-action kappa=0.5 beta=1\n"
            "move F from d1 to d2 rate 1\nmove F from d2 to d1 rate 1\n"
            "move M from d1 to d2 rate 1\nmove M from d2 to d1 rate 1\n"
            "move S from d1 to d2 rate 1\nmove S from d2 to d1 rate 1\n")
    doc = parse_document(text)
    with pytest.raises(CaseUnavailable):
        build_reduced_model(doc.model, doc.scaling)


def test_avg_kappa_examples(spatial_ab_doc):
    # at unit totals a mass-action rate averaged over movement equilibrium
    # is its averaged constant, the sum over compartments of the local
    # constant times each reactant's equilibrium probability
    def at_unit_totals(text):
        doc = parse_document(text)
        rate = averaged_rate_single_scale(doc.model, 0)
        return rate(np.ones(doc.model.network.n_species))

    # A + B with both continuous, kappas (1, 2), uniform equilibria:
    # 1*(1/4) + 2*(1/4) = 3/4
    assert at_unit_totals(
        "species A alpha=1 eta=1\nspecies B alpha=1 eta=1\n"
        "compartments d1 d2\n"
        "reaction A + B -> 0 @ mass-action kappa=1,2 beta=1\n"
        "move A from d1 to d2 rate 1\nmove A from d2 to d1 rate 1\n"
        "move B from d1 to d2 rate 1\nmove B from d2 to d1 rate 1\n") == pytest.approx(0.75)
    # single compartment: kbar is the local constant
    assert at_unit_totals("species A alpha=1 eta=1\ncompartments only\n"
                          "reaction A -> 0 @ mass-action kappa=1.7 beta=1\n"
                          ) == pytest.approx(1.7)
    # equilibrium concentrated on compartment 1
    assert at_unit_totals("species A alpha=0 eta=1\ncompartments d1 d2\n"
                          "reaction A -> 0 @ mass-action kappa=1.3,9.9 beta=0\n"
                          "move A from d2 to d1 rate 1\n") == pytest.approx(1.3)


def test_single_scale_spatial_three_quarters():
    # the 3/4 example as a full averaged rate at totals s = (1, 1)
    text = ("species A alpha=1 eta=1\nspecies B alpha=1 eta=1\n"
            "compartments d1 d2\n"
            "reaction A + B -> 0 @ mass-action kappa=1,2 beta=1\n"
            "move A from d1 to d2 rate 1\nmove A from d2 to d1 rate 1\n"
            "move B from d1 to d2 rate 1\nmove B from d2 to d1 rate 1\n")
    doc = parse_document(text)
    rate = averaged_rate_single_scale(doc.model, 0)
    assert rate([1.0, 1.0]) == pytest.approx(0.75, rel=1e-14)


def test_single_scale_spatial_zero_order():
    text = ("species A alpha=0 eta=1\ncompartments d1 d2\n"
            "reaction 0 -> A @ mass-action kappa=1.5,2.5 beta=0\n"
            "reaction A -> 0 @ mass-action kappa=1,1 beta=0\n"
            "move A from d1 to d2 rate 1\nmove A from d2 to d1 rate 1\n")
    doc = parse_document(text)
    rate = averaged_rate_single_scale(doc.model, 0)
    for s in (0.0, 3.0, 10.0):
        assert rate([s]) == pytest.approx(4.0)


def test_single_scale_spatial_homogeneous_gene(spatial_gene_doc):
    # homogeneity condition: averaged constants, the rates at unit
    # totals, equal the single compartment ones (1, 1, 2, 1)
    model = spatial_gene_doc.model
    for k, want in ((0, 1.0), (1, 1.0), (2, 2.0), (3, 1.0)):
        rate = averaged_rate_single_scale(model, k)
        assert rate([1.0, 1.0, 1.0]) == pytest.approx(want, rel=1e-14)
    rate = averaged_rate_single_scale(model, 0)
    # rate at totals (G, Ga, P) = (1, 0, 2): kappa * s_G * s_P = 2
    assert rate([1.0, 0.0, 2.0]) == pytest.approx(2.0, rel=1e-14)


def test_single_scale_spatial_expression_exact_sum():
    # expression law averaged by exact summation over the multinomial
    # support must match the mass-action closed form for the same rate
    base = ("species A alpha=0 eta=1\ncompartments d1 d2\n"
            "move A from d1 to d2 rate 1\nmove A from d2 to d1 rate 2\n")
    expr_doc = parse_document(base + "reaction A -> 0 @ expr 1.5*A beta=0\n")
    mass_doc = parse_document(base + "reaction A -> 0 @ mass-action kappa=1.5 beta=0\n")
    r_expr = averaged_rate_single_scale(expr_doc.model, 0)
    r_mass = averaged_rate_single_scale(mass_doc.model, 0)
    for s in (1.0, 4.0, 9.0):
        assert r_expr([s]) == pytest.approx(r_mass([s]), rel=1e-12)
    assert r_expr.kind == "montecarlo"   # exact summation path, no closed form
    assert r_expr.standard_error([4.0]) == 0.0


@pytest.mark.parametrize("species, mass_action, expr, totals", [
    # a discrete square, zero below its order
    ("A", "A + A -> 0 @ mass-action kappa=0.8", "A*(A-1)",
     ([0.0], [1.0], [2.0], [5.0])),
    # a discrete by continuous pair
    ("A C", "A + C -> 0 @ mass-action kappa=0.8", "A*C",
     ([0.0, 2.5], [1.0, 0.0], [1.0, 1.0], [4.0, 2.5])),
    # a continuous square
    ("C", "C + C -> 0 @ mass-action kappa=0.8", "C^2", ([0.0], [0.5], [1.0], [3.5])),
], ids=["discrete_square", "discrete_continuous", "continuous_square"])
def test_single_scale_kappa_bar_matches_exact_position_sum(species, mass_action, expr, totals):
    # kbar times the law of the totals against the exact sum over the
    # multinomial (discrete) and point-mass (continuous) positions of the
    # same law written as an expression; A and C sit 2:1 in d1:d2
    names = species.split()
    head = "".join(f"species {n} alpha={int(n == 'C')} eta=1\n" for n in names)
    head += "compartments d1 d2\n"
    head += "".join(f"move {n} from d1 to d2 rate 1\nmove {n} from d2 to d1 rate 2\n"
                    for n in names)
    beta = " beta=0\n"
    closed = averaged_rate_single_scale(parse_document(head + "reaction " + mass_action + beta)
                                        .model, 0)
    law = mass_action.split(" @ ")[0] + " @ expr 0.8*" + expr
    exact = averaged_rate_single_scale(parse_document(head + "reaction " + law + beta).model, 0)
    assert closed.kind == "analytic" and exact.kind == "montecarlo"
    for state in totals:
        assert exact.standard_error(state) == 0.0   # summed, not sampled
        assert closed(state) == pytest.approx(exact(state), rel=1e-12, abs=1e-15)


def test_single_scale_gene_limit_rates_have_row_forms(spatial_gene_doc):
    # every single-scale mass-action rate is one mass-action law of the
    # totals, so the hybrid kernels evaluate it over rows
    system = build_reduced_model(spatial_gene_doc.model, spatial_gene_doc.scaling).to_hybrid()
    assert system.jumps or system.flows
    for fn, _ in system.jumps + system.flows:
        assert getattr(fn, "row_terms", None) is not None


@pytest.mark.parametrize("text, error, message", [
    ("species A alpha=0 eta=1\ncompartments d1 d2\n"
     "reaction 0 -> A @ mass-action kappa=1,1 beta=0\n"
     "reaction A -> 0 @ mass-action kappa=0,0 beta=0\n", MscrnError,
     "reaction 2 has zero rate in every compartment"),
    ("species A alpha=0 eta=1\ncompartments d1 d2\n"
     "reaction 0 -> A @ mass-action kappa=1,1 beta=0\n"
     "reaction A -> 0 @ expr 1.5*A beta=0\n"
     "move A from d1 to d2 rate 1\nmove A from d2 to d1 rate 1\n", AnalyticUnavailable,
     "reaction 2 has an expression law"),
    (fx.SPATIAL_AB_TEXT.replace("reaction B -> 0 @ mass-action kappa=0.7,1.3",
                                "reaction B -> 0 @ expr 0.7*B"), CaseUnavailable,
     "reaction 3: spatial case averaging of expression laws"),
    # W only catalyses, so it changes on no timescale
    (fx.SPATIAL_AB_TEXT.replace("reaction 0 -> B", "reaction W -> W + B")
     .replace("compartments", "species W alpha=0 eta=1\ncompartments")
     + "move W from d1 to d2 rate 1\nmove W from d2 to d1 rate 1\n", CaseUnavailable,
     "reaction 2 consumes W, which sits on neither"),
], ids=["zero_rate", "single_scale_expression", "case_expression", "neither_tier"])
def test_errors_number_reactions_from_one(text, error, message):
    with pytest.raises(error, match=message):
        doc = parse_document(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # W is dropped from classification
            build_reduced_model(doc.model, doc.scaling, mode="analytic")


def test_lost_closed_form_raises_in_both_paths():
    # fast birth and the fast death A + B -> A (A slow): at A = 0 B only
    # grows, so the closed form of the slow A + B -> B is lost there. A
    # rate of kind 'analytic' raises there, spatial or not, instead of
    # running Monte Carlo unannounced.
    reactions = ("reaction 0 -> B @ mass-action kappa=1 beta=1\n"
                 "reaction A + B -> A @ mass-action kappa=1 beta=1\n"
                 "reaction A + B -> B @ mass-action kappa=1 beta=1\n")
    flat = parse_document("species A alpha=1\nspecies B alpha=0\n" + reactions)
    spatial = parse_document(
        "species A alpha=1 eta=2\nspecies B alpha=0 eta=1/2\ncompartments d1 d2\n"
        + reactions + "".join(f"move {s} from {a} to {b} rate 1\n" for s in "AB"
                              for a, b in (("d1", "d2"), ("d2", "d1"))))
    rates = [averaged_rate_two_scale(classify(flat.model, flat.scaling), 2),
             averaged_rate_spatial(classify(spatial.model, spatial.scaling), 3, 2)]
    for rate in rates:
        assert rate.kind == "analytic"
        assert rate([1.0]) > 0
        with pytest.raises(AnalyticUnavailable):
            rate([0.0])


def _catalysed_death(order):
    """Fast B, born at rate 1 and dying at rate 1 with ``order``
    molecules of a discrete slow catalyst S; the slow B -> B + A reads
    E[B]. Without space B is Poisson(1 / falling_factorial(S, order)),
    which has no stationary law below ``order`` molecules of S."""
    catalyst = " + ".join(["S"] * order)
    return (f"reaction B -> B + A @ mass-action kappa=1 beta=1\n"
            f"reaction 0 -> B @ mass-action kappa=1 beta=1\n"
            f"reaction {catalyst} + B -> {catalyst} @ mass-action kappa=1 beta=1\n"
            f"reaction 0 -> S @ mass-action kappa=1 beta=0\n"
            f"reaction S -> 0 @ mass-action kappa=1 beta=0\n")


@pytest.mark.parametrize("mode", ["auto", "analytic"])
def test_closed_form_kind_not_lost_to_a_zero_probe(mode):
    # the kind is read with every frozen factor 1: a catalyst count that
    # zeroes the death coefficient (S = 1 of order 2, or a total of 3 of
    # order 4) leaves the rate analytic, which raises only at such states
    flat = parse_document("species A alpha=1\nspecies B alpha=0\nspecies S alpha=0\n"
                          + _catalysed_death(2))
    rate = averaged_rate_two_scale(classify(flat.model, flat.scaling), 0, mode=mode)
    assert rate.kind == "analytic"
    assert rate([0.0, 3.0]) == pytest.approx(1 / 6, rel=1e-12)
    with pytest.raises(AnalyticUnavailable):
        rate([0.0, 1.0])
    spatial = parse_document(
        "species A alpha=1 eta=2\nspecies B alpha=0 eta=3\nspecies S alpha=0 eta=2\n"
        "compartments d1 d2\n" + _catalysed_death(4)
        + "".join(f"move {s} from {a} to {b} rate 1\n" for s in "ABS"
                  for a, b in (("d1", "d2"), ("d2", "d1"))))
    rate = averaged_rate_spatial(classify(spatial.model, spatial.scaling), 1, 0, mode=mode)
    assert rate.kind == "analytic"
    # E[B] = 2 / (falling_factorial(S, 4) / 16), read at pi_B = 1/2 per compartment
    assert rate([0.0, 5.0]) == pytest.approx(32 / 120, rel=1e-12)
    with pytest.raises(AnalyticUnavailable):
        rate([0.0, 3.0])
