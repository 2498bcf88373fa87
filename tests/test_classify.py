"""Time-scale classification, conserved bases, spatial cases."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscrn.classify import (classify, conserved_basis, movement_as_reactions,
                            spatial_case_for)
from mscrn.errors import (DegenerateEtaError, MixedAlphaError, OverlapError,
                          TimescaleViolation, UnclassifiableError)
from mscrn.model import ScalingSpec
from mscrn.parser import parse_model


def test_gene_single_scale(gene_doc):
    c = classify(gene_doc.model, gene_doc.scaling)
    idx = gene_doc.model.index
    assert c.kind == "single"
    assert c.i_circ == {idx["G"], idx["Ga"]}
    assert c.i_bullet == {idx["P"]}
    assert c.k_sets["star_circ"] == {0, 1}
    assert c.k_sets["star_bullet"] == {2, 3}
    assert c.k_sets["star"] == {0, 1, 2, 3}
    # effective matrix equals the full stoichiometric matrix here
    assert np.array_equal(c.star.matrix, gene_doc.model.stoichiometric_matrix())


def test_ab_two_scale(ab_doc):
    c = classify(ab_doc.model, ab_doc.scaling)
    idx = ab_doc.model.index
    assert c.kind == "two"
    assert c.eps == 1
    assert c.i_fast == {idx["B"]}
    assert c.i_slow == {idx["A"]}
    assert c.k_sets["fast"] == {0, 1, 2}
    assert c.k_sets["slow"] == {0}
    assert c.fast.rows == (idx["B"],)
    assert np.array_equal(c.fast.matrix, [[-1, 1, -1]])
    assert c.slow.rows == (idx["A"],)
    assert np.array_equal(c.slow.matrix, [[-1]])
    assert conserved_basis(c).empty


def test_no_slow_tier_unclassifiable():
    # every species changes on the fast timescale only
    text = ("species B alpha=0\n"
            "reaction 0 -> B @ mass-action kappa=1 beta=1\n"
            "reaction B -> 0 @ mass-action kappa=1 beta=1\n")
    model, scaling = parse_model(text)
    with pytest.raises(UnclassifiableError):
        classify(model, scaling)


def test_negative_gap_unclassifiable():
    text = ("species A alpha=2\n"
            "reaction A -> 0 @ mass-action kappa=1 beta=1\n")
    model, scaling = parse_model(text)
    with pytest.raises(UnclassifiableError):
        classify(model, scaling)


def test_four_gaps_unclassifiable():
    lines = ["species W alpha=0", "species X alpha=0", "species Y alpha=0",
             "species Z alpha=0"]
    for name, beta in [("W", 0), ("X", "1/3"), ("Y", "2/3"), ("Z", 1)]:
        lines.append(f"reaction {name} -> 0 @ mass-action kappa=1 beta={beta}")
    model, scaling = parse_model("\n".join(lines) + "\n")
    with pytest.raises(UnclassifiableError):
        classify(model, scaling)


def test_constant_species_dropped():
    text = ("species A alpha=0\nspecies Zed alpha=0\n"
            "reaction A -> 0 @ mass-action kappa=1 beta=0\n")
    model, scaling = parse_model(text)
    with pytest.warns(UserWarning):
        c = classify(model, scaling)
    assert c.dropped == (model.index["Zed"],)
    assert model.index["Zed"] not in c.i_slow


def test_three_scale_chain(three_scale_doc):
    c = classify(three_scale_doc.model, three_scale_doc.scaling)
    idx = three_scale_doc.model.index
    assert c.kind == "three"
    assert c.eps1 == Fraction(1, 2)
    assert c.i_fast == {idx["F"]}
    assert c.i_middle == {idx["M"]}
    assert c.i_slow == {idx["S"]}
    assert c.k_sets["fast"] == {0, 1}
    assert c.k_sets["middle"] == {2, 3}
    assert c.k_sets["slow"] == {4}
    assert np.array_equal(c.fast.matrix, [[1, -1]])
    assert np.array_equal(c.middle.matrix, [[1, -1]])
    assert np.array_equal(c.slow.matrix, [[-1]])


def test_normalization_invariance(ab_doc):
    # shifting beta by gamma and jointly rescaling all exponents are no-ops
    base = classify(ab_doc.model, ab_doc.scaling)

    shifted, _ = parse_model(
        "species A alpha=1\nspecies B alpha=0\n"
        "reaction A + B -> 0 @ mass-action kappa=1 beta=1/2\n"
        "reaction 0 -> B @ mass-action kappa=1 beta=1/2\n"
        "reaction B -> 0 @ mass-action kappa=1 beta=1/2\n")
    c2 = classify(shifted, ScalingSpec(gamma=Fraction(1, 2)))
    assert (c2.kind, c2.i_fast, c2.i_slow) == (base.kind, base.i_fast, base.i_slow)
    assert np.array_equal(c2.fast.matrix, base.fast.matrix)

    doubled, _ = parse_model(
        "species A alpha=2\nspecies B alpha=0\n"
        "reaction A + B -> 0 @ mass-action kappa=1 beta=2\n"
        "reaction 0 -> B @ mass-action kappa=1 beta=2\n"
        "reaction B -> 0 @ mass-action kappa=1 beta=2\n")
    c3 = classify(doubled, ScalingSpec())
    assert (c3.kind, c3.i_fast, c3.i_slow) == (base.kind, base.i_fast, base.i_slow)
    assert c3.eps == 1
    assert np.array_equal(c3.fast.matrix, base.fast.matrix)


def test_conserved_basis_pair(conserved_doc):
    c = classify(conserved_doc.model, conserved_doc.scaling)
    basis = conserved_basis(c)
    assert basis.vectors == ((1, 1),)
    assert basis.alpha_c == (0,)
    assert basis.k_c == {2, 3}
    assert basis.k_c_circ == {2, 3}
    assert np.array_equal(basis.zeta_c, [[1, -1]])
    # exact annihilation of every fast column
    theta = np.array(basis.vectors[0])
    assert np.all(theta @ c.fast.matrix == 0)


def test_conserved_basis_full_rank_empty():
    text = ("species X alpha=0\nspecies Y alpha=0\nspecies S alpha=0\n"
            "reaction 0 -> X @ mass-action kappa=1 beta=1\n"
            "reaction X -> 0 @ mass-action kappa=1 beta=1\n"
            "reaction 0 -> Y @ mass-action kappa=1 beta=1\n"
            "reaction Y -> 0 @ mass-action kappa=1 beta=1\n"
            "reaction 0 -> S @ mass-action kappa=1 beta=0\n")
    model, scaling = parse_model(text)
    c = classify(model, scaling)
    assert conserved_basis(c).empty


def test_conserved_mixed_alpha_guard():
    # Effective fast columns are balanced at a single abundance level, so a
    # mixed-alpha vector cannot arise from a real classification; the guard
    # is exercised on a doctored fast matrix.
    import dataclasses
    from mscrn.classify import TierMatrix
    text = ("species X alpha=0\nspecies Y alpha=1\nspecies S alpha=0\n"
            "reaction X -> Y @ mass-action kappa=1 beta=1\n"
            "reaction 0 -> Y @ mass-action kappa=1 beta=2\n"
            "reaction 0 -> S @ mass-action kappa=1 beta=0\n")
    model, scaling = parse_model(text)
    c = classify(model, scaling)
    doctored = dataclasses.replace(
        c, fast=TierMatrix(c.fast.rows, c.fast.cols,
                           np.array([[-1, 0], [1, 0]])))
    with pytest.raises(MixedAlphaError):
        conserved_basis(doctored)


def test_conserved_timescale_violation():
    # theta annihilates the effective fast columns, but an intermediate-rate
    # injection still changes the total faster than the slow timescale
    text = ("species X alpha=0\nspecies Y alpha=0\nspecies S alpha=0\n"
            "reaction X -> Y @ mass-action kappa=1 beta=1\n"
            "reaction Y -> X @ mass-action kappa=1 beta=1\n"
            "reaction 0 -> X @ mass-action kappa=1 beta=1/2\n"
            "reaction 0 -> S @ mass-action kappa=1 beta=0\n")
    model, scaling = parse_model(text)
    with pytest.raises(TimescaleViolation):
        conserved_basis(classify(model, scaling))


def test_conserved_overlap_error():
    # one reaction both drives the conserved total and changes slow S
    text = ("species X alpha=0\nspecies Y alpha=0\nspecies S alpha=0\n"
            "reaction X -> Y @ mass-action kappa=1 beta=1\n"
            "reaction Y -> X @ mass-action kappa=1 beta=1\n"
            "reaction S -> X @ mass-action kappa=1 beta=0\n")
    model, scaling = parse_model(text)
    with pytest.raises(OverlapError):
        conserved_basis(classify(model, scaling))


def test_spatial_case_table():
    two, three, half, third = Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 3)
    assert spatial_case_for(two, three).tag == 1
    assert spatial_case_for(two, half).tag == 2
    assert spatial_case_for(half, three).tag == 3
    assert spatial_case_for(half, third).tag == 4
    with pytest.raises(DegenerateEtaError):
        spatial_case_for(Fraction(1), two)
    with pytest.raises(DegenerateEtaError):
        spatial_case_for(two, Fraction(1))


def test_exponent_comparisons_are_exact():
    # beta + gamma = 1/10 + 1/5 equals alpha = 3/10 only in exact
    # arithmetic (as floats, 0.1 + 0.2 != 0.3); the balance must be
    # recognized, giving a single-scale system with a full entry
    text = ("species A alpha=3/10\n"
            "reaction A -> 0 @ mass-action kappa=1 beta=1/10\n"
            "scaling gamma=1/5\n")
    model, scaling = parse_model(text)
    c = classify(model, scaling)
    assert c.kind == "single"
    assert c.k_sets["star"] == {0}
    assert c.star.matrix[0, 0] == -1


def test_heterogeneous_eta_within_tier():
    from mscrn.errors import HeterogeneousEtaError
    text = ("species B1 alpha=0 eta=2\nspecies B2 alpha=0 eta=3\n"
            "species A alpha=1 eta=2\ncompartments d1 d2\n"
            "reaction 0 -> B1 @ mass-action kappa=1 beta=1\n"
            "reaction B1 -> 0 @ mass-action kappa=1 beta=1\n"
            "reaction 0 -> B2 @ mass-action kappa=1 beta=1\n"
            "reaction B2 -> 0 @ mass-action kappa=1 beta=1\n"
            "reaction A -> 0 @ mass-action kappa=1 beta=1\n"
            "move B1 from d1 to d2 rate 1\nmove B1 from d2 to d1 rate 1\n"
            "move B2 from d1 to d2 rate 1\nmove B2 from d2 to d1 rate 1\n"
            "move A from d1 to d2 rate 1\nmove A from d2 to d1 rate 1\n")
    model, scaling = parse_model(text)
    with pytest.raises(HeterogeneousEtaError):
        classify(model, scaling)


def test_spatial_classification(spatial_ab_doc):
    c = classify(spatial_ab_doc.model, spatial_ab_doc.scaling)
    assert c.kind == "two"
    assert c.spatial_case is not None
    # eta_A=2 (slow), eta_B=3 (fast): both above the fast gap -> case 1
    assert c.spatial_case.tag == 1


def test_movement_as_reactions_counts(spatial_ab_doc):
    net, meta = movement_as_reactions(spatial_ab_doc.model)
    # 2 species x 2 compartments
    assert net.n_species == 4
    # 3 chemical reactions per compartment + 4 movement entries
    assert len(meta["chemical"]) == 6
    assert len(meta["movement"]) == 4
    assert net.n_reactions == 10
    # zero-rate movement entries are omitted
    model2 = parse_model(
        "species A alpha=0 eta=1\ncompartments d1 d2\n"
        "reaction A -> 0 @ mass-action kappa=1\n"
        "move A from d1 to d2 rate 1\n")[0]
    net2, meta2 = movement_as_reactions(model2)
    assert len(meta2["movement"]) == 1


def test_movement_reaction_exponents(movement_doc):
    net, meta = movement_as_reactions(movement_doc.model)
    # movement reaction carries beta = alpha + eta = 0 + 1
    assert all(r.beta == 1 for r in net.reactions)
    assert np.array_equal(net.stoichiometric_matrix(),
                          [[-1, 1], [1, -1]])


def test_movement_only_flat_network_has_no_slow_tier(movement_doc):
    # every compartment count changes at the movement speed, so the flat
    # network has no species on the slow timescale; the totals are the
    # conserved combinations instead
    net, _ = movement_as_reactions(movement_doc.model)
    with pytest.raises(UnclassifiableError):
        classify(net, ScalingSpec())


@settings(max_examples=40, deadline=None)
@given(gamma=st.sampled_from([0, 1, Fraction(1, 2), Fraction(-1, 3)]))
def test_gamma_shift_invariance(gamma):
    gamma = Fraction(gamma)
    text_template = ("species A alpha=1\nspecies B alpha=0\n"
                     "reaction A + B -> 0 @ mass-action kappa=1 beta={b1}\n"
                     "reaction 0 -> B @ mass-action kappa=1 beta={b2}\n"
                     "reaction B -> 0 @ mass-action kappa=1 beta={b3}\n")
    base, _ = parse_model(text_template.format(b1=1, b2=1, b3=1))
    c0 = classify(base, ScalingSpec())
    shifted, _ = parse_model(text_template.format(
        b1=1 - gamma, b2=1 - gamma, b3=1 - gamma))
    c1 = classify(shifted, ScalingSpec(gamma=gamma))
    assert (c1.kind, c1.i_fast, c1.i_slow) == (c0.kind, c0.i_fast, c0.i_slow)
    assert np.array_equal(c1.fast.matrix, c0.fast.matrix)
    assert np.array_equal(c1.slow.matrix, c0.slow.matrix)
