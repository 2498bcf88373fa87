"""Reduced-model assembly, serialization markers, and hybrid wiring."""

from fractions import Fraction

import numpy as np
import pytest

from mscrn.averaging import McConfig
from mscrn.errors import ModelError
from mscrn.model import state_shape
from mscrn.parser import parse_document
from mscrn.pdmp import simulate_pdmp
from mscrn.reduce import build_reduced_model, serialize_reduced

import conftest as fx


def test_identity_reduction_gene(gene_doc):
    red = build_reduced_model(gene_doc.model, gene_doc.scaling)
    assert red.kind == "identity"
    assert red.state_labels == ("G", "Ga", "P")
    assert len(red.jump_reactions) == 2
    assert len(red.flow_reactions) == 2
    text = serialize_reduced(red)
    assert text.count(" jump ") == 2
    assert text.count(" flow ") == 2
    assert "k1*vG*vP" in text
    assert "k3*vGa" in text


def test_reduced_ab_rate_text(ab_doc):
    red = build_reduced_model(ab_doc.model, ab_doc.scaling)
    assert red.kind == "two"
    text = serialize_reduced(red)
    assert "k1*k2*vA/(k3+k1*vA)" in text
    assert red.jump_reactions == ()
    assert len(red.flow_reactions) == 1
    k, vec = red.flow_reactions[0]
    assert k == 0 and vec.tolist() == [-1.0]


def test_reduced_montecarlo_marker():
    # an expression law in the fast tier blocks every closed form
    text = ("species A alpha=1\nspecies B alpha=0\n"
            "reaction A + B -> 0 @ mass-action kappa=1 beta=1\n"
            "reaction 0 -> B @ expr 1.0 beta=1\n"
            "reaction B -> 0 @ mass-action kappa=1 beta=1\n")
    doc = parse_document(text)
    red = build_reduced_model(doc.model, doc.scaling,
                              mc=McConfig(budget=5000))
    assert red.rates[0].kind == "montecarlo"
    assert "montecarlo" in serialize_reduced(red)


def test_reduced_conserved_structure(conserved_doc):
    red = build_reduced_model(conserved_doc.model, conserved_doc.scaling)
    assert red.kind == "two-conserved"
    assert red.state_labels == ("S", "c1")
    jump_ks = {k for k, _ in red.jump_reactions}
    assert jump_ks == {2, 3, 4}
    deltas = {k: vec.tolist() for k, vec in red.jump_reactions}
    assert deltas[4] == [1.0, 0.0]     # readout S += 1
    assert deltas[2] == [0.0, 1.0]     # injection raises the total
    assert deltas[3] == [0.0, -1.0]
    text = serialize_reduced(red)
    assert "c1 = E + Ea" in text


def test_reduced_single_spatial(spatial_gene_doc):
    red = build_reduced_model(spatial_gene_doc.model, spatial_gene_doc.scaling)
    assert red.kind == "single-spatial"
    # homogeneity: averaged rates equal single-compartment values at the
    # same totals
    assert red.rates[0]([1.0, 0.0, 2.0]) == pytest.approx(2.0, rel=1e-14)
    assert red.rates[2]([0.0, 1.0, 0.0]) == pytest.approx(2.0, rel=1e-14)


def test_reduced_spatial_two(spatial_ab_doc):
    red = build_reduced_model(spatial_ab_doc.model, spatial_ab_doc.scaling)
    assert red.kind == "spatial-two"
    assert red.state_labels == ("A",)
    kbar1, kbar2, kbar3 = 2 / 3, 2.0, 1.0
    want = kbar1 * kbar2 * 1.0 / (kbar3 + kbar1)
    assert red.rates[0]([1.0]) == pytest.approx(want, rel=1e-12)


def test_initial_state_projection(conserved_doc):
    red = build_reduced_model(conserved_doc.model, conserved_doc.scaling)
    full = np.array([3.0, 1.0, 7.0])   # E, Ea, S
    v0 = red.initial_state(full)
    assert v0.tolist() == [7.0, 4.0]   # S, then E + Ea


def test_initial_state_projection_spatial(spatial_ab_doc):
    red = build_reduced_model(spatial_ab_doc.model, spatial_ab_doc.scaling)
    full = np.array([[0.75, 0.25], [1.0, 2.0]])
    assert red.initial_state(full).tolist() == [1.0]


def test_observable_weights_shapes(gene_doc, conserved_doc):
    red = build_reduced_model(gene_doc.model, gene_doc.scaling)
    assert red.observable_weights().shape == (3, 3)
    red2 = build_reduced_model(conserved_doc.model, conserved_doc.scaling)
    w = red2.observable_weights()
    assert w.shape == (2, 3)
    assert w[1].tolist() == [1.0, 1.0, 0.0]   # E + Ea


def test_to_hybrid_and_simulate(ab_doc):
    red = build_reduced_model(ab_doc.model, ab_doc.scaling)
    system = red.to_hybrid()
    traj = simulate_pdmp(system, [1.0], t_end=1.0, seed=0)
    # dv/dt = -v/(1+v): ln v + v = 1 - t; at t=1, v is the omega constant
    from scipy.optimize import brentq
    want = brentq(lambda v: np.log(v) + v, 1e-6, 1.0)
    assert traj.final_state[0] == pytest.approx(want, rel=1e-5)


def test_to_hybrid_conserved_joint_dynamics(conserved_doc):
    red = build_reduced_model(conserved_doc.model, conserved_doc.scaling)
    system = red.to_hybrid()
    traj = simulate_pdmp(system, red.initial_state([3.0, 0.0, 0.0]),
                         t_end=20.0, seed=3, record="events")
    # totals stay nonnegative integers; S only increases
    states = traj.states
    assert np.all(states >= 0)
    s_path = states[:, 0]
    assert np.all(np.diff(s_path) >= 0)
    assert traj.event_counts.sum() > 10


def test_constant_species_pinned_by_base():
    # an approximately constant catalyst is dropped from classification
    # but its value still scales the fast death rate; the base vector
    # (initial totals) pins it
    text = ("species E alpha=0\nspecies B alpha=0\nspecies A alpha=1\n"
            "reaction E + B -> E @ mass-action kappa=1 beta=1\n"
            "reaction 0 -> B @ mass-action kappa=2 beta=1\n"
            "reaction A + B -> B @ mass-action kappa=0.5 beta=1\n"
            "init E 4\ninit A 1\n")
    doc = parse_document(text)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        red = build_reduced_model(doc.model, doc.scaling,
                                  base=doc.initial_scaled())
    # fast B: birth 2, death 1*E*B = 4B -> mean 1/2; slow A rate 0.5*vA*E[B]
    assert red.rates[2]([2.0]) == pytest.approx(0.5 * 2.0 * 0.5, rel=1e-12)


def test_serialize_reduced_deterministic(ab_doc):
    red = build_reduced_model(ab_doc.model, ab_doc.scaling)
    red2 = build_reduced_model(ab_doc.model, ab_doc.scaling)
    assert serialize_reduced(red) == serialize_reduced(red2)


@pytest.mark.parametrize("text", [fx.AB_TEXT, fx.CONSERVED_TEXT, fx.SPATIAL_AB_TEXT])
def test_averaged_rates_check_the_state_length(text):
    # CONSERVED's rate at [1, 1, 1] against labels ('S', 'c1') returned a
    # value, and a short state raised numpy's ValueError; the unchecked
    # function the hybrid kernel calls stays as it was
    doc = parse_document(text)
    red = build_reduced_model(doc.model, doc.scaling, mc=McConfig(budget=2000))
    state = red.initial_state(doc.initial_scaled())
    for rate in red.rates.values():
        assert rate(state) == rate.fn(state)
        for bad in (np.ones(red.dim + 1), np.ones(red.dim - 1)):
            for call in (rate, rate.standard_error):
                with pytest.raises(ModelError, match=f"length {red.dim}"):
                    call(bad)


# one fixture per reduced kind
KINDS = {"identity": fx.GENE_TEXT, "single-spatial": fx.SPATIAL_GENE_TEXT,
         "two": fx.AB_TEXT, "two-conserved": fx.CONSERVED_TEXT,
         "three": fx.THREE_SCALE_TEXT, "spatial-two": fx.SPATIAL_AB_TEXT,
         "spatial-two-conserved": fx.SPATIAL_CONSERVED_TEXT}


def _reduced(kind):
    doc = parse_document(KINDS[kind])
    red = build_reduced_model(doc.model, doc.scaling, mc=McConfig(budget=2000))
    assert red.kind == kind
    return doc, red


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_projects_by_its_observable_weights(kind):
    doc, red = _reduced(kind)
    assert red.dim == len(red.state_labels) == red.to_hybrid().dim
    weights = red.observable_weights()
    rng = np.random.default_rng(7)
    for _ in range(20):
        full = rng.integers(0, 50, state_shape(doc.model)).astype(float)
        assert (weights @ full.ravel()).tobytes() == red.initial_state(full).tobytes()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_moves_by_the_classified_columns(kind):
    # the limit columns follow from the coordinates alone; they must be
    # the balanced columns of the leading tier and of the conserved basis
    _, red = _reduced(kind)
    c = red.classification
    name, tier = ("star", c.star) if c.kind == "single" else ("slow", c.slow)
    lead = len(red.rows)
    assert red.rows == tier.rows
    basis = red.conserved
    order = [k for k in tier.cols if tier.column(k).any()]
    order += list(basis.cols) if basis else []
    assert [k for k, _ in red.columns] == order
    assert red.jumps == c.k_sets[f"{name}_circ"] | (basis.k_c_circ if basis else frozenset())
    for k, column in red.columns:
        want = np.zeros(red.dim)
        if k in tier.cols:
            want[:lead] = tier.column(k)
        if basis and k in basis.cols:
            want[lead:] = basis.zeta_c[:, basis.cols.index(k)]
        assert column.tolist() == want.tolist()
    assert sorted(red.rates) == sorted(order)


@pytest.mark.parametrize("kind", ["two-conserved", "spatial-two-conserved"])
def test_conserved_jumps_keep_the_slow_reactions_first(kind):
    # the readout (slow) jumps first, then the conserved-driving reactions;
    # the hybrid channels and the printed lines follow this order
    _, red = _reduced(kind)
    assert [k for k, _ in red.jump_reactions] == [4, 2, 3]
    assert [column.tolist() for _, column in red.to_hybrid().jumps] == \
        [column.tolist() for _, column in red.jump_reactions]
    lines = [line.split()[1] for line in serialize_reduced(red).splitlines()
             if line.startswith("reaction")]
    assert lines == ["5", "3", "4"]


def test_conserved_alpha_prints_in_model_units():
    # every species at alpha 1 and a fast gap of 2 (fast reactions at
    # beta 3, slow at 1): the conserved coordinate printed its normalized
    # alpha 1/2 beside the readout's model alpha 1
    text = fx.CONSERVED_TEXT.replace("alpha=0", "alpha=1").replace("beta=1", "beta=3") \
        .replace("beta=0", "beta=1")
    doc = parse_document(text)
    red = build_reduced_model(doc.model, doc.scaling)
    assert red.classification.raw_eps2 == 2
    assert red.conserved.alpha_c == (Fraction(1, 2),)
    states = [line for line in serialize_reduced(red).splitlines() if line.startswith("state")]
    assert states == ["state S alpha=1", "state c1 = E + Ea alpha=1"]
