"""Model file parsing, validation diagnostics, and round-trip stability."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscrn.errors import ParseError, ValidationError
from mscrn.parser import (models_equal, parse_document, parse_model,
                          serialize_model)

import conftest as fx


def test_gene_file_structure(gene_doc):
    model = gene_doc.model
    assert [s.name for s in model.species] == ["G", "Ga", "P"]
    assert [s.alpha for s in model.species] == [0, 0, 1]
    assert [r.beta for r in model.reactions] == [0, 0, 1, 1]
    assert [r.rate_law.kappa for r in model.reactions] == [1, 1, 2, 1]
    assert not model.is_spatial
    assert gene_doc.init == {"Ga": 1.0}


def test_ab_file_structure(ab_doc):
    model = ab_doc.model
    assert model.n_reactions == 3
    assert model.species[model.index["A"]].alpha == 1
    assert np.array_equal(model.stoichiometric_matrix(),
                          [[-1, 0, 0], [-1, 1, -1]])


def test_spatial_file_structure(spatial_ab_doc):
    model = spatial_ab_doc.model
    assert model.is_spatial
    assert model.compartments == ("d1", "d2")
    assert model.rate_law(0, 0).kappa == 1.0
    assert model.rate_law(0, 1).kappa == 2.0
    i_a, i_b = model.index["A"], model.index["B"]
    assert model.movement[i_a, 0, 1] == 1.0
    assert model.movement[i_a, 1, 0] == 2.0
    assert model.movement[i_b, 0, 1] == 1.0
    assert np.count_nonzero(model.movement) == 4
    init = spatial_ab_doc.initial_scaled()
    assert init[i_a, 0] == 1.0 and init[i_a, 1] == 0.0


def test_empty_species_block():
    with pytest.raises(ValidationError):
        parse_model("reaction A -> 0 @ mass-action kappa=1\n")


def test_undeclared_species():
    with pytest.raises(ValidationError):
        parse_model("species A alpha=1\nreaction A + B -> 0 @ mass-action kappa=1\n")


def test_duplicate_species():
    with pytest.raises(ValidationError):
        parse_model("species A\nspecies A\nreaction A -> 0 @ mass-action kappa=1\n")


def test_negative_rate():
    with pytest.raises(ValidationError):
        parse_model("species A\nreaction A -> 0 @ mass-action kappa=-1\n")


def test_parse_error_has_span():
    with pytest.raises(ParseError) as err:
        parse_model("species A alpha=x7&\n")
    assert err.value.line == 1
    assert err.value.col >= 11  # inside the alpha token
    with pytest.raises(ParseError) as err:
        parse_model("species A\nbogus B\n")
    assert err.value.line == 2
    assert err.value.col == 1


def test_rational_exponent_preserved():
    model, _ = parse_model("species A alpha=3/2\nreaction A -> 0 @ mass-action kappa=1 beta=1/3\n")
    assert model.species[0].alpha == Fraction(3, 2)
    assert model.reactions[0].beta == Fraction(1, 3)
    text = serialize_model(model)
    again, _ = parse_model(text)
    assert again.species[0].alpha == Fraction(3, 2)
    assert again.reactions[0].beta == Fraction(1, 3)


def test_decimal_exponent_exact():
    model, _ = parse_model("species A alpha=0.5\nreaction A -> 0 @ mass-action kappa=1\n")
    assert model.species[0].alpha == Fraction(1, 2)


@pytest.mark.parametrize("text", [fx.GENE_TEXT, fx.AB_TEXT, fx.SPATIAL_AB_TEXT,
                                  fx.CONSERVED_TEXT, fx.THREE_SCALE_TEXT,
                                  fx.MOVEMENT_TEXT])
def test_round_trip_fixtures(text):
    doc = parse_document(text)
    emitted = serialize_model(doc.model, doc.scaling,
                              doc.init if doc.init else None)
    doc2 = parse_document(emitted)
    assert models_equal(doc.model, doc2.model)
    assert doc2.scaling == doc.scaling
    assert doc2.init == doc.init
    # serialization is byte-deterministic
    assert serialize_model(doc2.model, doc2.scaling,
                           doc2.init if doc2.init else None) == emitted


def test_expression_law_round_trip():
    text = ("species A alpha=1\n"
            "reaction A -> 0 @ expr 2*A/(1+A) beta=1\n")
    model, scaling = parse_model(text)
    emitted = serialize_model(model, scaling)
    model2, _ = parse_model(emitted)
    assert models_equal(model, model2)


def test_expression_undeclared_symbol():
    with pytest.raises(ValidationError):
        parse_model("species A alpha=1\nreaction A -> 0 @ expr A*Z beta=1\n")


def test_move_validation():
    base = "species A alpha=0 eta=1\ncompartments d1 d2\n"
    with pytest.raises(ValidationError):
        parse_model(base + "move A from d1 to d1 rate 1\n")
    with pytest.raises(ValidationError):
        parse_model(base + "move A from d1 to dX rate 1\n")
    with pytest.raises(ValidationError):
        parse_model(base + "move Q from d1 to d2 rate 1\n")


def test_reaction_zero_in_every_compartment():
    text = ("species A alpha=0\ncompartments d1 d2\n"
            "reaction A -> 0 @ mass-action kappa=0,0\n")
    with pytest.raises(ValidationError):
        parse_model(text)


def test_gamma_parsing():
    _, scaling = parse_model("species A\nreaction A -> 0 @ mass-action kappa=1\n"
                             "scaling gamma=1/2\n")
    assert scaling.gamma == Fraction(1, 2)


_names = st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=4,
                  unique=True)


@settings(max_examples=60, deadline=None)
@given(names=_names,
       alphas=st.lists(st.sampled_from([0, 1, Fraction(1, 2), Fraction(3, 2)]),
                       min_size=4, max_size=4),
       betas=st.lists(st.sampled_from([0, 1, Fraction(1, 3)]), min_size=1, max_size=3),
       kappas=st.lists(st.floats(0.1, 9.0, allow_nan=False), min_size=3, max_size=3),
       seed=st.integers(0, 10_000))
def test_round_trip_random_models(names, alphas, betas, kappas, seed):
    rng = np.random.default_rng(seed)
    lines = [f"species {n} alpha={a}" for n, a in zip(names, alphas)]
    for j, beta in enumerate(betas):
        lhs = rng.choice(names)
        rhs = rng.choice(names + ["0"])
        right = "0" if rhs == "0" else f"{rng.integers(1, 3)} {rhs}"
        lines.append(f"reaction {lhs} -> {right} @ mass-action "
                     f"kappa={kappas[j % len(kappas)]} beta={beta}")
    text = "\n".join(lines) + "\n"
    doc = parse_document(text)
    emitted = serialize_model(doc.model, doc.scaling)
    doc2 = parse_document(emitted)
    assert models_equal(doc.model, doc2.model)
    assert serialize_model(doc2.model, doc2.scaling) == emitted
