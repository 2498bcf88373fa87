"""Rate evaluation, stoichiometry and reaction-set extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscrn.errors import ModelError, RateEvaluationError, ValidationError
from mscrn.model import (Expression, MassAction, MassActionRows, Network, Reaction,
                         Species, State, evaluate_rate, falling_factorial,
                         scaled_rate_function)

from conftest import state_of


def two_species_net(nu_a=1, nu_b=1, kappa=2.0, alpha_a=0, alpha_b=0):
    from fractions import Fraction
    return Network(
        [Species("A", Fraction(alpha_a)), Species("B", Fraction(alpha_b))],
        [Reaction.make({0: nu_a, 1: nu_b}, {}, rate_law=MassAction(kappa))])


def test_mass_action_raw_counts():
    # kappa=2, x=(2,3), nu=(1,1): 2 * 2 * 3 = 12 combinations per unit time
    net = two_species_net()
    assert evaluate_rate(net, 0, State(np.array([2.0, 3.0]))) == 12.0


def test_mass_action_insufficient_molecules():
    net = two_species_net(nu_a=2, nu_b=0)
    assert evaluate_rate(net, 0, State(np.array([1.0, 5.0]))) == 0.0


def test_mass_action_mixed_scaled_form():
    # alpha_A > 0 monomial, alpha_B = 0 combinatorial; kappa=2, v=(0.5, 4) -> 4
    net = two_species_net(alpha_a=1, alpha_b=0)
    value = evaluate_rate(net, 0, State(np.array([0.5, 4.0]), scaled=True))
    assert value == pytest.approx(2 * 0.5 * 4.0)


def test_falling_factorial():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(1, 2) == 0.0
    assert falling_factorial(7, 0) == 1.0


def test_expression_rate_law():
    from fractions import Fraction
    net = Network([Species("A", Fraction(1))],
                  [Reaction.make({0: 1}, {}, rate_law=Expression("2*A/(1+A)"))])
    assert evaluate_rate(net, 0, state_of(net, [1.0])) == pytest.approx(1.0)
    with pytest.raises(ModelError):
        evaluate_rate(net, 0, State(np.array([1.0]), scaled=False))


def test_expression_negative_raises():
    from fractions import Fraction
    net = Network([Species("A", Fraction(1))],
                  [Reaction.make({0: 1}, {}, rate_law=Expression("A-10"))])
    with pytest.raises(RateEvaluationError):
        evaluate_rate(net, 0, state_of(net, [1.0]))


def test_rate_error_numbers_reactions_from_one():
    # the second reaction, A + A -> 0, overflows at A = 1e200
    from fractions import Fraction
    net = Network([Species("A", Fraction(1)), Species("B", Fraction(0))],
                  [Reaction.make({1: 1}, {}, rate_law=MassAction(1.0)),
                   Reaction.make({0: 2}, {}, rate_law=MassAction(1.0))])
    with np.errstate(over="ignore"), pytest.raises(RateEvaluationError,
                                                   match=r"^reaction 2: rate inf "):
        evaluate_rate(net, 1, State(np.array([1e200, 1.0]), scaled=True))


def test_dimension_mismatch():
    net = two_species_net()
    with pytest.raises(ModelError):
        evaluate_rate(net, 0, State(np.array([1.0])))
    with pytest.raises(ModelError):
        evaluate_rate(net, 5, State(np.array([1.0, 1.0])))


def test_stoichiometric_matrix_gene(gene_doc):
    zeta = gene_doc.model.stoichiometric_matrix()
    expected = np.array([[-1, 1, 0, 0],
                         [1, -1, 0, 0],
                         [0, 0, 1, -1]])
    assert np.array_equal(zeta, expected)


def test_stoichiometric_matrix_ab(ab_doc):
    zeta = ab_doc.model.stoichiometric_matrix()
    assert np.array_equal(zeta, np.array([[-1, 0, 0], [-1, 1, -1]]))


def test_catalytic_only_column():
    net = Network([Species("A"), Species("B")],
                  [Reaction.make({0: 1, 1: 1}, {0: 1, 1: 1})])
    assert np.array_equal(net.stoichiometric_matrix(), np.zeros((2, 1), dtype=int))
    assert net.reactions[0].catalytic_only
    with pytest.raises(ValidationError):
        Reaction.make({0: 1}, {0: 1}, catalytic_only=False)


def test_species_reaction_sets_gene(gene_doc):
    sets = gene_doc.model.species_reaction_sets()
    index = gene_doc.model.index
    assert sets[index["G"]] == {0, 1}
    assert sets[index["Ga"]] == {0, 1}
    assert sets[index["P"]] == {2, 3}


def test_species_reaction_sets_ab(ab_doc):
    sets = ab_doc.model.species_reaction_sets()
    assert sets[ab_doc.model.index["A"]] == {0}
    assert sets[ab_doc.model.index["B"]] == {0, 1, 2}


def test_catalyst_not_in_reaction_set():
    # A + B -> A + C leaves A untouched
    net = Network([Species("A"), Species("B"), Species("C")],
                  [Reaction.make({0: 1, 1: 1}, {0: 1, 2: 1})])
    sets = net.species_reaction_sets()
    assert sets[0] == frozenset()
    assert sets[1] == {0}
    assert sets[2] == {0}


def test_state_invariants():
    with pytest.raises(ValidationError):
        State(np.array([-1.0]))
    with pytest.raises(ValidationError):
        State(np.array([np.inf]))


def test_duplicate_species_names():
    with pytest.raises(ValidationError):
        Network([Species("A"), Species("A")], [])


@settings(max_examples=150, deadline=None)
@given(x=st.integers(0, 6), nu=st.integers(1, 4))
def test_mass_action_zero_below_threshold(x, nu):
    net = two_species_net(nu_a=nu, nu_b=0)
    value = evaluate_rate(net, 0, State(np.array([float(x), 0.0])))
    if x < nu:
        assert value == 0.0
    else:
        assert value > 0.0


def test_scaled_rate_function_matches_evaluate(gene_doc):
    net = gene_doc.model
    v = np.array([1.0, 2.0, 0.7])
    for k in range(net.n_reactions):
        fn = scaled_rate_function(net, k)
        assert fn(v) == pytest.approx(
            evaluate_rate(net, k, State(v.copy(), scaled=True)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_mass_action_formula(data):
    # evaluate_rate on a scaled state and the compiled scaled law are one
    # formula, equal bit for bit, with discrete orders up to 3 (values
    # below the order included), continuous orders 1-3 and random states;
    # so is the stochastic engine's propensity over integer counts at
    # N = 1 with every exponent 0, where raw and scaled counts coincide
    from fractions import Fraction

    from mscrn import ssa
    from mscrn.model import ScalingSpec

    n_species = data.draw(st.integers(1, 3))
    discrete = [data.draw(st.booleans()) for _ in range(n_species)]
    species = [Species(f"S{i}", Fraction(0 if d else 1)) for i, d in enumerate(discrete)]
    species.append(Species("P"))
    reactants = {}
    for i, d in enumerate(discrete):
        order = data.draw(st.integers(0, 3))
        if order:
            reactants[i] = order
    net = Network(species, [Reaction.make(reactants, {n_species: 1},
                                          rate_law=MassAction(data.draw(st.floats(0.1, 10.0))))])
    law = scaled_rate_function(net, 0)
    propensity = ssa._Compiled(net, ScalingSpec(), 1.0).propensities[0]
    for _ in range(5):
        counts = [float(data.draw(st.integers(0, 6))) for _ in discrete]
        values = [c if d else data.draw(st.floats(0.0, 10.0)) for c, d in zip(counts, discrete)]
        for state in (values, counts):
            state = np.array(state + [0.0])
            assert _bits([evaluate_rate(net, 0, State(state, scaled=True))]) \
                == _bits([law(state)])
        assert _bits([propensity(counts + [0.0])]) == _bits([law(np.array(counts + [0.0]))])


# -- the row form of mass-action closures ----------------------------------

def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mass_action_rows_equal_closures(data):
    # every closure has a row form, and one evaluator over several laws
    # gives each closure's value bit for bit, at random states, at zero,
    # at -0.0 and just below zero (roundoff the orthant clip lets
    # through) and at non-integers, with discrete and continuous orders
    # up to 3
    n_species = data.draw(st.integers(1, 4))
    species = [Species(f"S{i}", data.draw(st.sampled_from([0, 1]))) for i in range(n_species)]
    laws = []
    for _ in range(data.draw(st.integers(1, 5))):
        reactants = {data.draw(st.integers(0, n_species - 1)): data.draw(st.integers(1, 3))
                     for _ in range(data.draw(st.integers(0, 3)))}
        laws.append(Reaction(tuple(sorted(reactants.items())), ((0, 1),),
                             rate_law=MassAction(data.draw(st.floats(0.0, 5.0)))))
    net = Network(species, laws)
    closures = [scaled_rate_function(net, k) for k in range(len(laws))]
    assert all(hasattr(fn, "row_terms") for fn in closures)
    special = st.sampled_from([0.0, -0.0, -1e-9, -9.9e-9, 1.0, 2.0, 3.0])
    value = st.one_of(special, st.integers(0, 6).map(float), st.floats(0.0, 8.0))
    rows = np.array([[data.draw(value) for _ in range(n_species)]
                     for _ in range(data.draw(st.integers(1, 6)))])
    got = MassActionRows([fn.row_terms for fn in closures], n_species).of(rows)
    for c, fn in enumerate(closures):
        assert _bits(got[:, c]) == _bits([fn(row) for row in rows])
