"""Exact arithmetic (rational exponents, integer null spaces) and the
float stationary law of a finite chain, ``averaging.chain_equilibrium``."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscrn.averaging import chain_equilibrium
from mscrn.errors import IsolatedSpeciesError, ReducibleChainError
from mscrn.exact import format_rational, integer_nullspace, parse_rational


def test_parse_rational_forms():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("2") == Fraction(2)
    # decimal converts exactly, not through binary float
    assert parse_rational("0.1") == Fraction(1, 10)
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"


def test_nullspace_of_activation_pair():
    # zeta_f = [[-1, 1], [1, -1]]; transpose has null space spanned by (1, 1)
    basis = integer_nullspace(np.array([[-1, 1], [1, -1]]).T)
    assert basis == [(1, 1)]


def test_nullspace_full_rank_empty():
    assert integer_nullspace(np.eye(2, dtype=int)) == []


def test_nullspace_single_fast_row():
    # B-row (-1, 1, -1): transpose is 3x1, only theta = 0 annihilates it
    assert integer_nullspace(np.array([[-1], [1], [-1]])) == []


def test_nullspace_primitive_and_deterministic():
    m = np.array([[2, 4], [1, 2]])  # rank 1, null space span{(2, -1)}
    basis = integer_nullspace(m)
    assert basis == [(2, -1)]
    assert integer_nullspace(m) == basis


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_nullspace_annihilates(rows):
    m = np.array(rows)
    for vec in integer_nullspace(m):
        assert all(sum(m[r][c] * vec[c] for c in range(3)) == 0 for r in range(len(rows)))
        from math import gcd
        g = 0
        for x in vec:
            g = gcd(g, abs(x))
        assert g == 1


def test_stationary_two_state():
    # balance: pi1 * 1 = pi2 * 2 -> (2/3, 1/3), both correctly rounded
    pi = chain_equilibrium([[0, 1], [2, 0]])
    assert pi.tolist() == [2 / 3, 1 / 3]


def test_stationary_symmetric_cycle():
    rates = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert chain_equilibrium(rates).tolist() == [1 / 3] * 3


def test_stationary_single_state():
    assert chain_equilibrium([[0]]).tolist() == [1.0]


def test_stationary_transient_state_gets_zero():
    # 2 only leaks into the closed 0<->1 pair
    pi = chain_equilibrium([[0, 1, 0], [2, 0, 0], [1, 0, 0]])
    assert pi.tolist() == [2 / 3, 1 / 3, 0.0]


def test_stationary_errors():
    # two absorbing states fed by a transient one -> two closed classes
    with pytest.raises(ReducibleChainError, match="^2 closed movement classes, need exactly 1$"):
        chain_equilibrium([[0, 0, 0], [0, 0, 0], [1, 1, 0]])
    with pytest.raises(IsolatedSpeciesError, match="^no movement between compartments$"):
        chain_equilibrium([[0, 0], [0, 0]])


def test_stationary_two_closed_classes():
    with pytest.raises(ReducibleChainError):
        chain_equilibrium([[0, 0, 0, 0],
                           [0, 0, 0, 0],
                           [1, 0, 0, 0],
                           [0, 1, 0, 0]])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 32), st.integers(0, 2**32 - 1))
def test_stationary_birth_death_line_to_full_precision(n, seed):
    """A birth-death line with rates log-uniform over +-4 decades matches
    its detailed-balance closed form, pi_{d+1} / pi_d = up_d / down_{d+1},
    to 1e-12 relative in every entry, the smallest included. The naive
    solve (one balance row replaced by ones, then ``np.linalg.solve``)
    fails this: it subtracts, and loses the small entries entirely."""
    rng = np.random.default_rng(seed)
    up, down = 10.0 ** rng.uniform(-4, 4, (2, n - 1))
    rates = np.zeros((n, n))
    rates[np.arange(n - 1), np.arange(1, n)] = up
    rates[np.arange(1, n), np.arange(n - 1)] = down
    want = np.concatenate([[1.0], np.cumprod(up / down)])
    want /= want.sum()
    assert np.all(np.abs(chain_equilibrium(rates) - want) <= 1e-12 * want)


def test_stationary_dense_chains_balance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 33))
        rates = 10.0 ** rng.uniform(-4, 4, (n, n))
        np.fill_diagonal(rates, 0.0)
        pi = chain_equilibrium(rates)
        generator = rates - np.diag(rates.sum(axis=1))
        assert np.all(pi >= 0)
        assert abs(pi.sum() - 1.0) <= 1e-15
        assert np.abs(pi @ generator).max() <= 1e-12 * rates.max()
