"""Exact rational and integer arithmetic.

Scaling exponents are rationals and every classification decision is a
comparison of rationals, so nothing here touches floating point:
exponents are parsed and printed as ``Fraction``, and the conserved
combinations of a fast tier come from the integer null space of its
stoichiometry, by fraction-free elimination. Rates are floats and are
solved elsewhere; the movement equilibria, for one, by
``averaging.chain_equilibrium``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, integer, or decimal text into an exact Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    if "." in text or "e" in text or "E" in text:
        # decimal -> exact decimal fraction (not binary float)
        return Fraction(text)
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _normalize_primitive(vec: list[int]) -> tuple[int, ...]:
    """Divide by the content gcd and make the first nonzero entry positive."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g > 1:
        vec = [x // g for x in vec]
    for x in vec:
        if x != 0:
            if x < 0:
                vec = [-x for x in vec]
            break
    return tuple(vec)


def integer_nullspace(matrix) -> list[tuple[int, ...]]:
    """Integer basis of the (right) null space of an integer matrix.

    Fraction-free Gaussian elimination with deterministic pivoting
    (first nonzero in column order), then back substitution on the free
    variables. Each basis vector is primitive (content gcd 1) with its
    first nonzero entry positive; vectors are sorted lexicographically,
    so repeated runs give the identical basis.
    """
    a = [[Fraction(int(x)) for x in row] for row in np.atleast_2d(np.asarray(matrix, dtype=object))]
    if not a or not a[0]:
        return []
    n_rows, n_cols = len(a), len(a[0])
    pivot_col_of_row: list[int] = []
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(n_rows):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivot_col_of_row.append(col)
        row += 1
        if row == n_rows:
            break
    pivot_cols = set(pivot_col_of_row)
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis: list[tuple[int, ...]] = []
    for free in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivot_col_of_row):
            vec[pc] = -a[r][free]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        ints = [int(x * lcm) for x in vec]
        basis.append(_normalize_primitive(ints))
    basis.sort()
    return basis
