"""Exact rational and integer linear algebra.

Scaling exponents are rationals and every classification decision is a
comparison of rationals, so nothing here touches floating point: null
spaces come from fraction-free elimination, stationary distributions of
movement chains from exact pivoted elimination over ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .errors import IsolatedSpeciesError, ReducibleChainError


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


def strongly_connected_components(n: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative. Nodes are 0..n-1."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adjacency[u].append(v)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 1
    for start in range(n):
        if visited[start]:
            continue
        work = [(start, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                visited[node] = True
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for i in range(ptr, len(adjacency[node])):
                succ = adjacency[node][i]
                if not visited[succ]:
                    work[-1] = (node, i + 1)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                components.append(sorted(comp))
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def closed_classes(n: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    """Communicating classes with no outgoing edge (absorbing classes)."""
    comps = strongly_connected_components(n, edges)
    member = {}
    for ci, comp in enumerate(comps):
        for node in comp:
            member[node] = ci
    closed = []
    for ci, comp in enumerate(comps):
        if all(member[v] == ci for u, v in edges if u in set(comp)):
            closed.append(comp)
    return closed


def stationary_distribution(rates) -> list[Fraction]:
    """Stationary law of a finite CTMC from its rate matrix, exactly.

    ``rates[i][j]`` is the jump rate i -> j (diagonal ignored). Solves
    pi Q = 0, sum(pi) = 1 by exact pivoted elimination over Fractions.
    Requires a unique closed class; transient states receive mass 0.

    Raises ReducibleChainError when several closed classes exist, and
    IsolatedSpeciesError when there is no movement at all on >1 states.
    """
    n = len(rates)
    if n == 1:
        return [Fraction(1)]
    edges = {(i, j) for i in range(n) for j in range(n) if i != j and rates[i][j] > 0}
    if not edges:
        raise IsolatedSpeciesError("no movement between compartments")
    classes = closed_classes(n, edges)
    if len(classes) != 1:
        raise ReducibleChainError(f"{len(classes)} closed movement classes, need exactly 1")
    support = classes[0]
    m = len(support)
    local = {s: i for i, s in enumerate(support)}
    # columns of Q^T restricted to the closed class, plus normalization row
    q = [[Fraction(0)] * m for _ in range(m)]
    for si in support:
        total = Fraction(0)
        for sj in support:
            if sj == si:
                continue
            rate = Fraction(rates[si][sj])
            total += rate
            q[local[sj]][local[si]] += rate
        q[local[si]][local[si]] -= total
    # replace last balance equation by sum(pi) = 1
    a = [row[:] + [Fraction(0)] for row in q[:-1]]
    a.append([Fraction(1)] * m + [Fraction(1)])
    # exact Gaussian elimination with partial (first-nonzero) pivoting
    for col in range(m):
        pivot = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    pi = [Fraction(0)] * n
    for si in support:
        pi[si] = a[local[si]][m]
    return pi
