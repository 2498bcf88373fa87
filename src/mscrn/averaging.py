"""Equilibrium measures and averaged rates.

Reduction replaces every faster tier by its equilibrium: molecule
positions by movement equilibria and their multinomial/point-mass
product measures, fast subsystems by stationary measures. Slow-reaction
rates are then integrated against those measures, always with a
reported standard error.

The movement equilibria are one (species, compartments) float array,
``movement_equilibria``: each row is the stationary law of a species'
hopping chain on its unique closed class, solved by the subtraction-free
GTH elimination of ``chain_equilibrium``.

A fast tier at a frozen context is described once, as a list of
``FastReaction``: a mass-action reaction by its coefficient (frozen
factors folded in, by ``split_reactants``) and its fast orders, an
expression law as an opaque rate. ``fast_stationary_law`` turns the list
into a stationary law under a mode: ``closed_form_measure`` tries the
closed form, the exact moments of an affine tier, and otherwise
``montecarlo_measure`` runs the estimator for the jump, flow or hybrid
system that ``fast_tier_system`` builds from the same list.
``rate_kind`` decides once per rate whether it is a closed form, on the
list read with every frozen factor 1. Nonspatial
two-scale rates, the inner tier of the three-scale average and the
spatial cases 1-4 all use it; the three-scale middle tier runs
``montecarlo_measure`` on a system of its own.

A jump-only fast system is time-averaged along one path of
``pdmp.JumpChain``: the direct method of the stochastic engine over a
Python list of the coordinates, walking a bounded graph of the states
met, so a jump back into a known state is a channel choice and a
pointer move. In a new state only the rates that read a changed
coordinate are recomputed: mass-action rates on the list, expression
laws and the three-scale middle tier as opaque rates on an array. An
estimate is one walk of exactly ``McConfig.budget`` events: the chain
sums the time average (``pdmp.Occupation``) in each jump's one callback,
so only each batch's distinct states are held, and the last event's
callback ends the walk. Every estimate made with one ``McConfig`` walks
on the same event draws, the common random numbers of its seed: the
waits and targets of the first ``budget`` events of ``McConfig.seed``'s
stream, which ``rng.cached_events`` computes once and keeps for the
estimates that follow.

Every mass-action law here, from the frozen coefficient of a fast
reaction to the expectation over an empirical law, is built by
:func:`model.mass_action_rate`, the one mass-action formula, and
evaluated over arrays of states by :class:`model.MassActionRows`.

The closed form is one linear system (Gadgil, Lee & Othmer 2005;
Hespanha & Singh 2005). In an affine fast tier every fast reaction is
mass action of total fast order at most 1, so its generator L maps
polynomials of degree m to degree at most m, and the stationary moments
up to degree m solve E[L phi] = 0 for the monomials phi of degree 1..m,
with E[(c.x - T) phi] = 0 for each conserved total c.x = T and phi of
degree below m. The monomials are those of the mass-action form, falling
factorials of discrete variables and powers of continuous ones, so a
mass-action rate averages to its coefficient times one moment.
Birth-death families (Poisson), closed conversion blocks (multinomial),
open chains, catalytic production and affine flows all solve this way.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import expressions
from . import rng as rng_mod
from .classify import ScaleClassification, ConservedBasis
from .errors import (AnalyticUnavailable, IsolatedSpeciesError, ModelError, NonErgodicSuspected,
                     RateEvaluationError, ReducibleChainError)
from .model import (Expression, MassAction, MassActionRows, Network, SpatialModel,
                    mass_action_rate, scaled_rate_function)
from .pdmp import (HybridSystem, JumpChain, Occupation, OdeConfig, hybrid_system,
                   occupation_arrays, simulate_pdmp)


# ---------------------------------------------------------------------------
# movement equilibria and product measures


def chain_equilibrium(rates) -> np.ndarray:
    """Stationary law of a finite chain from its rate matrix, in floats.

    ``rates[i][j]`` is the jump rate i -> j; the diagonal is ignored. The
    law lives on the unique closed class, read off the reachability
    closure (``(rates > 0) | I`` squared until it holds every path): a
    state is closed when every state it reaches reaches it back, and
    transient states get 0. On the class it is solved by the GTH
    algorithm (Grassmann, Taksar & Heyman 1985, Oper. Res. 33:1107),
    state elimination that never subtracts, so every entry keeps its
    relative precision however widely the rates spread.

    Raises ReducibleChainError when several closed classes exist, and
    IsolatedSpeciesError when there is no move at all between >1 states.
    """
    q = np.array(rates, dtype=float)
    n = len(q)
    if n == 1:
        return np.ones(1)
    np.fill_diagonal(q, 0.0)
    reach = q > 0
    if not reach.any():
        raise IsolatedSpeciesError("no movement between compartments")
    reach |= np.eye(n, dtype=bool)
    for _ in range(math.ceil(math.log2(n))):
        reach = reach @ reach
    closed = ~(reach & ~reach.T).any(axis=1)
    n_classes = len(np.unique(reach[closed], axis=0))
    if n_classes != 1:
        raise ReducibleChainError(f"{n_classes} closed movement classes, need exactly 1")
    support = np.flatnonzero(closed)
    a = q[np.ix_(support, support)]
    # eliminate the last state: its exits, spread over the paths through
    # it, become rates between the states before it
    for k in range(len(support) - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(len(support))
    for k in range(1, len(support)):
        pi[k] = pi[:k] @ a[:k, k]
    out = np.zeros(n)
    out[support] = pi / pi.sum()
    return out


def movement_equilibria(spatial_model: SpatialModel) -> np.ndarray:
    """(species, compartments) array of each species' movement equilibrium
    pi, the stationary law of one molecule's compartment-hopping chain."""
    return np.array([chain_equilibrium(rates) for rates in spatial_model.movement])


# Position matrices a product measure sums over exactly; a larger support
# is sampled.
_SUPPORT_CAP = 1_000_000


class ProductMeasure:
    """Joint equilibrium of molecule positions given species totals.

    Discrete species (alpha = 0) spread multinomially over compartments,
    continuous species sit deterministically at pi-proportional shares.
    Exposes a sampler, the exact support as (positions, probability)
    pairs while it is small, and the expectation over either.
    """

    def __init__(self, species: tuple[int, ...], totals, pis, alphas):
        self.species = tuple(species)
        self.totals = np.asarray(totals, dtype=float)
        self.pis = [np.asarray(p, dtype=float) for p in pis]
        self.alphas = tuple(alphas)
        if len(self.species) != len(self.totals) or len(self.pis) != len(self.totals):
            raise ModelError("product measure needs totals and equilibria per species")
        for j, a in enumerate(self.alphas):
            if a == 0 and self.totals[j] != round(self.totals[j]):
                raise ModelError("discrete totals must be integers")

    @property
    def n_compartments(self) -> int:
        return len(self.pis[0])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        out = np.empty((len(self.species), self.n_compartments))
        for j, a in enumerate(self.alphas):
            if a == 0:
                out[j] = rng.multinomial(int(self.totals[j]), self.pis[j])
            else:
                out[j] = self.totals[j] * self.pis[j]
        return out

    def support_size(self) -> int:
        nd = self.n_compartments
        return math.prod(math.comb(int(total) + nd - 1, nd - 1)
                         for total, a in zip(self.totals, self.alphas) if a == 0)

    def _table(self, j: int) -> tuple[np.ndarray, list[float]]:
        """Species j's placements (rows) and their probabilities: the one
        pi-proportional share of a continuous species; every composition
        of a discrete total over the compartments, in lexicographic order,
        with its multinomial probability total!/prod(n!) prod(p^n) summed
        in logs, so that no factor overflows."""
        pj = self.pis[j]
        if self.alphas[j] != 0:
            return (self.totals[j] * pj)[None], [1.0]
        total, nd = int(self.totals[j]), len(pj)
        # stars and bars: the lexicographic order of the nd - 1 bars among
        # total + nd - 1 slots is that of the counts between them
        bars = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations(range(total + nd - 1), nd - 1)), dtype=np.int64)
        bars = bars.reshape(math.comb(total + nd - 1, nd - 1), nd - 1)
        counts = np.diff(bars, axis=1, prepend=-1, append=total + nd - 1) - 1
        log_factorial = np.array([math.lgamma(n + 1.0) for n in range(total + 1)])
        with np.errstate(divide="ignore", invalid="ignore"):   # 0 log 0 is 0
            log_powers = np.where(counts > 0, counts * np.log(pj), 0.0).sum(axis=1)
        log_probs = log_factorial[total] - log_factorial[counts].sum(axis=1) + log_powers
        return counts.astype(float), np.exp(log_probs).tolist()

    def support(self):
        """Iterate (positions matrix, probability) over the exact support,
        species' tables joined in species order; None when it holds more
        than ``_SUPPORT_CAP`` position matrices."""
        if self.support_size() > _SUPPORT_CAP:
            return None
        rows, probs = zip(*(self._table(j) for j in range(len(self.species))))
        return ((np.array([r[i] for r, i in zip(rows, index)]),
                 math.prod(p[i] for p, i in zip(probs, index)))
                for index in itertools.product(*(range(len(p)) for p in probs)))

    def expect(self, g, seed: int, draws: int):
        """(E[g], standard error) over positions; ``g`` maps a positions
        matrix to (value, se). One loop sums weighted placements: the
        exact support with its probabilities while :meth:`support` gives
        one, otherwise ``draws`` samples from the stream of ``seed``, each
        of weight 1/draws. The value is the sum of w * value and the
        inner error the sum of w * se: the inner estimates read the same
        cached event draws, so their errors add, and the sum bounds the
        error whatever their correlation. A sampled average adds its
        sample spread in quadrature."""
        placements = self.support()
        sampled = placements is None
        if sampled:
            rng = rng_mod.stream(seed)
            placements = ((self.sample(rng), 1.0 / draws) for _ in range(draws))
        value = inner = 0.0
        values = []
        for positions, weight in placements:
            val, se = g(positions)
            value += weight * val
            inner += weight * se
            if sampled:
                values.append(val)
        if not sampled:
            return value, inner
        return value, math.hypot(np.std(values, ddof=1) / math.sqrt(draws), inner)


def product_measure(spatial_model: SpatialModel, totals,
                    species: tuple[int, ...] | None = None,
                    pis: np.ndarray | None = None) -> ProductMeasure:
    """Product measure of the positions of ``species`` (every species by
    default) at ``totals``; ``pis`` holds their movement equilibria, one
    row each, and defaults to those of the model."""
    network = spatial_model.network
    if species is None:
        species = tuple(range(network.n_species))
    if pis is None:
        pis = np.array([chain_equilibrium(spatial_model.movement[i]) for i in species])
    alphas = [network.species[i].alpha for i in species]
    return ProductMeasure(species, totals, pis, alphas)


# ---------------------------------------------------------------------------
# exact stationary moments of affine fast tiers


def _monomials(n: int, degree: int):
    """Exponent tuples of ``n`` variables of total ``degree``; degree 1
    runs through the unit vectors in variable order."""
    for picks in itertools.combinations_with_replacement(range(n), degree):
        yield tuple(picks.count(j) for j in range(n))


def _times_x(poly: dict, j: int, discrete) -> dict:
    """x_j times ``poly`` in the mass-action basis: x (x)_b = (x)_{b+1} +
    b (x)_b for a discrete variable, x x^b = x^{b+1} for a continuous one."""
    out: dict = {}
    for beta, c in poly.items():
        up = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
        out[up] = out.get(up, 0.0) + c
        if discrete[j] and beta[j]:
            out[beta] = out.get(beta, 0.0) + beta[j] * c
    return out


def _generator_term(alpha, orders, column, discrete) -> dict:
    """L phi_alpha of one affine reaction of unit coefficient, in the
    mass-action basis. A reaction that changes a discrete variable jumps
    by ``column``: phi_alpha(x + column) - phi_alpha(x), by the Vandermonde
    identity (x + s)_a = sum_k C(a, k) (s)_k (x)_{a-k} for falling
    factorials and the binomial theorem for powers. Any other reaction
    is a flow along ``column``."""
    if any(c and d for c, d in zip(column, discrete)):
        terms = [((), 1.0)]
        for a, s, d in zip(alpha, column, discrete):
            steps = [(a - k, math.comb(a, k) * (math.prod(range(s, s - k, -1)) if d else s ** k))
                     for k in range(a + 1)]
            terms = [(head + (b,), c * step) for head, c in terms for b, step in steps if step]
        poly = dict(terms)   # distinct exponents: one per choice of k per factor
        del poly[alpha]   # phi_alpha(x) itself, the k = 0 term of every factor
    else:
        poly = {}
        for j, s in enumerate(column):
            if s and alpha[j]:
                beta = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
                poly[beta] = poly.get(beta, 0.0) + s * alpha[j]
    if 1 in orders:
        poly = _times_x(poly, orders.index(1), discrete)
    return poly


@functools.lru_cache(maxsize=256)
def _moment_equations(shape, discrete, vectors, m: int):
    """The stationary moment equations of an affine tier shape at degree
    m: E[L phi_alpha] = 0 for 1 <= |alpha| <= m and E[(c.x - T) phi_beta]
    = 0 for each conserved vector c of total T and |beta| < m, over the
    moments of the mass-action basis phi_beta, |beta| <= m. ``shape``
    lists each reaction's fast orders (total at most 1) and change
    column. The equations are linear in the reactions' coefficients and
    the totals, so they are held as one flattened term each: the matrix
    at a context is the sum of the terms weighted by the coefficients,
    the negated totals and 1. Returns (index of each basis exponent,
    terms, matrix shape, and an orthonormal basis of the directions that
    no conserved vector fixes or None)."""
    basis = [alpha for d in range(m + 1) for alpha in _monomials(len(discrete), d)]
    index = {alpha: i for i, alpha in enumerate(basis)}
    low = [beta for beta in basis if sum(beta) < m]
    n_gen, n_r = len(basis) - 1, len(shape)
    terms = np.zeros((n_r + len(vectors) + 1, n_gen + len(vectors) * len(low), len(basis)))
    for r, (orders, column) in enumerate(shape):
        for row, alpha in enumerate(basis[1:]):
            for beta, c in _generator_term(alpha, orders, column, discrete).items():
                terms[r, row, index[beta]] += c
    for v, vec in enumerate(vectors):
        for i, beta in enumerate(low):
            row = n_gen + v * len(low) + i
            terms[n_r + v, row, index[beta]] = 1.0
            for j in (j for j, c in enumerate(vec) if c):
                for gamma, x in _times_x({beta: 1.0}, j, discrete).items():
                    terms[-1, row, index[gamma]] += vec[j] * x
    free = np.linalg.svd(np.array(vectors, dtype=float))[2][len(vectors):].T if vectors else None
    return index, terms.reshape(len(terms), -1), terms.shape[1:], free


class AffineMoments:
    """Exact stationary moments of an affine fast tier at one context:
    the :func:`_moment_equations` of the tier's shape ``key`` (reaction
    shape, discreteness, conserved vectors) at ``weights``, each degree
    solved when first read. The law exists when every eigenvalue of the
    first-moment drift J has a negative real part off the conserved
    directions; then every degree's equations are nonsingular, since an
    affine generator maps degree m to degree at most m and on the top
    degree its eigenvalues are sums of m eigenvalues of J. Supercritical
    branching or a variable that no reaction moves fails that check, and
    the constructor raises AnalyticUnavailable."""

    def __init__(self, key, weights: np.ndarray):
        self.key, self.weights, self.dim, self.solved = key, weights, len(key[1]), {}
        _, matrix, free = self._equations(1)
        drift = matrix[:self.dim, 1:self.dim + 1]
        if free is not None:
            drift = free.T @ drift @ free
        eig = drift.ravel() if drift.size == 1 else np.linalg.eigvals(drift).real
        if drift.size and not eig.max() < -1e-12 * np.abs(drift).max():
            raise AnalyticUnavailable("the fast tier's first moments are not stable")

    def _equations(self, m: int):
        index, terms, shape, free = _moment_equations(*self.key, m)
        return index, (self.weights @ terms).reshape(shape), free

    def factorial(self, orders) -> float:
        """E of the mass-action basis element of exponents ``orders``:
        falling factorials of discrete variables, powers of continuous ones."""
        orders = tuple(int(n) for n in orders)
        m = sum(orders)
        if m == 0:
            return 1.0
        if m not in self.solved:
            index, matrix, free = self._equations(m)
            a, b = matrix[:, 1:], -matrix[:, 0]
            if free is None:
                moments = np.linalg.solve(a, b)
            else:
                moments, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
                if rank < a.shape[1]:
                    raise AnalyticUnavailable("the stationary moment equations are singular")
            if (moments < 0).any():
                # every basis element is nonnegative on the orthant, so a slightly
                # negative moment is round-off of a zero, e.g. E[(x)_2] of an x held at 1
                moments[(moments < 0) & (moments > -1e-9 * np.abs(moments).max())] = 0.0
            self.solved[m] = index, moments
        index, moments = self.solved[m]
        return float(moments[index[orders] - 1])

    def power(self, exponents) -> float:
        """E of the plain power monomial of ``exponents``, expanded in the
        mass-action basis one factor x_j at a time (for a discrete x,
        x^n = sum_k S(n, k) (x)_k with Stirling numbers of the second kind)."""
        poly = {(0,) * self.dim: 1.0}
        for j, n in enumerate(exponents):
            for _ in range(n):
                poly = _times_x(poly, j, self.key[1])
        return sum(c * self.factorial(beta) for beta, c in poly.items())


# ---------------------------------------------------------------------------
# stationary measures of fast subsystems


class StationaryMeasure:
    """Stationary law of a fast subsystem in one of three shapes.

    variant 'moments': the exact stationary moments of an affine tier
    (``moments``, an :class:`AffineMoments`), which serve every
    mass-action law and every law polynomial in the fast variables but
    have no sampler. variant 'pointmass': a single state. variant
    'empirical': a time average split into batches for standard errors,
    held as three arrays: ``states``, ``weights`` and ``batch``, each row's
    batch index. A jump path's :class:`pdmp.Occupation` lists each batch's
    distinct states in first-visit order with their summed time weights; a
    grid-sampled path keeps every sample at unit weight. ``n_events``
    counts its fast events and, on a jump path, ``rate_evals`` the jumps
    that evaluated rates. ``discrete`` marks the variables whose
    mass-action orders enter as falling factorials.
    """

    def __init__(self, variant: str, *, moments=None, point=None,
                 states=None, weights=None, batch=None, ess=None, n_events=None,
                 rate_evals=None, discrete=None):
        self.variant = variant
        self.moments: AffineMoments | None = moments
        self.point = None if point is None else np.asarray(point, dtype=float)
        self.states = states
        self.weights = weights
        self.batch = batch
        self.ess = ess
        self.n_events = n_events
        self.rate_evals = rate_evals
        self.discrete = discrete

    @property
    def dim(self) -> int:
        if self.moments is not None:
            return self.moments.dim
        if self.point is not None:
            return len(self.point)
        if self.states is not None:
            return self.states.shape[1]
        raise ModelError("measure has no dimension")

    # -- expectations ------------------------------------------------------

    def mean_vector(self) -> np.ndarray:
        if self.variant == "moments":
            return np.array([self.moments.factorial(unit) for unit in _monomials(self.dim, 1)])
        value, _ = self.expect(lambda z: np.array(z, dtype=float))
        return value

    def expect(self, fn):
        """(E[fn], standard error); fn maps a state vector to a float or
        array. A moment law has no sampler and raises AnalyticUnavailable."""
        if self.variant == "pointmass":
            return fn(self.point), 0.0
        if self.variant == "empirical":
            return self._batch_means([fn(state) for state in self.states])
        raise AnalyticUnavailable("a moment law averages only polynomial laws")

    def expect_mass_action(self, coeff: float, orders) -> tuple[float, float]:
        """(E, se) of the mass-action law ``coeff`` times each fast
        variable j at its reactant multiplicity ``orders[j]``: discrete
        variables contribute falling factorials and continuous ones plain
        powers. A moment law reads the moment of ``orders``; an empirical
        one evaluates the row form of :func:`model.mass_action_rate` over
        all its states at once (:class:`model.MassActionRows`), and a
        point mass the law itself.
        """
        if self.variant == "moments":
            return coeff * self.moments.factorial(orders), 0.0
        terms = [(j, int(n), bool(self.discrete[j])) for j, n in enumerate(orders) if n]
        if self.variant == "empirical":
            rows = MassActionRows([(coeff, terms)], self.dim)
            return self._batch_means(rows.of(self.states)[:, 0])
        return self.expect(mass_action_rate(coeff, terms))

    def _batch_means(self, values):
        """Time-weighted mean of the per-batch means of ``values`` (one
        per stored state, scalar or array) and its batch-means standard
        error. Each batch is summed left to right: ``np.bincount`` adds
        in input order."""
        wsum = np.bincount(self.batch, weights=self.weights)
        keep = wsum > 0
        if not keep.any():
            raise NonErgodicSuspected("no post-burn-in samples")
        values = np.asarray(values, dtype=float)
        flat = values.reshape(len(values), -1) * self.weights[:, None]
        sums = np.column_stack([np.bincount(self.batch, weights=column, minlength=len(wsum))
                                for column in flat.T])
        weights = wsum[keep]
        means = (sums[keep] / weights[:, None]).reshape((-1,) + values.shape[1:])
        value = np.tensordot(weights, means, axes=(0, 0)) / weights.sum()
        if len(means) > 1:
            se = means.std(axis=0, ddof=1) / math.sqrt(len(means))
        else:
            se = np.abs(means[0]) * 0 + math.inf
        return value, se


# ---------------------------------------------------------------------------
# mass-action structure of a fast subsystem


@dataclass(frozen=True)
class FastReaction:
    """One fast reaction seen from the fast variables at a frozen context:
    a mass-action reaction carries a nonnegative coefficient (everything
    frozen folded in) and its reactant orders on the fast variables, an
    expression law its compiled law as an opaque ``rate`` of the fast
    variables and no orders; ``column`` is the effective change column."""

    k: int
    coeff: float | None
    orders: tuple[int, ...] | None
    column: tuple[int, ...]
    rate: object = None


def fast_reaction_structs(classification: ScaleClassification, frozen) -> list[FastReaction]:
    """The fast tier at the frozen context ``frozen``, a full-length
    species vector whose fast entries are ignored; with ``frozen`` None
    every frozen factor is 1 and an expression law is read over zeros,
    which gives the tier's shape at no particular state."""
    network = classification.network
    fast = classification.fast
    rows = list(fast.rows)
    context = np.zeros(network.n_species) if frozen is None else np.asarray(frozen, dtype=float)
    out = []
    for k in sorted(classification.k_sets["fast"]):
        law = network.reactions[k].rate_law
        column = tuple(fast.column(k))
        if not isinstance(law, MassAction):
            out.append(FastReaction(k, None, None, column,
                                    _frozen_law(scaled_rate_function(network, k), context, rows)))
            continue
        orders, frozen_terms = split_reactants(network, k, rows)
        coeff = law.kappa if frozen is None else mass_action_rate(law.kappa, frozen_terms)(context)
        out.append(FastReaction(k, float(coeff), orders, column))
    return out


def _frozen_law(law, frozen: np.ndarray, rows):
    """``law`` of a full species vector as a function of the fast
    variables at ``rows``, every other species at ``frozen``."""
    buffer = frozen.copy()

    def rate(v_fast):
        buffer[rows] = v_fast
        return law(buffer)

    return rate


def split_reactants(network: Network, k: int, fast_rows) -> tuple[tuple[int, ...], tuple]:
    """Split reaction k's reactants into orders on the fast variables (in
    ``fast_rows`` order) and the remaining reactants, which are frozen on
    the fast timescale, as row-form terms (species, multiplicity,
    discrete) of :func:`model.mass_action_rate`."""
    position = {i: j for j, i in enumerate(fast_rows)}
    orders = [0] * len(fast_rows)
    frozen_terms = []
    for i, n in network.reactions[k].reactants:
        if i in position:
            orders[position[i]] = n
        else:
            frozen_terms.append((i, n, network.species[i].alpha == 0))
    return tuple(orders), tuple(frozen_terms)


# ---------------------------------------------------------------------------
# Monte Carlo stationary estimation


# The share of an estimate's events (or samples) burnt before the time
# average, its batch-means batches (an SE needs two), and the fewest
# post-burn-in events a jump-path estimate accepts.
BURN_IN_FRAC = 0.2
N_BATCHES = 16
MIN_ESS = 100


@dataclass
class McConfig:
    budget: int = 100_000        # events of the one walk (jump systems) or samples (hybrid)
    seed: int = 0
    ode: OdeConfig | None = None

    def __post_init__(self):
        try:
            budget = operator.index(self.budget)
        except TypeError:
            budget = 0
        if budget < 1:
            raise ModelError(f"McConfig needs an integer budget >= 1, got {self.budget!r}")
        rng_mod.check_seed(self.seed)


def _empirical_from_jump_paths(fast_system: HybridSystem, v0, mc: McConfig,
                               discrete) -> StationaryMeasure:
    """Time average of one walk of a pure-jump fast path.

    The walk runs on one :class:`pdmp.JumpChain`, on the event draws of
    the stream of ``mc.seed``, and stops at its ``mc.budget``-th event, so
    its work and memory are bounded by the budget. The draws come from
    :func:`rng.cached_events`: every estimate made with one ``McConfig``
    walks on the same ``budget`` draws, computed once. The first
    ``BURN_IN_FRAC`` of the events end visits that are discarded. Each
    later visit of positive duration weights its state by that duration
    (:class:`pdmp.Occupation`), and every ``(budget - burn-in) //
    N_BATCHES`` visits make a batch for batch-means errors, ``N_BATCHES``
    in all, the last also holding the leftover visits. Fewer than
    ``MIN_ESS`` post-burn-in events raise NonErgodicSuspected. A chain
    absorbed on the way (total rate 0) gives the point mass at its
    absorbing state.
    """
    budget = int(mc.budget)
    burn = int(budget * BURN_IN_FRAC)
    occupation = Occupation(budget, burn, N_BATCHES)
    chain = JumpChain(fast_system, v0, occupation)
    # a walk reads one event draw per event; it ends before the cap
    chain.run(math.inf, rng_mod.cached_events(mc.seed, budget), max_events=budget + 1)
    if not any(chain.rates()):
        # time average of an absorbed chain is the absorbing state
        return StationaryMeasure("pointmass", point=chain.key, discrete=discrete)
    if budget - burn < MIN_ESS:
        raise NonErgodicSuspected(
            f"only {budget - burn} post-burn-in events (threshold {MIN_ESS})")
    states, weights, batch = occupation_arrays(occupation.batches, fast_system.dim)
    return StationaryMeasure("empirical", states=states, weights=weights, batch=batch,
                             ess=budget - burn, n_events=budget,
                             rate_evals=chain.misses, discrete=discrete)


def _pointmass_from_flow(fast_system: HybridSystem, v0, mc: McConfig,
                         discrete) -> StationaryMeasure:
    """Integrate a pure-flow fast subsystem to its fixed point, doubling
    the horizon, until the drift is at most 1e-9 (1 + |v|) or a round has
    brought the path closer to a stable root that Newton's method finds
    from it: the adaptive step holds a state only to about ``rel_tol``, and
    a stiff tier follows a slow relaxation at the pace of its fast flows."""
    v = np.asarray(v0, dtype=float).copy()
    cfg = mc.ode or OdeConfig()
    horizon = 1.0
    for _ in range(60):
        start = np.maximum(v, 0.0)
        v = simulate_pdmp(fast_system, v, horizon, ode_config=cfg).final_state
        point = np.maximum(v, 0.0)
        tol = 1e-9 * (1.0 + np.linalg.norm(v))
        if np.linalg.norm(fast_system.drift(point)) <= tol:
            return StationaryMeasure("pointmass", point=point, discrete=discrete)
        root = _stable_flow_root(fast_system, point, tol)
        if root is not None and np.linalg.norm(point - root) < np.linalg.norm(start - root):
            return StationaryMeasure("pointmass", point=root, discrete=discrete)
        horizon = min(horizon * 2.0, 1e6)
    raise NonErgodicSuspected("flow did not settle to a fixed point")


def _stable_flow_root(system: HybridSystem, v: np.ndarray, tol: float):
    """Newton's method for drift = 0 from ``v``, stepping in the span of the
    flow vectors so that conserved combinations stay fixed: the root if it
    is nonnegative, its drift is at most ``tol`` and it is stable on that
    span; else None (also at a degenerate root)."""
    basis, sv, _ = np.linalg.svd(np.array([vec for _, vec in system.flows]).T,
                                 full_matrices=False)
    span = basis[:, sv > 1e-12 * sv.max()]

    def linearised(x):   # the drift and its Jacobian on the span, by forward differences
        f, h = system.drift(x), 1e-7 * np.maximum(np.abs(x), 1.0)
        jac = np.column_stack([(system.drift(x + h[i] * e) - f) / h[i]
                               for i, e in enumerate(np.eye(len(x)))])
        return f, span.T @ jac @ span

    x = v
    for _ in range(50):
        f, jac = linearised(x)
        step = span @ np.linalg.lstsq(jac, -(span.T @ f), rcond=None)[0]
        if (x + step).min() < -tol:
            return None
        x = np.maximum(x + step, 0.0)
        if np.linalg.norm(step) <= 1e-12 * (1.0 + np.linalg.norm(x)):
            break
    f, jac = linearised(x)
    eig = np.linalg.eigvals(jac).real
    return x if np.linalg.norm(f) <= tol and eig.max() < -1e-6 * np.abs(eig).max() else None


def _empirical_from_hybrid(fast_system: HybridSystem, v0, mc: McConfig,
                           discrete) -> StationaryMeasure:
    """Grid-sampled time average for mixed jump/flow fast subsystems: every
    sample kept after the ``BURN_IN_FRAC`` burn-in is a state of unit
    weight, and ``np.array_split`` cuts them into ``N_BATCHES`` batches."""
    n_samples = min(int(mc.budget), 20_000)
    burn = int(n_samples * BURN_IN_FRAC)
    # horizon chosen from initial jump-rate scale
    rate0 = float(fast_system.jump_rates(np.asarray(v0, dtype=float)).sum())
    t_end = max(50.0, 20.0 * n_samples / max(rate0, 1.0))
    grid = np.linspace(0.0, t_end, n_samples + 1)[1:]
    traj = simulate_pdmp(fast_system, v0, t_end, record=grid, seed=mc.seed,
                         ode_config=mc.ode)
    keep = traj.states[burn:]
    batch = np.repeat(np.arange(N_BATCHES),
                      [len(rows) for rows in np.array_split(keep, N_BATCHES)])
    return StationaryMeasure("empirical", states=keep, weights=np.ones(len(keep)),
                             batch=batch, ess=len(keep),
                             n_events=int(traj.event_counts.sum()), discrete=discrete)


def constrained_start(basis: ConservedBasis, conserved_values, n_vars,
                      discrete) -> np.ndarray:
    """A nonnegative fast state on the constraint surface; integer when
    every fast variable is discrete."""
    theta = np.array(basis.vectors, dtype=float)
    target = np.asarray(conserved_values, dtype=float)
    v, *_ = np.linalg.lstsq(theta, target, rcond=None)
    v = np.maximum(v, 0.0)
    if all(discrete):
        v = np.rint(v)
        # greedy repair for rounding drift, one vector at a time: the gap
        # goes to the first support variable whose coefficient divides it
        # and which stays nonnegative
        for j, vec in enumerate(basis.vectors):
            gap = target[j] - float(np.dot(vec, v))
            if gap != 0:
                fit = next((i for i, x in enumerate(vec) if x != 0 and (gap / x).is_integer()
                            and v[i] + gap / x >= 0), None)
                if fit is None:
                    raise ModelError(f"no integer fast state with conserved value "
                                     f"{target[j]:g} found by rounding; supply v_f0 "
                                     f"explicitly")
                v[fit] += gap / vec[fit]
    if not np.allclose(theta @ v, target, atol=1e-9) or np.any(v < 0):
        raise ModelError("could not construct a state on the constraint surface; "
                         "supply v_f0 explicitly")
    return v


# ---------------------------------------------------------------------------
# the fast-tier stationary law: closed form, else Monte Carlo


def closed_form_measure(structs, discrete, conserved: ConservedBasis | None = None,
                        conserved_values=None) -> StationaryMeasure | None:
    """The exact stationary moments of an affine fast tier (every
    reaction mass action of total fast order at most 1), constrained to
    ``conserved_values`` of the conserved basis when one is given; None
    when the tier is not affine or its moments have no stable solution."""
    if any(fr.rate is not None or sum(fr.orders) > 1 for fr in structs):
        return None
    vectors = () if conserved is None or conserved.empty else tuple(map(tuple, conserved.vectors))
    key = (tuple((fr.orders, fr.column) for fr in structs), tuple(discrete), vectors)
    totals = conserved_values if vectors else ()
    try:
        moments = AffineMoments(key, np.array([fr.coeff for fr in structs]
                                              + [-float(t) for t in totals] + [1.0]))
    except AnalyticUnavailable:
        return None
    return StationaryMeasure("moments", moments=moments, discrete=discrete)


def montecarlo_measure(system: HybridSystem, v0, mc: McConfig,
                       discrete) -> StationaryMeasure:
    """Monte Carlo stationary law of a fast system started at ``v0``: a
    time average of a jump path, the fixed point of a flow, or a
    grid-sampled average of a hybrid path. A system with no active
    reaction is its start point."""
    if not system.flows:
        return _empirical_from_jump_paths(system, v0, mc, discrete)
    if not system.jumps:
        return _pointmass_from_flow(system, v0, mc, discrete)
    return _empirical_from_hybrid(system, v0, mc, discrete)


def fast_tier_system(classification: ScaleClassification, structs) -> HybridSystem:
    """The fast tier ``structs`` as a system of the fast variables: jumps
    for the reactions in ``fast_circ``, flows for the rest. A mass-action
    reaction's rate is :func:`model.mass_action_rate` of its coefficient
    and fast orders; an expression law is its opaque rate."""
    discrete = fast_discrete(classification)
    rates = {fr.k: fr.rate if fr.rate is not None else mass_action_rate(
        fr.coeff, [(j, n, discrete[j]) for j, n in enumerate(fr.orders) if n])
        for fr in structs}
    fast = classification.fast
    return hybrid_system(tuple(classification.network.species[i].name for i in fast.rows),
                         [(k, fast.column(k)) for k in sorted(rates)],
                         classification.k_sets["fast_circ"], rates.get)


def fast_stationary_law(classification: ScaleClassification, structs, mode: str,
                        mc: McConfig | None = None, conserved: ConservedBasis | None = None,
                        conserved_values=None, v0=None) -> StationaryMeasure:
    """Stationary law of the fast tier ``structs``. Mode 'analytic'
    insists on the closed form and raises AnalyticUnavailable otherwise;
    'montecarlo' always simulates :func:`fast_tier_system` from ``v0``
    (default: on the conservation surface, or the origin); 'auto' tries
    the closed form first and falls back explicitly."""
    discrete = fast_discrete(classification)
    if mode in ("auto", "analytic"):
        measure = closed_form_measure(structs, discrete, conserved, conserved_values)
        if measure is not None:
            return measure
        if mode == "analytic":
            raise AnalyticUnavailable("no closed-form stationary law for the fast tier")
    if v0 is None:
        if conserved is not None and not conserved.empty:
            v0 = constrained_start(conserved, conserved_values, len(discrete), discrete)
        else:
            v0 = np.zeros(len(discrete))
    return montecarlo_measure(fast_tier_system(classification, structs), v0,
                              mc or McConfig(), discrete)


def rate_kind(classification: ScaleClassification, structs, mode: str,
              conserved: ConservedBasis | None = None, closed: bool = True) -> str:
    """Kind of an averaged rate over the fast tier ``structs``, read with
    every frozen factor 1 so that no state zeroes a coefficient that is
    positive elsewhere: 'analytic' when the tier is affine with stable
    first moments (at unit conserved totals, :func:`closed_form_measure`)
    and ``closed`` says the rate averages in closed form over it, else
    'montecarlo', which mode 'analytic' refuses with AnalyticUnavailable."""
    if mode != "montecarlo" and closed:
        n_cons = 0 if conserved is None or conserved.empty else len(conserved.vectors)
        try:
            fast_stationary_law(classification, structs, "analytic", conserved=conserved,
                                conserved_values=np.ones(n_cons))
            return "analytic"
        except AnalyticUnavailable:
            pass
    if mode == "analytic":
        raise AnalyticUnavailable("no closed form for the fast stationary law")
    return "montecarlo"


def fast_discrete(classification: ScaleClassification) -> list[bool]:
    network = classification.network
    return [network.species[i].alpha == 0 for i in classification.fast.rows]


def stationary_fast(classification: ScaleClassification, frozen, mode: str = "auto",
                    mc: McConfig | None = None, conserved: ConservedBasis | None = None,
                    conserved_values=None, v_f0=None) -> StationaryMeasure:
    """Stationary measure of the fast subsystem given frozen slower
    context: :func:`fast_stationary_law` of the fast tier at ``frozen``."""
    if conserved is not None and not conserved.empty and conserved_values is None:
        raise ModelError("conserved_values required with a conserved basis")
    return fast_stationary_law(classification, fast_reaction_structs(classification, frozen),
                               mode, mc, conserved, conserved_values, v_f0)


def fast_subsystem(classification: ScaleClassification, frozen) -> HybridSystem:
    """Conditional fast dynamics: the fast species evolve by the effective
    fast matrix while every slower coordinate is frozen at ``frozen``, a
    full-length scaled state vector whose fast entries are ignored."""
    if classification.kind == "single":
        raise ModelError("conditional fast dynamics requires a multi-scale classification")
    if np.shape(frozen) != (classification.network.n_species,):
        raise ModelError("frozen context must be a full-length species vector")
    return fast_tier_system(classification, fast_reaction_structs(classification, frozen))


# ---------------------------------------------------------------------------
# averaged rates, nonspatial


@dataclass
class AveragedRate:
    """Evaluator for one reduced reaction rate.

    ``fn(reduced_state)`` returns the averaged rate; ``se(reduced_state)``
    its standard error (0 for closed forms). Both take a reduced state of
    length ``dim``, unchecked; a call and :meth:`standard_error` check the
    length. ``text`` carries a printable closed form when one exists.
    """

    reaction: int
    kind: str                    # 'analytic' | 'montecarlo'
    fn: object
    se: object
    dim: int
    text: str | None = None

    def __call__(self, state) -> float:
        return self.fn(self._checked(state))

    def standard_error(self, state) -> float:
        return self.se(self._checked(state))

    def _checked(self, state) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if state.shape != (self.dim,):
            raise ModelError(f"the rate of reaction {self.reaction + 1} takes a state of "
                             f"length {self.dim}, got shape {state.shape}")
        return state


# A Runge-Kutta step meets six new states and a middle-tier path a few
# dozen, so this holds every state still in use while bounding memory.
MEMO_SIZE = 256


class StateMemo:
    """Least-recently-used memo of an evaluator, keyed by the state
    rounded to 12 decimals and holding at most MEMO_SIZE states. The
    evaluators it serves are seeded, so an evicted state recomputes the
    same value."""

    def __init__(self, fn):
        self.fn = fn
        self.entries: OrderedDict = OrderedDict()

    def __call__(self, state):
        key = tuple(np.round(state, 12))
        if key in self.entries:
            self.entries.move_to_end(key)
            return self.entries[key]
        value = self.fn(state)
        self.entries[key] = value
        if len(self.entries) > MEMO_SIZE:
            self.entries.popitem(last=False)
        return value


def memoized_rate(k: int, kind: str, evaluate, dim: int) -> AveragedRate:
    """AveragedRate over ``evaluate(state) -> (value, se)`` of states of
    length ``dim``; the value and its standard error come from one
    evaluation."""
    memo = StateMemo(lambda state: tuple(float(x) for x in evaluate(state)))
    return AveragedRate(k, kind,
                        fn=lambda v: memo(np.asarray(v, dtype=float))[0],
                        se=lambda v: memo(np.asarray(v, dtype=float))[1], dim=dim)


def _identity_rate(network: Network, k: int, frozen_of=None, dim=None) -> AveragedRate:
    """Reaction k's own rate law, of the full state or of ``frozen_of(v)``
    for a reduced state ``v`` of length ``dim``."""
    base = scaled_rate_function(network, k)
    fn = base if frozen_of is None else (lambda v: base(frozen_of(v)))
    return AveragedRate(k, "analytic", fn=fn, se=lambda v: 0.0,
                        dim=network.n_species if frozen_of is None else dim,
                        text=_mass_action_text(network, k))


def _mass_action_text(network: Network, k: int) -> str | None:
    reaction = network.reactions[k]
    if not isinstance(reaction.rate_law, MassAction):
        return None
    factors = [f"k{k + 1}"]
    for i, n in reaction.reactants:
        factors.extend(_species_factor_texts(network, i, n))
    return "*".join(factors)


def _rate_text(network: Network, structs, fast_rows, k, slow_terms,
               fast_orders) -> str | None:
    """Printable closed form over a birth-death fast tier, e.g.
    ``k1*k2*vA/(k3+k1*vA)``: every fast reaction is a birth (order 0) or
    a death (order 1 in the variable it removes) of one variable, so each
    variable's law is Poisson (or a point mass) of mean births over
    deaths. None for any other tier shape, or when a variable the rate
    reads has no birth; only the shape of ``structs`` is read."""
    birth_terms, death_terms = [[] for _ in fast_rows], [[] for _ in fast_rows]
    for fr in structs:
        changed = [j for j, c in enumerate(fr.column) if c]
        if len(changed) != 1:
            return None
        j = changed[0]
        if (fr.column[j], sum(fr.orders), fr.orders[j]) not in ((1, 0, 0), (-1, 1, 1)):
            return None
        term = _coeff_text(network, fr.k, fast_rows)
        (birth_terms[j] if fr.column[j] == 1 else death_terms[j]).append(term)
    if any(n and not birth_terms[j] for j, n in enumerate(fast_orders)):
        return None
    numerator = [f"k{k + 1}"]
    denominators = []
    for i, n, _ in slow_terms:
        numerator.extend(_species_factor_texts(network, i, n))
    for j, n in enumerate(fast_orders):
        for _ in range(n):
            birth = "+".join(sorted(birth_terms[j], key=_term_sort_key))
            death = "+".join(sorted(death_terms[j], key=_term_sort_key))
            numerator.append(birth if "+" not in birth else f"({birth})")
            denominators.append(death)
    text = "*".join(sorted(numerator, key=_symbol_sort_key))
    for d in denominators:
        text += f"/({d})"
    return text


def _species_factor_texts(network: Network, i: int, n: int) -> list[str]:
    name = f"v{network.species[i].name}"
    if network.species[i].alpha == 0:
        return [name] + [f"({name}-{j})" for j in range(1, n)]
    return [name] if n == 1 else [f"{name}^{n}"]


def _coeff_text(network: Network, k: int, fast_rows) -> str:
    """kappa symbol times frozen reactant symbols, fast variables omitted
    (their order is carried by the birth-death variable itself)."""
    parts = [f"k{k + 1}"]
    for i, n, _ in split_reactants(network, k, fast_rows)[1]:
        parts.extend(_species_factor_texts(network, i, n))
    return "*".join(sorted(parts, key=_symbol_sort_key))


def _symbol_sort_key(token: str):
    if token.startswith("k") and token[1:].isdigit():
        return (0, int(token[1:]), token)
    if token.startswith("v"):
        return (1, 0, token)
    return (2, 0, token)


def _term_sort_key(term: str):
    return (term.count("*"), _symbol_sort_key(term.split("*")[0]), term)


def fast_average(network: Network, k: int, measure: StationaryMeasure, frozen,
                 fast_rows) -> tuple[float, float]:
    """(E, se) of reaction k's rate over a fast stationary ``measure``,
    slower species held at ``frozen``: factorial moments for mass action,
    power moments for an expression law over a moment law (which raises
    AnalyticUnavailable unless :func:`_fast_polynomial` gives the law as
    a polynomial in the fast species), the compiled law on completed
    states otherwise."""
    law = network.reactions[k].rate_law
    if isinstance(law, MassAction):
        orders, frozen_terms = split_reactants(network, k, fast_rows)
        return measure.expect_mass_action(mass_action_rate(law.kappa, frozen_terms)(frozen),
                                          orders)
    if measure.variant == "moments":
        return _polynomial_average(network, k, measure, frozen, fast_rows), 0.0
    rate_fn = scaled_rate_function(network, k)

    def integrand(z):
        full = frozen.copy()
        full[fast_rows] = z
        return rate_fn(full)

    return measure.expect(integrand)


def _fast_polynomial(network: Network, k: int, fast_rows, frozen=None):
    """Reaction k's expression law as a polynomial in the fast species
    (exponents -> coefficient), every other species at ``frozen`` or, by
    default, at 1 as :func:`rate_kind` reads a tier. The law is closed
    while a discrete reactant is below its order: a frozen one gives the
    zero polynomial, and a fast one of order n must leave no coefficient
    at the counts 0, ..., n - 1. None otherwise, or when the law is not
    polynomial in the fast species: no closed-form average."""
    values = np.ones(network.n_species) if frozen is None else frozen
    env = {s.name: values[i] for i, s in enumerate(network.species)}
    try:
        poly = expressions.as_polynomial(network.reactions[k].rate_law.ast,
                                         [network.species[i].name for i in fast_rows], env)
    except expressions.PolynomialError:
        return None
    fast = list(fast_rows)
    gated = [(i, n) for i, n in network.reactions[k].reactants if network.species[i].alpha == 0]
    for j, n in [(fast.index(i), n) for i, n in gated if i in fast]:
        for count in range(n):
            rest = {}
            for exponents, coeff in poly.items():
                key = exponents[:j] + exponents[j + 1:]
                rest[key] = rest.get(key, 0.0) + coeff * count ** exponents[j]
            if any(rest.values()):
                return None
    return {} if any(i not in fast and values[i] < n for i, n in gated) else poly


def _polynomial_average(network: Network, k: int, measure: StationaryMeasure, frozen,
                        fast_rows) -> float:
    """Closed-form average of an expression law polynomial in the fast
    species, through the power moments of a moment law."""
    poly = _fast_polynomial(network, k, fast_rows, frozen)
    if poly is None:
        raise AnalyticUnavailable("expression rate has no polynomial form in the fast species")
    out = sum(coeff * measure.moments.power(exponents) for exponents, coeff in poly.items())
    if out < 0:
        raise RateEvaluationError(f"averaged rate is negative: {out}")
    return out


def _freezer(network: Network, base, slow_rows):
    """Map a reduced state to a full species vector: its leading entries
    at ``slow_rows``, every other species at ``base`` (zeros by default)."""
    base_vec = np.zeros(network.n_species) if base is None else np.asarray(base, dtype=float)
    rows = list(slow_rows)

    def frozen_of(reduced_state):
        frozen = base_vec.copy()
        frozen[rows] = reduced_state[:len(rows)]
        return frozen

    return frozen_of


def averaged_rate_two_scale(classification: ScaleClassification, k: int,
                            mode: str = "auto", base=None,
                            mc: McConfig | None = None,
                            conserved: ConservedBasis | None = None) -> AveragedRate:
    """Averaged rate of slow (or conserved-driving) reaction k.

    The evaluator takes the reduced state: slow species in row order,
    then conserved totals when a basis is given. Closed form when the
    fast stationary law has one (by :func:`rate_kind`) and the rate is
    mass action or, without conserved quantities, polynomial in the fast
    species; a closed form lost at some state raises AnalyticUnavailable
    there. Monte Carlo with reported standard errors otherwise. Never
    falls back silently: mode 'analytic' raises AnalyticUnavailable
    instead of simulating.
    """
    mc = mc or McConfig()
    network = classification.network
    fast_rows = list(classification.fast.rows)
    n_slow = len(classification.slow.rows)
    basis = conserved if conserved is not None and not conserved.empty else None
    frozen_of = _freezer(network, base, classification.slow.rows)
    mass_action = isinstance(network.reactions[k].rate_law, MassAction)
    shape = fast_reaction_structs(classification, None)
    closed = mass_action or (basis is None and _fast_polynomial(network, k, fast_rows) is not None)
    kind = rate_kind(classification, shape, mode, basis, closed)

    def evaluate(reduced_state):
        frozen = frozen_of(reduced_state)
        values = None if basis is None else reduced_state[n_slow:]
        measure = stationary_fast(classification, frozen, mode=kind, mc=mc,
                                  conserved=basis, conserved_values=values)
        return fast_average(network, k, measure, frozen, fast_rows)

    rate = memoized_rate(k, kind, evaluate, n_slow + (0 if basis is None else len(basis.vectors)))
    if kind == "analytic" and mass_action and basis is None:
        orders, slow_terms = split_reactants(network, k, fast_rows)
        rate.text = _rate_text(network, shape, fast_rows, k, slow_terms, orders)
    return rate


def averaged_rate_three_scale(classification: ScaleClassification, k: int,
                              mode: str = "auto", base=None,
                              mc: McConfig | None = None) -> AveragedRate:
    """Doubly averaged rate for a three-scale system.

    The fastest tier is averaged first, given frozen middle and slow
    coordinates, by :func:`stationary_fast` under ``mode`` (its Monte
    Carlo runs at a tenth of the budget, at least 2000, with its own seed
    and the caller's ODE settings); the result is then averaged over the
    stationary law of the middle tier, estimated by
    :func:`montecarlo_measure` along the middle path with the inner
    rates plugged in. Standard errors from the two levels combine in
    quadrature. A rate touching neither faster tier passes through
    unchanged.
    """
    mc = mc or McConfig()
    if classification.kind != "three":
        raise ModelError("three-scale averaging needs a three-scale system")
    network = classification.network
    reaction = network.reactions[k]
    fast_rows = list(classification.fast.rows)
    middle_rows = list(classification.middle.rows)
    frozen_of = _freezer(network, base, classification.slow.rows)

    touches = {i for i, _ in reaction.reactants}
    if isinstance(reaction.rate_law, Expression):
        touches |= {network.index[name]
                    for name in expressions.variables(reaction.rate_law.ast)}
    if not (touches & set(fast_rows)) and not (touches & set(middle_rows)):
        return _identity_rate(network, k, frozen_of, len(classification.slow.rows))

    inner_mc = replace(mc, budget=max(mc.budget // 10, 2000), seed=mc.seed + 13)
    inner = StateMemo(lambda frozen: stationary_fast(classification, frozen, mode=mode,
                                                     mc=inner_mc))
    # a law with no closed-form average over a moment law takes the Monte
    # Carlo law of the inner tier in mode 'auto' (mode 'analytic' refuses it)
    inner_mc_law = StateMemo(lambda frozen: stationary_fast(classification, frozen,
                                                            mode="montecarlo", mc=inner_mc))
    closed = functools.cache(lambda kk: isinstance(network.reactions[kk].rate_law, MassAction)
                             or _fast_polynomial(network, kk, fast_rows) is not None)
    middle_discrete = [network.species[i].alpha == 0 for i in middle_rows]
    labels = tuple(network.species[i].name for i in middle_rows)
    middle_columns = [(kk, classification.middle.column(kk))
                      for kk in sorted(classification.k_sets["middle"])]

    def evaluate(reduced_state):
        frozen = frozen_of(reduced_state)

        def tilde_rate(kk, v_m):
            """Fast-tier average of reaction kk at middle state v_m."""
            full = frozen.copy()
            full[middle_rows] = v_m
            measure = inner(full)
            if mode == "auto" and measure.variant == "moments" and not closed(kk):
                measure = inner_mc_law(full)
            return fast_average(network, kk, measure, full, fast_rows)

        # middle-tier path with fast-averaged rates
        system = hybrid_system(labels, middle_columns, classification.k_sets["middle_circ"],
                               lambda kk: lambda v_m: tilde_rate(kk, v_m)[0])
        outer = montecarlo_measure(system, np.zeros(len(middle_rows)), mc, middle_discrete)
        value, se_outer = outer.expect(lambda v_m: tilde_rate(k, v_m)[0])
        se_inner, _ = outer.expect(lambda v_m: tilde_rate(k, v_m)[1])
        return value, math.hypot(np.max(se_outer), np.max(se_inner))

    # the outer middle-tier average is a time average even when the
    # fastest tier has a closed form, so the estimate always carries noise
    return memoized_rate(k, "montecarlo", evaluate, len(classification.slow.rows))
