"""Equilibrium measures and averaged rates.

Reduction replaces every faster tier by its equilibrium: molecule
positions by movement equilibria and their multinomial/point-mass
product measures, fast subsystems by stationary measures. Slow-reaction
rates are then integrated against those measures, always with a
reported standard error.

A fast tier at a frozen context is described once, as a list of
``FastReaction``: a mass-action reaction by its coefficient (frozen
factors folded in, by ``split_reactants``) and its fast orders, an
expression law as an opaque rate. ``fast_stationary_law`` turns the list
into a stationary law under a mode: ``closed_form_measure`` tries the
closed form, and otherwise ``montecarlo_measure`` runs the estimator for
the jump, flow or hybrid system that ``fast_tier_system`` builds from
the same list. ``rate_kind`` decides once per rate whether it is a
closed form, on the list read with every frozen factor 1. Nonspatial
two-scale rates, the inner tier of the three-scale average and the
spatial cases 1-4 all use it; the three-scale middle tier runs
``montecarlo_measure`` on a system of its own.

A jump-only fast system is time-averaged along one path of
``pdmp.JumpChain``: the direct method of the stochastic engine over a
Python list of the coordinates, walking a bounded graph of the states
met, so a jump back into a known state is a channel choice and a
pointer move. In a new state only the rates that read a changed
coordinate are recomputed: mass-action rates on the list, expression
laws and the three-scale middle tier as opaque rates on an array. The
chain sums the time average (``pdmp.Occupation``) in each jump's one
callback, so only each batch's distinct states are held.

Every mass-action law here, from the frozen coefficient of a fast
reaction to the expectation over an empirical law, is built by
:func:`model.mass_action_rate`, the one mass-action formula, and
evaluated over arrays of states by :class:`model.MassActionRows`. The
closed forms rest on two factorial-moment identities: a Poisson
variable with mean m has E[x(x-1)...(x-n+1)] = m^n, and a Binomial(s, p)
count has E[x(x-1)...(x-n+1)] = s(s-1)...(s-n+1) p^n. Both mesh exactly
with the mixed mass-action form, where discrete species enter through
falling factorials and continuous species through plain powers.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import rng as rng_mod
from .classify import ScaleClassification, ConservedBasis
from .errors import (AnalyticUnavailable, EventCapExceeded, IsolatedSpeciesError, ModelError,
                     NonErgodicSuspected, RateEvaluationError)
from .exact import stationary_distribution
from .model import (Expression, MassAction, MassActionRows, Network, SpatialModel,
                    falling_factorial, mass_action_rate, scaled_rate_function)
from .pdmp import HybridSystem, JumpChain, Occupation, OdeConfig, simulate_pdmp, tier_system


# ---------------------------------------------------------------------------
# movement equilibria and product measures


@dataclass(frozen=True)
class MovementEquilibrium:
    """Stationary law of one molecule's compartment-hopping chain."""

    species: int
    pi: tuple[Fraction, ...]

    def as_floats(self) -> np.ndarray:
        return np.array([float(p) for p in self.pi])


def movement_equilibrium(spatial_model: SpatialModel, species: int) -> MovementEquilibrium:
    """Solve pi Q = 0, sum pi = 1 exactly for the species' movement rates."""
    nd = spatial_model.n_compartments
    if nd == 1:
        return MovementEquilibrium(species, (Fraction(1),))
    rates = spatial_model.movement[species]
    pi = stationary_distribution([[rates[i][j] for j in range(nd)] for i in range(nd)])
    return MovementEquilibrium(species, tuple(pi))


def all_movement_equilibria(spatial_model: SpatialModel) -> list[MovementEquilibrium]:
    return [movement_equilibrium(spatial_model, i)
            for i in range(spatial_model.network.n_species)]


class ProductMeasure:
    """Joint equilibrium of molecule positions given species totals.

    Discrete species (alpha = 0) spread multinomially over compartments,
    continuous species sit deterministically at pi-proportional shares.
    Exposes a sampler and, for small supports, an exact summation
    iterator over (positions, probability) pairs.
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

    def support_size(self) -> float:
        size = 1.0
        nd = self.n_compartments
        for j, a in enumerate(self.alphas):
            if a == 0:
                size *= math.comb(int(self.totals[j]) + nd - 1, nd - 1)
        return size

    def support(self, cap: float = 1_000_000.0):
        """Iterate (positions matrix, probability); None when too large."""
        if self.support_size() > cap:
            return None
        nd = self.n_compartments
        return self._support_rec(0, np.zeros((len(self.species), nd)), 1.0)

    def _support_rec(self, j, matrix, prob):
        if j == len(self.species):
            yield matrix.copy(), prob
            return
        if self.alphas[j] != 0:
            matrix[j] = self.totals[j] * self.pis[j]
            yield from self._support_rec(j + 1, matrix, prob)
            return
        total = int(self.totals[j])
        pj = self.pis[j]
        for combo, p in _multinomial_support(total, pj):
            matrix[j] = combo
            yield from self._support_rec(j + 1, matrix, prob * p)

    def expect(self, g, seed: int, draws: int, cap: float = 1_000_000.0):
        """(E[g], standard error) over positions; ``g`` maps a positions
        matrix to (value, se). Exact summation while the support is under
        ``cap``, otherwise ``draws`` samples from the stream of ``seed``."""
        support = self.support(cap=cap)
        if support is not None:
            value = 0.0
            var = 0.0
            for positions, prob in support:
                val, se = g(positions)
                value += prob * val
                var += (prob * se) ** 2
            return value, math.sqrt(var)
        rng = rng_mod.stream(seed)
        vals = np.empty(draws)
        ses = np.empty(draws)
        for r in range(draws):
            vals[r], ses[r] = g(self.sample(rng))
        se_outer = vals.std(ddof=1) / math.sqrt(draws)
        return float(vals.mean()), float(math.hypot(se_outer, ses.mean()))


def _multinomial_support(total: int, probs: np.ndarray):
    nd = len(probs)

    def rec(pos, remaining, combo, coeff):
        if pos == nd - 1:
            combo[pos] = remaining
            p = coeff * math.comb(sum(combo[:pos]) + remaining, remaining) \
                * probs[pos] ** remaining
            yield list(combo), p
            return
        for n in range(remaining + 1):
            combo[pos] = n
            yield from rec(pos + 1, remaining - n, combo,
                           coeff * math.comb(sum(combo[:pos + 1]), n) * probs[pos] ** n)

    # probability of a composition (n_1..n_D): total!/(prod n_d!) prod p^n;
    # built incrementally through binomial factors
    yield from rec(0, total, [0] * nd, 1.0)


def product_measure(spatial_model: SpatialModel, totals,
                    species: tuple[int, ...] | None = None,
                    equilibria: list[MovementEquilibrium] | None = None) -> ProductMeasure:
    network = spatial_model.network
    if species is None:
        species = tuple(range(network.n_species))
    if equilibria is None:
        equilibria = [movement_equilibrium(spatial_model, i) for i in species]
    pis = [eq.as_floats() for eq in equilibria]
    alphas = [network.species[i].alpha for i in species]
    return ProductMeasure(species, totals, pis, alphas)


# ---------------------------------------------------------------------------
# stationary measures of fast subsystems


@dataclass(frozen=True)
class StationaryComponent:
    kind: str    # 'poisson' | 'dirac'
    mean: float

    def factorial_moment(self, n: int) -> float:
        """E of the falling factorial (poisson) / plain power (dirac)."""
        return self.mean ** n

    def raw_moment(self, n: int) -> float:
        if self.kind == "dirac" or n <= 1:
            return self.mean ** n
        # Touchard: E[X^n] = sum_k S(n, k) m^k for X ~ Poisson(m)
        return sum(_stirling2(n, k) * self.mean ** k for k in range(n + 1))


def _stirling2(n: int, k: int) -> int:
    if k in (0, n):
        return 1 if n == k else (1 if n == 0 else 0)
    if k > n or k == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@dataclass(frozen=True)
class MultinomialBlock:
    """Constrained stationary law of a closed unary-conversion block: the
    conserved total spreads multinomially over the block's species."""

    positions: tuple[int, ...]      # variable indices within the fast state
    total: float
    probs: tuple[float, ...]


class StationaryMeasure:
    """Stationary law of a fast subsystem in one of three shapes.

    variant 'product': independent per-variable components (Poisson for
    discrete, point mass for continuous), optionally with multinomial
    blocks for conserved unary-conversion groups. variant 'pointmass':
    a single state. variant 'empirical': a time average split into
    batches for standard errors, held as three arrays, as a jump path's
    :class:`pdmp.Occupation` builds them: ``states`` lists each batch's
    distinct states in first-visit order, ``weights`` each state's
    summed time weight and ``batch`` each row's batch index; ``n_events``
    counts its fast events and, on a jump path, ``rate_evals`` the jumps
    that evaluated rates.
    ``discrete`` marks the variables of a point mass or empirical law
    whose mass-action orders enter as falling factorials.
    """

    def __init__(self, variant: str, *, components=None, blocks=None, point=None,
                 states=None, weights=None, batch=None, ess=None, n_events=None,
                 rate_evals=None, discrete=None):
        self.variant = variant
        self.components: tuple[StationaryComponent, ...] | None = components
        self.blocks: tuple[MultinomialBlock, ...] = tuple(blocks or ())
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
        if self.components is not None:
            return len(self.components)
        if self.point is not None:
            return len(self.point)
        if self.states is not None:
            return self.states.shape[1]
        raise ModelError("measure has no dimension")

    # -- expectations ------------------------------------------------------

    def mean_vector(self) -> np.ndarray:
        if self.variant == "product":
            out = np.array([c.mean for c in self.components])
            for block in self.blocks:
                for pos, p in zip(block.positions, block.probs):
                    out[pos] = block.total * p
            return out
        value, _ = self.expect(lambda z: np.array(z, dtype=float))
        return value

    def expect(self, fn):
        """(E[fn], standard error); fn maps a state vector to a float or array."""
        if self.variant == "pointmass":
            return fn(self.point), 0.0
        if self.variant == "empirical":
            return self._batch_means([fn(state) for state in self.states])
        return self._expect_product_sampling(fn)

    def expect_mass_action(self, coeff: float, orders) -> tuple[float, float]:
        """(E, se) of the mass-action law ``coeff`` times each fast
        variable j at its reactant multiplicity ``orders[j]``: discrete
        variables contribute falling factorials and continuous ones plain
        powers, matching the component kinds exactly. A product law has
        the closed form; an empirical one evaluates the row form of
        :func:`model.mass_action_rate` over all its states at once
        (:class:`model.MassActionRows`), and a point mass the law itself.
        """
        orders = np.asarray(orders, dtype=int)
        if self.variant == "product":
            out = coeff
            in_block = {}
            for b, block in enumerate(self.blocks):
                for pos in block.positions:
                    in_block[pos] = b
            block_orders: dict[int, list] = {}
            for j, n in enumerate(orders):
                if not n:
                    continue
                if j in in_block:
                    block_orders.setdefault(in_block[j], []).append((j, n))
                else:
                    out *= self.components[j].factorial_moment(n)
            for b, entries in block_orders.items():
                block = self.blocks[b]
                total_order = sum(n for _, n in entries)
                out *= falling_factorial(block.total, total_order)
                for j, n in entries:
                    p = block.probs[block.positions.index(j)]
                    out *= p ** n
            return out, 0.0
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

    def _expect_product_sampling(self, fn, draws: int = 4096, seed: int = 1234):
        rng = rng_mod.stream(seed)
        dim = self.dim
        samples = np.empty((draws, dim))
        for j, comp in enumerate(self.components):
            if comp.kind == "poisson":
                samples[:, j] = rng.poisson(comp.mean, size=draws)
            else:
                samples[:, j] = comp.mean
        for block in self.blocks:
            counts = rng.multinomial(int(block.total), block.probs, size=draws)
            for idx, pos in enumerate(block.positions):
                samples[:, pos] = counts[:, idx]
        values = np.array([fn(s) for s in samples])
        return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(draws)


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


def detect_birth_death(reactions, discrete) -> list[StationaryComponent] | None:
    """Independent linear birth-death detection, deliberately narrow.

    Succeeds only when every fast reaction changes exactly one variable
    by +-1 and its rate is constant (birth) or proportional to that same
    variable (death). Returns per-variable components: Poisson for
    discrete variables, point mass (the flow fixed point) for continuous
    ones. None when the structure does not match.
    """
    n = len(discrete)
    births = [0.0] * n
    deaths = [0.0] * n
    zero = tuple([0] * n)
    for fr in reactions:
        nz = [j for j, c in enumerate(fr.column) if c != 0]
        if len(nz) != 1:
            return None
        j = nz[0]
        change = fr.column[j]
        if change == 1:
            if fr.orders != zero:
                return None
            births[j] += fr.coeff
        elif change == -1:
            expected = tuple(1 if i == j else 0 for i in range(n))
            if fr.orders != expected:
                return None
            deaths[j] += fr.coeff
        else:
            return None
    components = []
    for j in range(n):
        if deaths[j] <= 0.0:
            # pure accumulation has no stationary law; a variable with no
            # active rates at all keeps its initial value (point mass),
            # which the closed form cannot express
            return None
        components.append(StationaryComponent(
            "poisson" if discrete[j] else "dirac", births[j] / deaths[j]))
    return components


def detect_conversion_blocks(reactions, basis_vectors, totals, discrete):
    """Constrained analytic stationary: closed unary-conversion blocks.

    When the conservation vectors are disjoint 0/1 vectors and every fast
    reaction converts one unit of a block species into another with a
    rate linear in the source, molecules of a block move independently;
    the constrained stationary law is Multinomial(total, per-molecule
    stationary). Returns blocks or None.
    """
    n = len(discrete)
    if not all(all(x in (0, 1) for x in vec) for vec in basis_vectors):
        return None
    owner = [None] * n
    for b, vec in enumerate(basis_vectors):
        for j, x in enumerate(vec):
            if x:
                if owner[j] is not None:
                    return None
                owner[j] = b
    if any(owner[j] is None for j in range(n)):
        return None
    if not all(discrete):
        return None
    conv = [dict() for _ in basis_vectors]   # (src, dst) -> rate
    for fr in reactions:
        nz = [j for j, c in enumerate(fr.column) if c != 0]
        if len(nz) != 2:
            return None
        a, b = nz
        if {fr.column[a], fr.column[b]} != {-1, 1}:
            return None
        src = a if fr.column[a] == -1 else b
        dst = b if src == a else a
        if owner[src] != owner[dst]:
            return None
        expected = tuple(1 if i == src else 0 for i in range(n))
        if fr.orders != expected:
            return None
        key = (src, dst)
        conv[owner[src]][key] = conv[owner[src]].get(key, 0.0) + fr.coeff
    blocks = []
    for b, vec in enumerate(basis_vectors):
        positions = tuple(j for j, x in enumerate(vec) if x)
        local = {p: i for i, p in enumerate(positions)}
        m = len(positions)
        rates = [[0.0] * m for _ in range(m)]
        for (src, dst), rate in conv[b].items():
            rates[local[src]][local[dst]] = rate
        try:
            pi = stationary_distribution(rates)
        except IsolatedSpeciesError:
            if m == 1:
                pi = [Fraction(1)]
            else:
                return None
        except Exception:
            return None
        blocks.append(MultinomialBlock(positions, float(totals[b]),
                                       tuple(float(p) for p in pi)))
    return blocks


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


@dataclass
class McConfig:
    budget: int = 100_000        # events (jump systems) or samples (hybrid)
    burn_in_frac: float = 0.2
    n_batches: int = 16          # a batch-means SE needs two batches
    ess_threshold: int = 100
    seed: int = 0
    ode: OdeConfig | None = None

    def __post_init__(self):
        for holds, rule in ((self.budget >= 1, "budget >= 1"),
                            (0 <= self.burn_in_frac < 1, "0 <= burn_in_frac < 1"),
                            (self.n_batches >= 2, "n_batches >= 2"),
                            (self.ess_threshold >= 0, "ess_threshold >= 0")):
            if not holds:   # NaN fails too
                raise ModelError(f"McConfig needs {rule}")


def _occupation(batches, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :meth:`pdmp.Occupation.arrays` of ``batches`` of raw (rows,
    weights) visits, each batch summed as a :class:`pdmp.JumpChain` sums it."""
    occupation = Occupation(None)
    for rows, weights in batches:
        acc = occupation.batches[-1]
        for state, weight in zip(map(tuple, rows), weights):
            acc[state] = acc.get(state, 0.0) + weight
        occupation.batches.append({})
    return occupation.arrays(dim)


def _empirical_from_jump_paths(fast_system: HybridSystem, v0, mc: McConfig,
                               discrete) -> StationaryMeasure:
    """Chunked time-average of a pure-jump fast path.

    The path runs on one :class:`pdmp.JumpChain` in chunks, each on a
    fresh block of uniforms from the one stream of ``mc.seed``, with a
    horizon of 1.2 times ``chunk_events`` mean waits at the chunk's
    starting total rate; a chunk that passes the larger of the budget
    and ten times ``chunk_events`` raises NonErgodicSuspected, so a
    rate that keeps growing holds bounded memory. The budget counts
    events burn-in inclusive; the first ``burn_in_frac`` of them are
    discarded. Each later visit of positive duration weights its state
    by that duration (:class:`pdmp.Occupation`), and every ``(budget -
    burn-in) / n_batches`` visits make a batch for batch-means errors.
    A chunk splits the visit it ends in two, one without an event adds none.
    """
    rng = rng_mod.stream(mc.seed)
    budget = int(mc.budget)
    burn_events = int(budget * mc.burn_in_frac)
    occupation = Occupation(max(1, (budget - burn_events) // mc.n_batches), burn_events)
    chain = JumpChain(fast_system, v0, occupation)
    total_rate = float(np.array(chain.rates()).sum())
    if total_rate <= 0:
        return StationaryMeasure("pointmass", point=chain.key, discrete=discrete)
    chunk_events = max(200, budget // (4 * mc.n_batches))
    # a chunk's horizon comes from its starting rate, so a tier whose
    # rate keeps growing would run on in one chunk; past this many
    # events it has no stationary law worth the budget
    chunk_cap = max(budget, 10 * chunk_events)

    # run until the budget is spent or the chain is absorbed (total rate 0)
    while occupation.events < budget and total_rate > 0:
        horizon = chunk_events / max(total_rate, 1e-12) * 1.2
        try:
            chain.run(horizon, rng_mod.Buffered(rng), max_events=chunk_cap)
        except EventCapExceeded:
            raise NonErgodicSuspected(
                f"a chunk of the fast path passed {chunk_cap} events, against about "
                f"{chunk_events} at its starting total rate {total_rate}: the rate "
                "grows without settling") from None
        total_rate = float(np.array(chain.rates()).sum())

    if total_rate <= 0:
        # time average of an absorbed chain is the absorbing state
        return StationaryMeasure("pointmass", point=chain.key, discrete=discrete)
    post_events = occupation.events - burn_events
    if post_events < mc.ess_threshold:
        raise NonErgodicSuspected(
            f"only {post_events} post-burn-in events (threshold {mc.ess_threshold})")
    states, weights, batch = occupation.arrays(fast_system.dim)
    return StationaryMeasure("empirical", states=states, weights=weights, batch=batch,
                             ess=post_events, n_events=occupation.events,
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
    """Grid-sampled time average for mixed jump/flow fast subsystems."""
    rng = rng_mod.stream(mc.seed)
    n_samples = min(int(mc.budget), 20_000)
    burn = int(n_samples * mc.burn_in_frac)
    # horizon chosen from initial jump-rate scale
    rate0 = float(fast_system.jump_rates(np.asarray(v0, dtype=float)).sum())
    t_end = max(50.0, 20.0 * n_samples / max(rate0, 1.0))
    grid = np.linspace(0.0, t_end, n_samples + 1)[1:]
    traj = simulate_pdmp(fast_system, v0, t_end, record=grid, rng=rng,
                         ode_config=mc.ode)
    keep = traj.states[burn:]
    chunks = np.array_split(keep, mc.n_batches)
    states, weights, batch = _occupation(((rows.tolist(), [1.0] * len(rows))
                                         for rows in chunks), fast_system.dim)
    return StationaryMeasure("empirical", states=states, weights=weights, batch=batch,
                             ess=len(keep), n_events=int(traj.event_counts.sum()),
                             discrete=discrete)


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
    """Closed-form stationary law of a fast tier, or None: an independent
    linear birth-death family without a conserved basis, closed
    unary-conversion blocks (multinomial laws of ``conserved_values``)
    with one. A tier with an expression law has none."""
    if any(fr.rate is not None for fr in structs):
        return None
    if conserved is None or conserved.empty:
        comps = detect_birth_death(structs, discrete)
        return None if comps is None else StationaryMeasure("product",
                                                            components=tuple(comps))
    blocks = detect_conversion_blocks(structs, conserved.vectors, conserved_values,
                                      discrete)
    if blocks is None:
        return None
    comps = tuple(StationaryComponent("poisson" if d else "dirac", 0.0) for d in discrete)
    return StationaryMeasure("product", components=comps, blocks=blocks)


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
    network = classification.network
    return tier_system(tuple(network.species[i].name for i in classification.fast.rows),
                       classification.fast, rates, classification.k_sets["fast_circ"],
                       rates.get)


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
    positive elsewhere: 'analytic' when the tier has a closed-form law
    (at unit conserved totals) and ``closed`` says the rate averages in
    closed form over it, else 'montecarlo', which mode 'analytic' refuses
    with AnalyticUnavailable."""
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


def simulate_conditional_fast(classification: ScaleClassification, frozen, v_f0,
                              t_end: float, **options):
    """Simulate the fast species conditional on frozen slow coordinates,
    ``options`` as in :func:`pdmp.simulate_pdmp`; conserved combinations
    of the fast tier stay exactly constant."""
    return simulate_pdmp(fast_subsystem(classification, frozen), v_f0, t_end, **options)


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
               fast_orders) -> str:
    """Printable closed form over a birth-death fast tier, e.g.
    ``k1*k2*vA/(k3+k1*vA)``; only the shape of ``structs`` is read."""
    numerator = [f"k{k + 1}"]
    denominators = []
    for i, n, _ in slow_terms:
        numerator.extend(_species_factor_texts(network, i, n))
    birth_terms = [[] for _ in fast_rows]
    death_terms = [[] for _ in fast_rows]
    for fr in structs:
        j = next(idx for idx, c in enumerate(fr.column) if c != 0)
        term = _coeff_text(network, fr.k, fast_rows)
        (birth_terms[j] if fr.column[j] == 1 else death_terms[j]).append(term)
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
    the compiled law on completed states otherwise."""
    law = network.reactions[k].rate_law
    if isinstance(law, MassAction):
        orders, frozen_terms = split_reactants(network, k, fast_rows)
        return measure.expect_mass_action(mass_action_rate(law.kappa, frozen_terms)(frozen),
                                          orders)
    rate_fn = scaled_rate_function(network, k)

    def integrand(z):
        full = frozen.copy()
        full[fast_rows] = z
        return rate_fn(full)

    return measure.expect(integrand)


def _polynomial_average(network: Network, k: int, measure: StationaryMeasure, frozen,
                        fast_rows) -> float:
    """Closed-form average of an expression law polynomial in the fast
    species, through raw moments of a product measure's components."""
    from . import expressions
    fast_names = [network.species[i].name for i in fast_rows]
    env = {s.name: frozen[i] for i, s in enumerate(network.species)}
    try:
        poly = expressions.as_polynomial(network.reactions[k].rate_law.ast, fast_names, env)
    except expressions.PolynomialError:
        raise AnalyticUnavailable("expression rate is not polynomial in the fast species")
    out = 0.0
    for exponents, coeff in poly.items():
        term = coeff
        for j, n in enumerate(exponents):
            if n:
                term *= measure.components[j].raw_moment(n)
        out += term
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
    kind = rate_kind(classification, shape, mode, basis, mass_action or basis is None)

    def evaluate(reduced_state):
        frozen = frozen_of(reduced_state)
        values = None if basis is None else reduced_state[n_slow:]
        measure = stationary_fast(classification, frozen, mode=kind, mc=mc,
                                  conserved=basis, conserved_values=values)
        if not mass_action and kind == "analytic":
            return _polynomial_average(network, k, measure, frozen, fast_rows), 0.0
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
    and ESS threshold and the caller's other settings); the result is
    then averaged over the stationary law of the middle tier, estimated
    by :func:`montecarlo_measure` along the middle path with the inner
    rates plugged in. Standard errors from the two levels combine in
    quadrature. A middle tier that is empty degenerates to the two-scale
    computation, and a rate touching neither faster tier passes through
    unchanged.
    """
    mc = mc or McConfig()
    if classification.kind == "two":
        return averaged_rate_two_scale(classification, k, mode=mode, base=base, mc=mc)
    if classification.kind != "three":
        raise ModelError("three-scale averaging needs a two- or three-scale system")
    network = classification.network
    reaction = network.reactions[k]
    fast_rows = list(classification.fast.rows)
    middle_rows = list(classification.middle.rows)
    frozen_of = _freezer(network, base, classification.slow.rows)

    touches = {i for i, _ in reaction.reactants}
    if isinstance(reaction.rate_law, Expression):
        from . import expressions
        touches |= {network.index[name]
                    for name in expressions.variables(reaction.rate_law.ast)}
    if not (touches & set(fast_rows)) and not (touches & set(middle_rows)):
        return _identity_rate(network, k, frozen_of, len(classification.slow.rows))

    inner_mc = replace(mc, budget=max(mc.budget // 10, 2000), seed=mc.seed + 13,
                       ess_threshold=min(mc.ess_threshold, 50))
    inner = StateMemo(lambda frozen: stationary_fast(classification, frozen, mode=mode,
                                                     mc=inner_mc))
    middle_discrete = [network.species[i].alpha == 0 for i in middle_rows]
    labels = tuple(network.species[i].name for i in middle_rows)

    def evaluate(reduced_state):
        frozen = frozen_of(reduced_state)

        def tilde_rate(kk, v_m):
            """Fast-tier average of reaction kk at middle state v_m."""
            full = frozen.copy()
            full[middle_rows] = v_m
            return fast_average(network, kk, inner(full), full, fast_rows)

        # middle-tier path with fast-averaged rates
        system = tier_system(labels, classification.middle, classification.k_sets["middle"],
                             classification.k_sets["middle_circ"],
                             lambda kk: lambda v_m: tilde_rate(kk, v_m)[0])
        outer = montecarlo_measure(system, np.zeros(len(middle_rows)), mc, middle_discrete)
        value, se_outer = outer.expect(lambda v_m: tilde_rate(k, v_m)[0])
        se_inner, _ = outer.expect(lambda v_m: tilde_rate(k, v_m)[1])
        return value, math.hypot(np.max(se_outer), np.max(se_inner))

    # the outer middle-tier average is a time average even when the
    # fastest tier has a closed form, so the estimate always carries noise
    return memoized_rate(k, "montecarlo", evaluate, len(classification.slow.rows))
