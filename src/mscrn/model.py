"""Canonical in-memory representation of (spatial) reaction networks.

A :class:`Network` couples species (with exact rational abundance
exponents) to reactions (integer stoichiometry, rational rate exponents,
mass-action or expression rate laws). A :class:`SpatialModel` adds an
ordered compartment set, per-compartment rate laws and movement rates.
Model objects are immutable after construction and safe to share across
simulation workers; :class:`State` objects are worker-local.

This module is the only one that turns a rate law into a function of
counts: :func:`mass_action_rate` from a row form, :func:`expression_rate`
from an AST, a reader and a prefactor. Scaled rates, raw-count
propensities and frozen coefficients all share their arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expressions
from .errors import ModelError, RateEvaluationError, ValidationError


@dataclass(frozen=True)
class Species:
    """One chemical species; ``alpha`` is its abundance exponent and
    ``eta`` (spatial models only) its movement-speed exponent."""

    name: str
    alpha: Fraction = Fraction(0)
    eta: Fraction | None = None

    def __post_init__(self):
        if self.alpha < 0:
            raise ValidationError(f"species {self.name}: alpha must be >= 0")
        if self.eta is not None and self.eta <= 0:
            raise ValidationError(f"species {self.name}: eta must be > 0")

    @property
    def discrete(self) -> bool:
        return self.alpha == 0


@dataclass(frozen=True)
class MassAction:
    """Mass-action kinetics with rate constant ``kappa``.

    On raw integer counts the rate is kappa times the number of reactant
    combinations; on scaled counts, discrete species keep the
    combinatorial factor while continuous species contribute plain
    monomials.
    """

    kappa: float

    def __post_init__(self):
        if self.kappa < 0 or not math.isfinite(self.kappa):
            raise ValidationError(f"mass-action kappa must be finite and >= 0, got {self.kappa}")


@dataclass(frozen=True)
class Expression:
    """Arbitrary arithmetic rate law over scaled species counts."""

    source: str
    ast: expressions.Node = field(compare=False, default=None)

    def __post_init__(self):
        if self.ast is None:
            object.__setattr__(self, "ast", expressions.parse_expression(self.source))


RateLaw = MassAction | Expression


@dataclass(frozen=True)
class Reaction:
    """reactants/products map species index -> integer multiplicity."""

    reactants: tuple[tuple[int, int], ...]
    products: tuple[tuple[int, int], ...]
    beta: Fraction = Fraction(0)
    rate_law: RateLaw = MassAction(1.0)
    catalytic_only: bool = False

    @staticmethod
    def make(reactants: dict[int, int], products: dict[int, int], beta=Fraction(0),
             rate_law: RateLaw = MassAction(1.0), catalytic_only: bool | None = None) -> "Reaction":
        reactants = {i: n for i, n in reactants.items() if n != 0}
        products = {i: n for i, n in products.items() if n != 0}
        if not reactants and not products:
            raise ValidationError("reaction needs at least one reactant or product")
        if any(n < 0 for n in reactants.values()) or any(n < 0 for n in products.values()):
            raise ValidationError("stoichiometric multiplicities must be nonnegative")
        net = {i: products.get(i, 0) - reactants.get(i, 0)
               for i in set(reactants) | set(products)}
        is_catalytic = all(v == 0 for v in net.values())
        if catalytic_only is None:
            catalytic_only = is_catalytic
        if is_catalytic and not catalytic_only:
            raise ValidationError("reaction has zero net change; flag it catalytic_only")
        return Reaction(tuple(sorted(reactants.items())), tuple(sorted(products.items())),
                        Fraction(beta), rate_law, catalytic_only)

    def nu(self, i: int) -> int:
        for j, n in self.reactants:
            if j == i:
                return n
        return 0

    def nu_prime(self, i: int) -> int:
        for j, n in self.products:
            if j == i:
                return n
        return 0

    def zeta(self, i: int) -> int:
        return self.nu_prime(i) - self.nu(i)

    @property
    def order(self) -> int:
        return sum(n for _, n in self.reactants)


@dataclass
class State:
    """Species counts, either raw (``X``) or scaled (``V = N^-alpha X``).

    1-D for a single compartment, 2-D (species x compartments) for
    spatial models. Discrete species hold integer values in both forms.
    """

    counts: np.ndarray
    scaled: bool = False

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if np.any(self.counts < 0) or not np.all(np.isfinite(self.counts)):
            raise ValidationError("state counts must be finite and nonnegative")

    def copy(self) -> "State":
        return State(self.counts.copy(), self.scaled)


def falling_factorial(x: float, n: int) -> float:
    """x(x-1)...(x-n+1); zero when fewer than n units are available."""
    if n == 0:
        return 1.0
    if x < n:
        return 0.0
    out = 1.0
    for j in range(n):
        out *= x - j
    return out


class Network:
    """Immutable reaction network over a single compartment."""

    def __init__(self, species: list[Species], reactions: list[Reaction]):
        names = [s.name for s in species]
        if len(set(names)) != len(names):
            raise ValidationError("species names must be unique")
        if not species:
            raise ValidationError("network needs at least one species")
        for r in reactions:
            for i, _ in r.reactants + r.products:
                if not 0 <= i < len(species):
                    raise ValidationError(f"reaction references unknown species index {i}")
        self.species = tuple(species)
        self.reactions = tuple(reactions)
        self.index = {s.name: i for i, s in enumerate(self.species)}
        self._zeta = self._build_zeta()

    def _build_zeta(self) -> np.ndarray:
        z = np.zeros((len(self.species), len(self.reactions)), dtype=np.int64)
        for k, r in enumerate(self.reactions):
            for i, n in r.reactants:
                z[i, k] -= n
            for i, n in r.products:
                z[i, k] += n
        return z

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    @property
    def alphas(self) -> tuple[Fraction, ...]:
        return tuple(s.alpha for s in self.species)

    @property
    def betas(self) -> tuple[Fraction, ...]:
        return tuple(r.beta for r in self.reactions)

    def stoichiometric_matrix(self) -> np.ndarray:
        """Net-change matrix; column k is the jump vector of reaction k."""
        return self._zeta.copy()

    def species_reaction_sets(self) -> dict[int, frozenset[int]]:
        """Map species -> reactions that change its count."""
        return {i: frozenset(k for k in range(self.n_reactions) if self._zeta[i, k] != 0)
                for i in range(self.n_species)}

    @property
    def is_spatial(self) -> bool:
        return False


class SpatialModel:
    """A network replicated over compartments, plus movement rates.

    ``rate_laws[k][d]`` is the rate law of reaction k in compartment d
    (Assumption: each reaction is active in at least one compartment).
    ``movement[i, d1, d2]`` is the per-molecule rate at which species i
    moves d1 -> d2; the diagonal is zero.
    """

    def __init__(self, network: Network, compartments: list[str],
                 rate_laws: list[list[RateLaw]] | None = None,
                 movement: np.ndarray | None = None):
        if not compartments:
            raise ValidationError("spatial model needs at least one compartment")
        if len(set(compartments)) != len(compartments):
            raise ValidationError("compartment names must be unique")
        self.network = network
        self.compartments = tuple(compartments)
        nd = len(compartments)
        if rate_laws is None:
            rate_laws = [[r.rate_law] * nd for r in network.reactions]
        if len(rate_laws) != network.n_reactions or any(len(row) != nd for row in rate_laws):
            raise ValidationError("rate law table must be reactions x compartments")
        for k, row in enumerate(rate_laws):
            if all(isinstance(law, MassAction) and law.kappa == 0.0 for law in row):
                raise ValidationError(f"reaction {k + 1} has zero rate in every compartment")
        self.rate_laws = tuple(tuple(row) for row in rate_laws)
        if movement is None:
            movement = np.zeros((network.n_species, nd, nd))
        movement = np.asarray(movement, dtype=float)
        if movement.shape != (network.n_species, nd, nd):
            raise ValidationError("movement tensor must be species x compartments x compartments")
        if np.any(movement < 0):
            raise ValidationError("movement rates must be nonnegative")
        if np.any(np.diagonal(movement, axis1=1, axis2=2) != 0):
            raise ValidationError("movement rate matrix must have zero diagonal")
        self.movement = movement
        self.movement.setflags(write=False)

    @property
    def species(self):
        return self.network.species

    @property
    def reactions(self):
        return self.network.reactions

    @property
    def index(self):
        return self.network.index

    @property
    def n_compartments(self) -> int:
        return len(self.compartments)

    def rate_law(self, k: int, d: int) -> RateLaw:
        return self.rate_laws[k][d]

    def stoichiometric_matrix(self) -> np.ndarray:
        return self.network.stoichiometric_matrix()

    def species_reaction_sets(self):
        return self.network.species_reaction_sets()

    @property
    def is_spatial(self) -> bool:
        return True


Model = Network | SpatialModel


@dataclass(frozen=True)
class ScalingSpec:
    """Time-dilation exponent; species/reaction exponents live on the model."""

    gamma: Fraction = Fraction(0)


def evaluate_rate(model: Model, k: int, state: State, compartment: int | None = None) -> float:
    """Rate of reaction k in the given state.

    Raw states use the combinatorial mass-action form; scaled states use
    the mixed form (combinatorial factors for discrete species, plain
    monomials for continuous ones). Expression laws evaluate on scaled
    states only.
    """
    spatial = isinstance(model, SpatialModel)
    if spatial != (compartment is not None):
        raise ModelError("compartment must be given exactly for spatial models")
    network = model.network if spatial else model
    if not 0 <= k < network.n_reactions:
        raise ModelError(f"no reaction {k}")
    counts = state.counts
    if spatial:
        if counts.ndim != 2 or counts.shape != (network.n_species, model.n_compartments):
            raise ModelError("state shape does not match species x compartments")
        if not 0 <= compartment < model.n_compartments:
            raise ModelError(f"no compartment {compartment}")
        law = model.rate_law(k, compartment)
        values = counts[:, compartment]
    else:
        if counts.ndim != 1 or counts.shape[0] != network.n_species:
            raise ModelError("state dimension does not match network")
        law = network.reactions[k].rate_law
        values = counts
    reaction = network.reactions[k]
    if state.scaled:
        rate = _compile_law(network, reaction, law)
    elif isinstance(law, MassAction):
        # raw counts enter every reactant as a falling factorial
        rate = mass_action_rate(law.kappa, tuple((i, n, True) for i, n in reaction.reactants))
    else:
        raise ModelError("expression rate laws evaluate on scaled states")
    out = rate(values)
    if out < 0 or not math.isfinite(out):
        raise RateEvaluationError(f"reaction {k + 1}: rate {out} is negative or non-finite")
    return out


def scaled_rate_function(network: Network, k: int):
    """Compile reaction k's rate law into a function of a scaled species
    vector (mixed mass-action form, or the expression AST)."""
    reaction = network.reactions[k]
    return _compile_law(network, reaction, reaction.rate_law)


def scaled_rate_function_spatial(model: SpatialModel, k: int, d: int):
    """Per-compartment variant; the argument is the scaled species vector
    of compartment d."""
    reaction = model.network.reactions[k]
    return _compile_law(model.network, reaction, model.rate_law(k, d))


def _compile_law(network: Network, reaction: Reaction, law: RateLaw):
    if isinstance(law, MassAction):
        return mass_action_rate(law.kappa, tuple((i, n, network.species[i].alpha == 0)
                                                 for i, n in reaction.reactants))
    index = network.index

    def reader(name):
        if name not in index:
            return None
        i = index[name]
        return lambda values: values[i]

    return expression_rate(law.ast, reader)


def mass_action_rate(prefactor: float, terms):
    """The mass-action law of the row form ``(prefactor, terms)``: a
    function of a vector of values giving ``prefactor`` times the factors
    of each term ``(position, order, discrete)``, in order. A discrete
    term of order n gives the n factors ``value - j``, each floored at
    zero (``0.0 if d <= 0 else d``, which is ``max(d, 0.0)`` bit for
    bit); a continuous term of order n gives n factors ``value``. On an
    integer count the floored product is the falling factorial, zero
    below its order. The sign is not checked. The function carries its
    row form as ``row_terms``, for :class:`MassActionRows`.
    """
    terms = tuple(terms)

    def rate(values):
        out = prefactor
        for i, n, discrete in terms:
            value = values[i]
            if n == 1:   # the common case, without a loop
                out *= 0.0 if discrete and value <= 0 else value
                continue
            for j in range(n):
                d = value - j if discrete else value
                out *= 0.0 if discrete and d <= 0 else d
        return out

    rate.row_terms = (prefactor, terms)
    return rate


def expression_rate(ast: expressions.Node, reader, prefactor: float = 1.0):
    """The expression law ``ast`` as a function of a vector of values,
    times ``prefactor``; ``reader(name)`` returns the function that reads
    symbol ``name`` from the vector, or None for a name that is not a
    species. A negative law raises RateEvaluationError."""
    law = expressions.compile_expression(ast, reader)

    def rate(values):
        out = law(values)
        if out < 0:
            raise RateEvaluationError(f"negative expression rate {out}")
        return prefactor * out

    return rate


class MassActionRows:
    """The mass-action laws of :func:`mass_action_rate` over the rows of
    an array, all at once: ``laws`` lists their row forms ``(prefactor,
    terms)`` over vectors of ``dim`` values. A call takes (rows, dim + 1)
    values whose last column is ones and returns the (rows, laws) rates,
    law c in column c; :meth:`of` takes (rows, dim) values through a
    reused buffer that holds the ones column.

    Each law expands into factor slots in the closure's order: a discrete
    term of order n into the n factors ``max(value - j, 0)``, a continuous
    one into n factors ``value``. A law with fewer slots than the widest
    is padded with the ones column, and a product by 1.0 is exact. Slot s
    of law c sits at ``s * len(laws) + c`` of ``index``, ``shift`` and
    ``floor`` (0 for a discrete slot, -inf for any other), so a call is
    one gather, the shifts subtracted, one ``np.maximum`` and the product
    over the slots: the closure's arithmetic, bit for bit.
    """

    def __init__(self, laws, dim: int):
        factors = [[(i, j if discrete else 0, discrete) for i, n, discrete in terms
                    for j in range(n)] for _, terms in laws]
        self.width = max(1, max(map(len, factors)))
        one = (dim, 0, False)
        flat = [f[s] if s < len(f) else one for s in range(self.width) for f in factors]
        self.kappa = np.array([prefactor for prefactor, _ in laws], dtype=float)
        self.index = np.array([i for i, _, _ in flat], dtype=np.intp)
        shift = np.array([j for _, j, _ in flat], dtype=float)
        self.shift = shift if shift.any() else None
        self.floor = np.array([0.0 if floored else -np.inf for _, _, floored in flat])
        self.buffer = np.ones((0, dim + 1))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        factors = values[:, self.index]
        if self.shift is not None:
            factors -= self.shift
        np.maximum(factors, self.floor, out=factors)
        factors = factors.reshape(len(values), self.width, len(self.kappa))
        out = self.kappa * factors[:, 0]
        for s in range(1, self.width):
            out *= factors[:, s]
        return out

    def of(self, values: np.ndarray) -> np.ndarray:
        """The (rows, laws) rates of (rows, dim) ``values``."""
        if len(self.buffer) < len(values):
            self.buffer = np.ones((len(values), self.buffer.shape[1]))
        padded = self.buffer[:len(values)]
        padded[:, :-1] = values
        return self(padded)


def check_state(model: Model, state: State) -> None:
    """Validate dimensions and integrality of discrete species."""
    network = model.network if isinstance(model, SpatialModel) else model
    expected = (network.n_species, model.n_compartments) if isinstance(model, SpatialModel) \
        else (network.n_species,)
    if state.counts.shape != expected:
        raise ModelError(f"state shape {state.counts.shape}, expected {expected}")
    for i, s in enumerate(network.species):
        values = np.atleast_1d(state.counts[i])
        if s.alpha == 0 and np.any(values != np.round(values)):
            raise ModelError(f"discrete species {s.name} must hold integer values")
