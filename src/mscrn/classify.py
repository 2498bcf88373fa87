"""Time-scale classification of scaled reaction networks.

Given abundance exponents alpha, rate exponents beta and time dilation
gamma (all exact rationals), every species lands on the timescale where
its relative change is order one. Comparing that timescale with the
observation timescale splits species into slow / middle / fast tiers and
selects, per tier, the reactions whose exponents balance; those entries
form the effective stoichiometric submatrices. Movement exponents then
place a spatial two-scale model into one of four speed cases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DegenerateEtaError, HeterogeneousEtaError, MixedAlphaError,
                     OverlapError, TimescaleViolation, UnclassifiableError)
from .exact import integer_nullspace
from .model import Model, Network, ScalingSpec


@dataclass(frozen=True)
class SpatialCase:
    """Ordering of movement speeds against the fast-reaction timescale.

    With exponents normalized so the fast chemical gap is 1:
    case 1: 1 < eta_s, eta_f;  case 2: eta_s < 1 < eta_f;
    case 3: eta_f < 1 < eta_s; case 4: eta_f, eta_s < 1.
    """

    tag: int
    eta_f: Fraction
    eta_s: Fraction


@dataclass(frozen=True)
class TierMatrix:
    """Effective stoichiometry of one tier: rows/cols name the species
    and reaction subsets, ``matrix`` holds the balanced entries."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    matrix: np.ndarray

    def column(self, k: int) -> np.ndarray:
        return self.matrix[:, self.cols.index(k)]


@dataclass(frozen=True)
class ScaleClassification:
    model: Model
    kind: str                      # 'single' | 'two' | 'three'
    alphas: tuple[Fraction, ...]   # normalized (exponents divided by the raw fast gap)
    betas: tuple[Fraction, ...]    # gamma folded in, then normalized
    raw_eps2: Fraction | None      # fast gap before normalization
    eps1: Fraction | None          # middle gap after normalization, in (0, 1)
    dropped: tuple[int, ...]       # approximately constant species, removed
    i_circ: frozenset[int]
    i_bullet: frozenset[int]
    i_fast: frozenset[int]
    i_middle: frozenset[int]
    i_slow: frozenset[int]
    k_sets: dict
    star: TierMatrix | None
    fast: TierMatrix | None
    middle: TierMatrix | None
    slow: TierMatrix | None
    spatial_case: SpatialCase | None
    eta_norm: tuple[Fraction | None, ...] | None

    @property
    def network(self) -> Network:
        return self.model.network

    def species_names(self, indices) -> list[str]:
        return [self.network.species[i].name for i in sorted(indices)]

    def to_jsonable(self) -> dict:
        names = lambda ii: self.species_names(ii)
        out = {
            "kind": self.kind,
            "epsilon": None if self.kind == "single" else 1,
            "epsilon_1": None if self.eps1 is None else str(self.eps1),
            "discrete_species": names(self.i_circ),
            "continuous_species": names(self.i_bullet),
            "fast_species": names(self.i_fast),
            "middle_species": names(self.i_middle),
            "slow_species": names(self.i_slow),
            "dropped_species": names(self.dropped),
            "reaction_sets": {key: sorted(val) for key, val in self.k_sets.items()},
        }
        for label, tier in (("zeta_star", self.star), ("zeta_fast", self.fast),
                            ("zeta_middle", self.middle), ("zeta_slow", self.slow)):
            if tier is not None:
                out[label] = {
                    "rows": names(tier.rows),
                    "cols": list(tier.cols),
                    "matrix": tier.matrix.tolist(),
                }
        if self.spatial_case is not None:
            out["spatial_case"] = self.spatial_case.tag
            out["eta_fast"] = str(self.spatial_case.eta_f)
            out["eta_slow"] = str(self.spatial_case.eta_s)
        return out


def _tier_matrix(zeta: np.ndarray, rows, cols, alphas, betas, offset: Fraction) -> TierMatrix:
    """Entries ζ_ik where β_k = α_i + offset balance; zero where the
    exponent falls short. A positive exponent would diverge, but rows
    are tier species whose maximal β equals α_i + offset, so it cannot
    occur once classification succeeded."""
    rows = tuple(sorted(rows))
    cols = tuple(sorted(cols))
    out = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for a, i in enumerate(rows):
        for b, k in enumerate(cols):
            if zeta[i, k] != 0 and betas[k] == alphas[i] + offset:
                out[a, b] = zeta[i, k]
    return TierMatrix(rows, cols, out)


def classify(model: Model, scaling: ScalingSpec | None = None) -> ScaleClassification:
    """Classify a model as a one-, two- or three-scale system.

    Species with an empty reaction set are approximately constant and
    are dropped with a warning. Raises UnclassifiableError when the
    timescale gaps take more than three distinct values, a gap is
    negative, or no species lives on the slow timescale.
    """
    scaling = scaling or ScalingSpec()
    network = model.network
    zeta = network.stoichiometric_matrix()
    alphas = list(network.alphas)
    betas = [b + scaling.gamma for b in network.betas]
    k_of = network.species_reaction_sets()

    dropped = tuple(i for i in range(network.n_species) if not k_of[i])
    if dropped:
        names = ", ".join(network.species[i].name for i in dropped)
        warnings.warn(f"species with no reactions are approximately constant "
                      f"and were dropped from classification: {names}")
    active = [i for i in range(network.n_species) if k_of[i]]
    if not active:
        raise UnclassifiableError("every species is constant")

    gaps: dict[int, Fraction] = {}
    for i in active:
        m_i = max(betas[k] for k in k_of[i])
        gap = m_i - alphas[i]
        if gap < 0:
            name = network.species[i].name
            raise UnclassifiableError(
                f"species {name}: max rate exponent {m_i} below abundance exponent "
                f"{alphas[i]}; scaling leaves it frozen")
        gaps[i] = gap

    distinct = sorted(set(gaps.values()))
    if len(distinct) > 3:
        raise UnclassifiableError(f"{len(distinct)} distinct timescale gaps, at most 3 supported")
    if distinct[0] != 0:
        raise UnclassifiableError("no species changes on the slow timescale dt")

    # normalize the fastest gap to 1 by rescaling all exponents
    raw_eps2 = distinct[-1] if len(distinct) > 1 else None
    scale = raw_eps2 if raw_eps2 else Fraction(1)
    alphas_n = tuple(a / scale for a in alphas)
    betas_n = tuple(b / scale for b in betas)
    gaps_n = {i: g / scale for i, g in gaps.items()}
    eps1 = distinct[1] / scale if len(distinct) == 3 else None

    i_circ = frozenset(i for i in active if alphas_n[i] == 0)
    i_bullet = frozenset(i for i in active if alphas_n[i] > 0)

    k_sets: dict[str, frozenset[int]] = {}
    star = fast = middle = slow = None

    def tier(name, indices, offset):
        """Record tier ``name``'s reaction set and its split by the kind
        of species (discrete or continuous) each reaction belongs to."""
        per_species = {i: frozenset(k for k in k_of[i] if betas_n[k] == alphas_n[i] + offset)
                       for i in indices}

        def union(species):
            return frozenset().union(*(per_species[i] for i in species))

        k_sets[name] = union(indices)
        k_sets[f"{name}_circ"] = union(i_circ.intersection(indices))
        k_sets[f"{name}_bullet"] = union(i_bullet.intersection(indices))
        return k_sets[name]

    if len(distinct) == 1:
        kind = "single"
        i_fast = frozenset()
        i_middle = frozenset()
        i_slow = frozenset(active)
        tier("star", active, Fraction(0))
        full_rows = tuple(range(network.n_species))
        star = _tier_matrix(zeta, full_rows, range(network.n_reactions),
                            alphas_n, betas_n, Fraction(0))
    else:
        kind = "two" if len(distinct) == 2 else "three"
        i_fast = frozenset(i for i in active if gaps_n[i] == 1)
        i_slow = frozenset(i for i in active if gaps_n[i] == 0)
        i_middle = frozenset(active) - i_fast - i_slow
        if not i_slow:
            raise UnclassifiableError("no species changes on the slow timescale dt")

        fast = _tier_matrix(zeta, i_fast, tier("fast", i_fast, Fraction(1)),
                            alphas_n, betas_n, Fraction(1))
        slow = _tier_matrix(zeta, i_slow, tier("slow", i_slow, Fraction(0)),
                            alphas_n, betas_n, Fraction(0))
        if i_middle:
            middle = _tier_matrix(zeta, i_middle, tier("middle", i_middle, eps1),
                                  alphas_n, betas_n, eps1)

    spatial_case = None
    eta_norm = None
    if model.is_spatial:
        eta_norm = tuple(None if s.eta is None else s.eta / scale for s in network.species)
        if kind == "two":
            eta_f = _common_eta(eta_norm, i_fast, "fast")
            eta_s = _common_eta(eta_norm, i_slow, "slow")
            if eta_f is not None and eta_s is not None:
                spatial_case = spatial_case_for(eta_f, eta_s)

    return ScaleClassification(
        model=model, kind=kind, alphas=alphas_n, betas=betas_n,
        raw_eps2=raw_eps2, eps1=eps1, dropped=dropped,
        i_circ=i_circ, i_bullet=i_bullet,
        i_fast=i_fast, i_middle=i_middle, i_slow=i_slow,
        k_sets=k_sets, star=star, fast=fast, middle=middle, slow=slow,
        spatial_case=spatial_case, eta_norm=eta_norm)


def _common_eta(eta_norm, tier, label) -> Fraction | None:
    etas = {eta_norm[i] for i in tier}
    if not etas:
        return None
    if len(etas) > 1:
        raise HeterogeneousEtaError(f"{label} species carry different movement exponents")
    return next(iter(etas))  # None when the tier does not move


def spatial_case_for(eta_f: Fraction, eta_s: Fraction) -> SpatialCase:
    """Select the movement-speed case; exponents must already be
    normalized so the fast chemical gap equals 1."""
    for name, value in (("fast", eta_f), ("slow", eta_s)):
        if value <= 0:
            raise DegenerateEtaError(f"movement exponent of {name} species must be > 0")
        if value == 1:
            raise DegenerateEtaError(
                f"movement exponent of {name} species equals the fast-reaction "
                f"exponent; this boundary case is excluded")
    if eta_f > 1 and eta_s > 1:
        tag = 1
    elif eta_f > 1:
        tag = 2
    elif eta_s > 1:
        tag = 3
    else:
        tag = 4
    return SpatialCase(tag, eta_f, eta_s)


@dataclass(frozen=True)
class ConservedBasis:
    """Primitive integer vectors over the fast species annihilating every
    effective fast column, with the reactions that move each combination
    on the slow timescale."""

    fast_rows: tuple[int, ...]            # species indices the vectors live on
    vectors: tuple[tuple[int, ...], ...]  # primitive, lex-sorted
    alpha_c: tuple[Fraction, ...]
    k_per_vector: tuple[frozenset[int], ...]
    k_c: frozenset[int]
    k_c_circ: frozenset[int]
    zeta_c: np.ndarray                    # |vectors| x |k_c columns|
    cols: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return not self.vectors

    def value(self, fast_values) -> np.ndarray:
        """Evaluate every conserved functional on a fast-species vector."""
        theta = np.array(self.vectors, dtype=float)
        return theta @ np.asarray(fast_values, dtype=float)

    def names(self, network: Network) -> list[str]:
        out = []
        for vec in self.vectors:
            terms = []
            for pos, coeff in zip(self.fast_rows, vec):
                if coeff == 0:
                    continue
                name = network.species[pos].name
                terms.append(name if coeff == 1 else f"{coeff}*{name}")
            out.append(" + ".join(terms))
        return out


def conserved_basis(classification: ScaleClassification) -> ConservedBasis:
    """Integer basis of the null space of the transposed fast matrix.

    Verifies that each vector spans species of a single abundance
    exponent, that nothing touching it runs faster than the slow
    timescale, and that its driving reactions avoid the slow reaction
    set. Output is deterministic: primitive vectors, first nonzero
    entry positive, lexicographic order.
    """
    if classification.kind == "single":
        raise UnclassifiableError("conserved basis requires a multi-scale classification")
    fast = classification.fast
    network = classification.network
    zeta = network.stoichiometric_matrix()
    betas = classification.betas
    alphas = classification.alphas
    rows = fast.rows

    vectors = integer_nullspace(fast.matrix.T) if fast.matrix.size else \
        [tuple(1 if j == a else 0 for j in range(len(rows))) for a in range(len(rows))]
    vectors = sorted(vectors)

    alpha_c = []
    k_per_vector = []
    for vec in vectors:
        support_alphas = {alphas[rows[j]] for j, x in enumerate(vec) if x != 0}
        if len(support_alphas) != 1:
            raise MixedAlphaError(
                "conserved vector spans species with different abundance exponents")
        a_c = next(iter(support_alphas))
        alpha_c.append(a_c)
        touching = {}
        for k in range(network.n_reactions):
            inner = sum(vec[j] * int(zeta[rows[j], k]) for j in range(len(rows)))
            if inner != 0:
                touching[k] = inner
        if touching:
            worst = max(betas[k] for k in touching)
            if worst > a_c:
                raise TimescaleViolation(
                    f"a conserved combination changes with rate exponent {worst} > {a_c}")
        k_vec = frozenset(k for k in touching if betas[k] == a_c)
        if k_vec & classification.k_sets["fast"]:
            raise TimescaleViolation(
                "a conserved combination is driven by a fast-tier reaction")
        k_per_vector.append(k_vec)

    k_c = frozenset().union(*k_per_vector) if k_per_vector else frozenset()
    if k_c & classification.k_sets["slow"]:
        raise OverlapError("reactions driving conserved quantities overlap the slow set")
    k_c_circ = frozenset().union(
        *(kv for kv, a in zip(k_per_vector, alpha_c) if a == 0)) if vectors else frozenset()
    cols = tuple(sorted(k_c))
    zeta_c = np.zeros((len(vectors), len(cols)), dtype=np.int64)
    for j, vec in enumerate(vectors):
        for b, k in enumerate(cols):
            if k in k_per_vector[j]:
                zeta_c[j, b] = sum(vec[a] * int(zeta[rows[a], k]) for a in range(len(rows)))
    return ConservedBasis(rows, tuple(vectors), tuple(alpha_c), tuple(k_per_vector),
                          k_c, k_c_circ, zeta_c, cols)

