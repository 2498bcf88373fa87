"""Averaged rates for spatial models.

Single-scale: every reaction rate is averaged over the product measure
of molecule positions given species totals; for mass action this is
kbar times the law of the totals (falling factorials or powers), with
kbar the sum over compartments of the local constant times the
reactants' movement weight ``pi_weight``, on which every spatial
mass-action rate builds.

Two-scale: the ordering of movement speeds against the fast-reaction
timescale dictates how the fast stationary law composes with position
equilibria:

  case 1 (both species move fastest): fast totals carry the stationary
      law of a movement-averaged sum-level subsystem;
  case 2 (only fast species move faster than fast reactions): the same
      sum-level subsystem, but with slow positions frozen and averaged
      afterwards;
  case 3 (only slow species move faster): per-compartment fast
      subsystems with slow positions pre-averaged;
  case 4 (both move slower): per-compartment fast subsystems at actual
      slow positions, averaged afterwards.

Each fast stationary law, at sum level or per compartment, comes from
the averaging pipeline (``averaging.fast_stationary_law``) of the case's
fast reactions: closed form first, then the Monte Carlo estimator the
fast system's shape calls for, on the system the pipeline builds.

With conserved fast combinations, stationary laws are constrained to
the conservation surface, and in cases 3/4 the per-compartment conserved
amounts themselves equilibrate by movement; that equilibrium is found by
a self-consistent fixed point on expected counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .averaging import (AveragedRate, FastReaction, McConfig, fast_stationary_law,
                        memoized_rate, movement_equilibria, product_measure, rate_kind,
                        split_reactants)
from .classify import ConservedBasis, ScaleClassification
from .errors import AnalyticUnavailable, CaseUnavailable, ModelError
from .model import MassAction, SpatialModel, mass_action_rate, scaled_rate_function


def pi_weight(pis, terms, d: int) -> float:
    """Movement weight of reactant ``terms`` (species i and order n first)
    in compartment d, the product of pi_{i,d}^n: a mass-action factor
    averaged over the positions of fixed totals is this times the
    factor of the totals."""
    out = 1.0
    for i, n, *_ in terms:
        out *= pis[i][d] ** n
    return out


def averaged_rate_single_scale(spatial_model: SpatialModel, k: int, mode: str = "auto",
                               mc: McConfig | None = None) -> AveragedRate:
    """Rate of reaction k averaged over movement equilibrium positions,
    as a function of the vector of species totals.

    Mass action gets the closed form ``mass_action_rate(kbar, terms)``,
    with kbar the sum over compartments of the local constant times the
    reactants' movement weight; expression laws are summed exactly over
    the product-measure support when it is small enough and sampled with
    a reported standard error otherwise.
    """
    mc = mc or McConfig()
    network = spatial_model.network
    nd = spatial_model.n_compartments
    laws = [spatial_model.rate_law(k, d) for d in range(nd)]
    pis = movement_equilibria(spatial_model)

    if all(isinstance(law, MassAction) for law in laws):
        _, terms = split_reactants(network, k, ())   # every reactant is a slow term
        kappa_bar = sum(law.kappa * pi_weight(pis, terms, d) for d, law in enumerate(laws))
        return AveragedRate(k, "analytic", fn=mass_action_rate(kappa_bar, terms),
                            se=lambda s: 0.0, dim=network.n_species)

    if mode == "analytic":
        raise AnalyticUnavailable(f"reaction {k + 1} has an expression law")

    compiled = [scaled_rate_function(spatial_model, k, d) for d in range(nd)]

    def evaluate(s):
        measure = product_measure(spatial_model, s, pis=pis)
        return measure.expect(
            lambda positions: (sum(compiled[d](positions[:, d]) for d in range(nd)), 0.0),
            mc.seed, 4096)

    return memoized_rate(k, "montecarlo", evaluate, network.n_species)


# ---------------------------------------------------------------------------
# two-scale spatial machinery


class _SpatialReaction(NamedTuple):
    """A reaction of the two-scale cases, read once; lists run over compartments."""
    orders: tuple[int, ...]         # on the fast rows
    slow_law: object                # mass_action_rate(1.0, slow terms)
    slow_pi: list[float]            # movement weight of the slow terms
    kappa: list[float]
    kappa_fast_pi: list[float]      # kappa times the movement weight of the fast terms


@dataclass
class _SpatialContext:
    classification: ScaleClassification
    model: SpatialModel
    pis: np.ndarray                 # movement equilibria, species x compartments
    fast_rows: tuple[int, ...]
    slow_rows: tuple[int, ...]
    reactions: dict                 # reaction -> _SpatialReaction

    @classmethod
    def build(cls, classification: ScaleClassification, ks) -> "_SpatialContext":
        model = classification.model
        if not model.is_spatial:
            raise ModelError("spatial averaging requires a spatial model")
        if classification.kind != "two":
            raise CaseUnavailable(
                "spatial case formulas cover two chemical timescales only")
        network = model.network
        pis = movement_equilibria(model)
        fast_rows, slow_rows = classification.fast.rows, classification.slow.rows
        compartments = range(model.n_compartments)
        reactions = {}
        for k in ks:
            if not all(isinstance(model.rate_law(k, d), MassAction) for d in compartments):
                raise CaseUnavailable(f"reaction {k + 1}: spatial case averaging of "
                                      f"expression laws is not supported")
            for i, _ in network.reactions[k].reactants:
                if i not in fast_rows and i not in slow_rows:
                    raise CaseUnavailable(
                        f"reaction {k + 1} consumes {network.species[i].name}, which "
                        f"sits on neither the fast nor the slow tier")
            orders, slow_terms = split_reactants(network, k, fast_rows)
            fast_terms = [(i, n) for i, n in zip(fast_rows, orders) if n]
            kappa = [model.rate_law(k, d).kappa for d in compartments]
            reactions[k] = _SpatialReaction(
                orders, mass_action_rate(1.0, slow_terms),
                [pi_weight(pis, slow_terms, d) for d in compartments], kappa,
                [kappa[d] * pi_weight(pis, fast_terms, d) for d in compartments])
        return cls(classification, model, pis, fast_rows, slow_rows, reactions)

    # -- slow factors per reaction and compartment, of species-indexed values

    def totals_form(self, totals) -> dict:
        """Slow factors averaged over slow positions at species totals."""
        return {k: [r.slow_law(totals) * w for w in r.slow_pi] for k, r in self.reactions.items()}

    def positions_form(self, positions) -> dict:
        """Slow factors at actual positions (species x compartments)."""
        return {k: [r.slow_law(column) for column in positions.T]
                for k, r in self.reactions.items()}

    def coefficient(self, k: int, slow_factors: dict, d: int | None) -> float:
        """Rate constant of reaction k seen by the fast variables: summed
        over compartments with the fast terms' movement weights (d None,
        cases 1/2), or of compartment d (cases 3/4)."""
        r = self.reactions[k]
        if d is None:
            return sum(c * f for c, f in zip(r.kappa_fast_pi, slow_factors[k]))
        return r.kappa[d] * slow_factors[k][d]

    # -- the fast tier --------------------------------------------------------

    def structs(self, slow_factors: dict, d: int | None) -> list[FastReaction]:
        """The fast reactions at sum level (d None) or in compartment d."""
        fast = self.classification.fast
        return [FastReaction(k, self.coefficient(k, slow_factors, d), self.reactions[k].orders,
                             tuple(fast.column(k)))
                for k in sorted(self.classification.k_sets["fast"])]


def averaged_rate_spatial(classification: ScaleClassification, case: int, k: int,
                          conserved: ConservedBasis | None = None,
                          mode: str = "auto", mc: McConfig | None = None) -> AveragedRate:
    """Averaged rate of slow reaction k under movement-speed case 1-4.

    The evaluator takes the reduced state: slow species totals in row
    order, followed by conserved totals when a basis is supplied. Cases
    1/2 average the fast species at the level of their totals; cases 3/4
    keep per-compartment fast subsystems. Slow positions are frozen and
    averaged afterwards in cases 2/4 (a no-op for continuous species,
    whose position measure is a point mass). With a conserved basis,
    cases 3/4 have only the constrained closed form, so mode
    ``montecarlo`` raises CaseUnavailable for them.
    """
    if case not in (1, 2, 3, 4):
        raise ModelError(f"case must be 1..4, got {case}")
    mc = mc or McConfig()
    ctx = _SpatialContext.build(classification,
                                sorted(classification.k_sets["fast"] | {k}))
    basis = conserved if conserved is not None and not conserved.empty else None
    if basis is not None and case in (3, 4) and mode == "montecarlo":
        raise CaseUnavailable("conserved spatial cases 3/4 have no Monte Carlo path; "
                              "they need the constrained closed form")
    n_slow = len(ctx.slow_rows)
    n_species = ctx.model.network.n_species
    nd = ctx.model.n_compartments
    orders_k = ctx.reactions[k].orders
    sum_level = case in (1, 2)

    def species_indexed(slow_values):
        out = np.zeros((n_species,) + np.shape(slow_values)[1:])
        out[list(ctx.slow_rows)] = slow_values
        return out

    unit = dict.fromkeys(ctx.reactions, [1.0] * nd)
    kind = rate_kind(classification, ctx.structs(unit, None if sum_level else 0), mode, basis)
    # a rate of kind 'analytic' keeps to the closed form at every state:
    # where it is lost, the evaluation raises as the nonspatial rate does
    law_mode = "analytic" if kind == "analytic" else mode

    def fast_average(slow_factors, values):
        """(E, se) of reaction k over the fast stationary law(s) given the
        slow factors."""
        if sum_level:
            measure = fast_stationary_law(classification, ctx.structs(slow_factors, None),
                                          law_mode, mc, basis, values)
            return measure.expect_mass_action(ctx.coefficient(k, slow_factors, None),
                                              orders_k)
        if basis is None:
            measures = [fast_stationary_law(classification, ctx.structs(slow_factors, d),
                                            law_mode, mc) for d in range(nd)]
        else:
            measures = _case34_conserved(ctx, slow_factors, basis, values)
        value = 0.0
        var = 0.0
        for d, measure in enumerate(measures):
            val, se = measure.expect_mass_action(ctx.coefficient(k, slow_factors, d),
                                                 orders_k)
            value += val
            var += se ** 2
        return value, math.sqrt(var)

    def evaluate(reduced):
        s_slow = reduced[:n_slow]
        values = None if basis is None else reduced[n_slow:]
        if case in (1, 3):
            return fast_average(ctx.totals_form(species_indexed(s_slow)), values)
        positions = product_measure(ctx.model, s_slow, species=ctx.slow_rows,
                                    pis=ctx.pis[list(ctx.slow_rows)])
        return positions.expect(
            lambda v_slow: fast_average(ctx.positions_form(species_indexed(v_slow)), values),
            mc.seed + 7, 2048)

    return memoized_rate(k, kind, evaluate,
                         n_slow + (0 if basis is None else len(basis.vectors)))


def _case34_conserved(ctx: _SpatialContext, slow_factors, basis: ConservedBasis, s_c):
    """Per-compartment fast laws of cases 3/4 with conserved fast combinations.

    The per-compartment conserved amounts equilibrate by movement of the
    fast species; their equilibrium is found by alternating (a) the
    constrained per-compartment stationary law given current amounts and
    (b) a movement-equilibrium redistribution of its means (the degree-1
    moments of the same law) to a fixed point. Requires the constrained
    closed form, an affine fast tier with stable first moments; reported
    as CaseUnavailable otherwise or on non-convergence.
    """
    model = ctx.model
    nd = model.n_compartments
    theta = np.array(basis.vectors, dtype=float)

    def constrained_measure(d, v_c_col):
        try:
            return fast_stationary_law(ctx.classification, ctx.structs(slow_factors, d),
                                       "analytic", conserved=basis, conserved_values=v_c_col)
        except AnalyticUnavailable:
            raise CaseUnavailable(
                "conserved spatial cases 3/4 need the constrained closed form "
                "(an affine fast tier with stable first moments)") from None

    # fixed point on the (theta x compartment) matrix of conserved amounts
    v_c = np.outer(np.asarray(s_c, dtype=float), np.full(nd, 1.0 / nd))
    converged = False
    for _ in range(500):
        expected = np.zeros((len(ctx.fast_rows), nd))
        for d in range(nd):
            measure = constrained_measure(d, v_c[:, d])
            expected[:, d] = measure.mean_vector()
        redistributed = np.zeros_like(expected)
        for j, i in enumerate(ctx.fast_rows):
            total = expected[j].sum()
            redistributed[j] = total * ctx.pis[i]
        v_c_new = theta @ redistributed
        delta = np.abs(v_c_new - v_c).max()
        scale = 1.0 + np.abs(v_c).max()
        v_c = v_c_new
        if delta <= 1e-8 * scale:
            converged = True
            break
    if not converged:
        raise CaseUnavailable("conserved-movement fixed point did not converge")
    return [constrained_measure(d, v_c[:, d]) for d in range(nd)]
