"""Averaged rates for spatial models.

Single-scale: every reaction rate is averaged over the product measure
of molecule positions given species totals; for mass action this
collapses to compartment-summed constants times falling factorials of
the totals.

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
import numpy as np

from .averaging import (AveragedRate, FastReaction, McConfig, all_movement_equilibria,
                        fast_stationary_law, memoized_rate, product_measure, rate_kind,
                        split_reactants)
from .classify import ConservedBasis, ScaleClassification
from .errors import AnalyticUnavailable, CaseUnavailable, ModelError
from .model import (MassAction, ScalingSpec, SpatialModel, falling_factorial,
                    mass_action_rate, scaled_rate_function_spatial)


def totals_factor(pis, terms, totals, d: int, coeff: float = 1.0) -> float:
    """``coeff`` times each (species i, multiplicity n, discrete) term of
    compartment d at movement equilibrium given species totals: a falling
    factorial of the total times pi^n for discrete species, (pi *
    total)^n for continuous ones."""
    for i, n, discrete in terms:
        if discrete:
            coeff *= falling_factorial(totals[i], n) * pis[i][d] ** n
        else:
            coeff *= (pis[i][d] * totals[i]) ** n
    return coeff


def averaged_rate_single_scale(spatial_model: SpatialModel, scaling: ScalingSpec,
                               k: int, mode: str = "auto",
                               mc: McConfig | None = None,
                               equilibria=None) -> AveragedRate:
    """Rate of reaction k averaged over movement equilibrium positions,
    as a function of the vector of species totals.

    Mass action gets the closed form; expression laws are summed exactly
    over the product-measure support when it is small enough and sampled
    with a reported standard error otherwise.
    """
    mc = mc or McConfig()
    network = spatial_model.network
    terms = tuple((i, n, network.species[i].alpha == 0)
                  for i, n in network.reactions[k].reactants)
    pis = equilibria or all_movement_equilibria(spatial_model)
    pi_arr = [p.as_floats() for p in pis]
    mass_action = all(isinstance(spatial_model.rate_law(k, d), MassAction)
                      for d in range(spatial_model.n_compartments))

    if mass_action:
        def fn(s):
            s = np.asarray(s, dtype=float)
            out = 0.0
            for d in range(spatial_model.n_compartments):
                out += totals_factor(pi_arr, terms, s, d, spatial_model.rate_law(k, d).kappa)
            return out

        return AveragedRate(k, "analytic", fn=fn, se=lambda s: 0.0, dim=network.n_species)

    if mode == "analytic":
        raise AnalyticUnavailable(f"reaction {k} has an expression law")

    compiled = [scaled_rate_function_spatial(spatial_model, k, d)
                for d in range(spatial_model.n_compartments)]

    def evaluate(s):
        measure = product_measure(spatial_model, s, equilibria=pis)
        return measure.expect(
            lambda positions: (sum(compiled[d](positions[:, d])
                                   for d in range(spatial_model.n_compartments)), 0.0),
            mc.seed, 4096)

    return memoized_rate(k, "montecarlo", evaluate, network.n_species)


# ---------------------------------------------------------------------------
# two-scale spatial machinery


@dataclass
class _SpatialContext:
    classification: ScaleClassification
    model: SpatialModel
    equilibria: list                # per species, movement equilibrium
    pis: list[np.ndarray]           # the same as float arrays
    fast_rows: tuple[int, ...]
    slow_rows: tuple[int, ...]
    splits: dict                    # reaction -> (fast orders, slow terms)

    @classmethod
    def build(cls, classification: ScaleClassification, ks) -> "_SpatialContext":
        model = classification.model
        if not model.is_spatial:
            raise ModelError("spatial averaging requires a spatial model")
        if classification.kind != "two":
            raise CaseUnavailable(
                "spatial case formulas cover two chemical timescales only")
        network = model.network
        equilibria = all_movement_equilibria(model)
        fast_rows = classification.fast.rows
        ctx = cls(classification, model, equilibria, [eq.as_floats() for eq in equilibria],
                  fast_rows, classification.slow.rows,
                  {k: split_reactants(network, k, fast_rows) for k in ks})
        ctx.require_mass_action(ks)
        return ctx

    def require_mass_action(self, ks):
        tiers = set(self.fast_rows) | set(self.slow_rows)
        for k in ks:
            for d in range(self.model.n_compartments):
                if not isinstance(self.model.rate_law(k, d), MassAction):
                    raise CaseUnavailable(
                        f"reaction {k}: spatial case averaging of expression "
                        f"laws is not supported")
            for i, _ in self.model.network.reactions[k].reactants:
                if i not in tiers:
                    name = self.model.network.species[i].name
                    raise CaseUnavailable(
                        f"reaction {k} consumes {name}, which sits on neither "
                        f"the fast nor the slow tier")

    # -- slow factors: species-indexed totals or positions --------------------

    def totals_form(self, totals):
        """Slow factor averaged over slow positions at species totals."""
        return lambda k, d: totals_factor(self.pis, self.splits[k][1], totals, d)

    def positions_form(self, positions):
        """Slow factor at actual positions (species x compartments)."""
        laws = {k: mass_action_rate(1.0, split[1]) for k, split in self.splits.items()}
        return lambda k, d: laws[k](positions[:, d])

    def fast_pi_factor(self, k: int, d: int) -> float:
        out = 1.0
        for j, n in enumerate(self.splits[k][0]):
            if n:
                out *= self.pis[self.fast_rows[j]][d] ** n
        return out

    def coefficient(self, k: int, slow_factor, d: int | None) -> float:
        """Rate constant of reaction k seen by the fast variables: summed
        over compartments with fast-pi factors (d None, cases 1/2), or of
        compartment d (cases 3/4)."""
        if d is None:
            return sum(self.model.rate_law(k, dd).kappa * self.fast_pi_factor(k, dd)
                       * slow_factor(k, dd) for dd in range(self.model.n_compartments))
        return self.model.rate_law(k, d).kappa * slow_factor(k, d)

    # -- the fast tier --------------------------------------------------------

    def structs(self, slow_factor, d: int | None) -> list[FastReaction]:
        """The fast reactions at sum level (d None) or in compartment d."""
        fast = self.classification.fast
        return [FastReaction(k, self.coefficient(k, slow_factor, d), self.splits[k][0],
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
    orders_k = ctx.splits[k][0]
    sum_level = case in (1, 2)

    def species_indexed(slow_values):
        out = np.zeros((n_species,) + np.shape(slow_values)[1:])
        out[list(ctx.slow_rows)] = slow_values
        return out

    kind = rate_kind(classification, ctx.structs(lambda kk, d: 1.0, None if sum_level else 0),
                     mode, basis)
    # a rate of kind 'analytic' keeps to the closed form at every state:
    # where it is lost, the evaluation raises as the nonspatial rate does
    law_mode = "analytic" if kind == "analytic" else mode

    def fast_average(slow_factor, values):
        """(E, se) of reaction k over the fast stationary law(s) given the
        slow factor."""
        if sum_level:
            measure = fast_stationary_law(classification, ctx.structs(slow_factor, None),
                                          law_mode, mc, basis, values)
            return measure.expect_mass_action(ctx.coefficient(k, slow_factor, None),
                                              orders_k)
        if basis is None:
            measures = [fast_stationary_law(classification, ctx.structs(slow_factor, d),
                                            law_mode, mc) for d in range(nd)]
        else:
            measures = _case34_conserved(ctx, slow_factor, basis, values)
        value = 0.0
        var = 0.0
        for d, measure in enumerate(measures):
            val, se = measure.expect_mass_action(ctx.coefficient(k, slow_factor, d),
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
                                    equilibria=[ctx.equilibria[i] for i in ctx.slow_rows])
        return positions.expect(
            lambda v_slow: fast_average(ctx.positions_form(species_indexed(v_slow)), values),
            mc.seed + 7, 2048)

    return memoized_rate(k, kind, evaluate,
                         n_slow + (0 if basis is None else len(basis.vectors)))


def _case34_conserved(ctx: _SpatialContext, slow_factor, basis: ConservedBasis, s_c):
    """Per-compartment fast laws of cases 3/4 with conserved fast combinations.

    The per-compartment conserved amounts equilibrate by movement of the
    fast species; their equilibrium is found by alternating (a) the
    constrained per-compartment stationary law given current amounts and
    (b) a movement-equilibrium redistribution of the resulting expected
    counts, to a fixed point. Requires the constrained closed form
    (multinomial conversion blocks); reported as CaseUnavailable
    otherwise or on non-convergence.
    """
    model = ctx.model
    nd = model.n_compartments
    theta = np.array(basis.vectors, dtype=float)

    def constrained_measure(d, v_c_col):
        try:
            return fast_stationary_law(ctx.classification, ctx.structs(slow_factor, d),
                                       "analytic", conserved=basis, conserved_values=v_c_col)
        except AnalyticUnavailable:
            raise CaseUnavailable(
                "conserved spatial cases 3/4 need the constrained closed form "
                "(closed unary-conversion blocks)") from None

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
