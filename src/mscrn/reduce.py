"""Reduced limit models: assembly and simulation entry points.

The limit process runs on the slow species and on the conserved
quantities of the fast tier, linear combinations of fast species that
change on the slow timescale. :class:`ReducedModel` describes these
coordinates once, as weight rows over the species, and derives from
them the labels, the projection of a full state, the observable weights
and the change column of every reaction of the limit; with one averaged
rate per reaction it becomes the hybrid system of :mod:`pdmp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .averaging import (AveragedRate, McConfig, _identity_rate,
                        averaged_rate_three_scale, averaged_rate_two_scale)
from .classify import ConservedBasis, ScaleClassification, classify, conserved_basis
from .errors import CaseUnavailable
from .exact import format_rational
from .model import Model, ScalingSpec, species_totals
from .pdmp import HybridSystem, hybrid_system
from .spatial_cases import averaged_rate_single_scale, averaged_rate_spatial


@dataclass
class ReducedModel:
    """The scaling-limit model of the slow observables.

    Its coordinates are the species ``rows`` (every species of a
    single-scale model, the slow tier otherwise; their totals over the
    compartments of a spatial model), then the vectors of ``conserved``
    over the fast species: ``weights`` holds one integer row over the
    species per coordinate. A coordinate changes with reaction k by its
    weights times k's stoichiometric column when k's rate exponent
    balances the coordinate's abundance exponent, and not at all
    otherwise. ``columns`` lists the reactions that change a species
    coordinate, then those that change a conserved one, each ascending,
    with its change column; those of rate exponent 0 are the ``jumps``,
    the rest flows. ``rates`` holds the averaged evaluator of each, and
    ``kind`` names the scaling class in the printed header.
    """

    classification: ScaleClassification
    kind: str
    rows: tuple[int, ...]
    conserved: ConservedBasis | None
    rates: dict[int, AveragedRate]
    weights: np.ndarray = field(init=False)
    columns: tuple = field(init=False)
    jumps: frozenset = field(init=False)

    def __post_init__(self):
        c, basis = self.classification, self.conserved
        lead = len(self.rows)
        vectors = () if basis is None else basis.vectors
        self.weights = np.zeros((lead + len(vectors), c.network.n_species), dtype=np.int64)
        for a, i in enumerate(self.rows):
            self.weights[a, i] = 1
        for j, vec in enumerate(vectors):
            self.weights[lead + j, list(basis.fast_rows)] = vec
        alphas = [c.alphas[i] for i in self.rows] + list(basis.alpha_c if vectors else ())
        moves = (self.weights @ c.network.stoichiometric_matrix()).tolist()
        change = np.array([[x if x and beta == a else 0 for x, beta in zip(row, c.betas)]
                           for row, a in zip(moves, alphas)], dtype=np.int64)
        order = [k for part in (slice(lead), slice(lead, None))
                 for k, column in enumerate(change.T.tolist()) if any(column[part])]
        self.columns = tuple((k, change[:, k]) for k in order)
        self.jumps = frozenset(k for k in order if c.betas[k] == 0)

    @property
    def state_labels(self) -> tuple[str, ...]:
        network = self.classification.network
        return tuple(network.species[i].name for i in self.rows) + tuple(
            f"c{j + 1}" for j in range(len(self.weights) - len(self.rows)))

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def jump_reactions(self) -> tuple:
        """(reaction, change column) of each jump, in channel order."""
        return tuple((k, column) for k, column in self.columns if k in self.jumps)

    @property
    def flow_reactions(self) -> tuple:
        """(reaction, change column) of each flow, in channel order."""
        return tuple((k, column) for k, column in self.columns if k not in self.jumps)

    def to_hybrid(self) -> HybridSystem:
        return hybrid_system(self.state_labels, self.columns, self.jumps,
                             lambda k: self.rates[k].fn)

    def initial_state(self, full_scaled: np.ndarray) -> np.ndarray:
        """Project a full scaled state (vector, or species x compartments)
        onto the reduced coordinates."""
        totals = species_totals(full_scaled)
        leading = totals[list(self.rows)]
        if self.conserved is None:
            return leading
        return np.concatenate(
            [leading, self.conserved.value(totals[list(self.conserved.fast_rows)])])

    def observable_weights(self) -> np.ndarray:
        """Weights extracting each reduced coordinate from the FULL model
        state (flattened species x compartments), for paired ensembles."""
        return np.repeat(self.weights.astype(float),
                         self.classification.model.n_compartments, axis=1)


def build_reduced_model(model: Model, scaling: ScalingSpec | None = None,
                        mode: str = "auto", mc: McConfig | None = None,
                        base=None, case: int | None = None) -> ReducedModel:
    """Derive the reduced limit model for any supported scaling class.

    Single-scale non-spatial models reduce to themselves (identity).
    Single-scale spatial models average rates over movement equilibria.
    Two-scale models average over the fast stationary law, with the
    conserved variant engaged automatically when the fast tier has a
    nontrivial conserved basis. Spatial two-scale models additionally
    need the movement-speed case, read from the movement exponents or
    overridden via ``case``. Three chemical scales are supported
    non-spatially only.
    """
    mc = mc or McConfig()
    classification = classify(model, scaling or ScalingSpec())
    network = classification.network

    if classification.kind == "single":
        star = sorted(classification.k_sets["star"])
        if model.is_spatial:
            kind = "single-spatial"
            rates = {k: averaged_rate_single_scale(model, k, mode=mode, mc=mc) for k in star}
        else:
            kind = "identity"
            rates = {k: _identity_rate(network, k) for k in star}
        return ReducedModel(classification, kind, tuple(range(network.n_species)), None, rates)

    if classification.kind == "three" and model.is_spatial:
        raise CaseUnavailable("three chemical timescales are supported non-spatially only")
    basis = conserved_basis(classification)
    conserved = None if basis.empty else basis
    rows = classification.slow.rows
    if classification.kind == "three":
        if conserved is not None:
            raise CaseUnavailable("conserved quantities with three timescales "
                                  "are not supported")
        rates = {k: averaged_rate_three_scale(classification, k, mode=mode,
                                              base=base, mc=mc)
                 for k in sorted(classification.k_sets["slow"])}
        return ReducedModel(classification, "three", rows, None, rates)

    # two-scale
    needed = sorted(classification.k_sets["slow"] | (basis.k_c if conserved else set()))
    suffix = "-conserved" if conserved else ""
    if not model.is_spatial:
        rates = {k: averaged_rate_two_scale(classification, k, mode=mode, base=base,
                                            mc=mc, conserved=conserved)
                 for k in needed}
        return ReducedModel(classification, "two" + suffix, rows, conserved, rates)

    if case is None:
        if classification.spatial_case is None:
            raise CaseUnavailable("movement exponents do not determine a case; "
                                  "pass one explicitly")
        case = classification.spatial_case.tag
    rates = {k: averaged_rate_spatial(classification, case, k, conserved=conserved,
                                      mode=mode, mc=mc)
             for k in needed}
    return ReducedModel(classification, "spatial-two" + suffix, rows, conserved, rates)


def serialize_reduced(reduced: ReducedModel) -> str:
    """Deterministic text form of a reduced model.

    Lists the reduced coordinates, then one line per surviving reaction
    with its state change, jump/flow type, and rate descriptor: a
    closed-form expression where available, the ``analytic`` marker for
    closed forms without a printable formula, and ``montecarlo`` for
    simulation-backed evaluators.
    """
    c = reduced.classification
    network = c.network
    lines = [f"reduced-model {reduced.kind}"]
    coords = [(network.species[i].name, network.species[i].alpha) for i in reduced.rows]
    if reduced.conserved is not None:
        # alpha_c is normalized by the fast gap; print it in model units,
        # the alpha its species share, as the species coordinates are
        coords += [(f"c{j + 1} = {expr}", alpha * c.raw_eps2) for j, (expr, alpha) in
                   enumerate(zip(reduced.conserved.names(network), reduced.conserved.alpha_c))]
    for label, alpha in coords:
        lines.append(f"state {label} alpha={format_rational(alpha)}")
    labels = reduced.state_labels
    for kind_name, entries in (("jump", reduced.jump_reactions),
                               ("flow", reduced.flow_reactions)):
        for k, vec in entries:
            change = " ".join(f"{labels[j]}:{int(x):+}" for j, x in enumerate(vec) if x != 0)
            rate = reduced.rates[k]
            descriptor = rate.text if rate.text else (
                "analytic" if rate.kind == "analytic" else "montecarlo")
            lines.append(f"reaction {k + 1} {kind_name} {change} rate {descriptor}")
    return "\n".join(lines) + "\n"
