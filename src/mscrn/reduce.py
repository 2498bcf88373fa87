"""Reduced limit models: assembly and simulation entry points.

A ReducedModel bundles the reduced state (slow species or totals, plus
conserved combinations), the effective stoichiometry columns, and an
averaged-rate evaluator per surviving reaction. It feeds directly into
the hybrid engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import (AveragedRate, McConfig, _identity_rate,
                        averaged_rate_three_scale, averaged_rate_two_scale)
from .classify import ConservedBasis, ScaleClassification, classify, conserved_basis
from .errors import CaseUnavailable
from .model import Model, ScalingSpec
from .pdmp import HybridSystem, limit_stoichiometry


@dataclass
class ReducedModel:
    """The scaling-limit model of the slow observables.

    ``state_labels`` name the reduced coordinates: slow species (their
    totals, for spatial models) followed by conserved combinations.
    ``jump_reactions``/``flow_reactions`` give (reaction, change vector)
    pairs; ``rates`` the averaged evaluators over the reduced state.
    """

    classification: ScaleClassification
    kind: str
    state_labels: tuple[str, ...]
    jump_reactions: tuple
    flow_reactions: tuple
    rates: dict[int, AveragedRate]
    conserved: ConservedBasis | None = None
    initial_map: object = None        # full scaled state -> reduced state

    @property
    def dim(self) -> int:
        return len(self.state_labels)

    def to_hybrid(self) -> HybridSystem:
        return HybridSystem(
            self.state_labels,
            tuple((self.rates[k].fn, column) for k, column in self.jump_reactions),
            tuple((self.rates[k].fn, column) for k, column in self.flow_reactions))

    def initial_state(self, full_scaled: np.ndarray) -> np.ndarray:
        """Project a full scaled state (vector, or species x compartments)
        onto the reduced coordinates."""
        full_scaled = np.asarray(full_scaled, dtype=float)
        if full_scaled.ndim == 2:
            totals = full_scaled.sum(axis=1)
        else:
            totals = full_scaled
        c = self.classification
        if self.kind == "identity" or self.kind == "single-spatial":
            return totals.copy()
        slow = [totals[i] for i in c.slow.rows]
        if self.conserved is not None and not self.conserved.empty:
            fast_totals = [totals[i] for i in c.fast.rows]
            slow.extend(self.conserved.value(fast_totals))
        return np.array(slow)

    def observable_weights(self) -> np.ndarray:
        """Weights extracting each reduced coordinate from the FULL model
        state (flattened species x compartments), for paired ensembles."""
        c = self.classification
        network = c.network
        nd = c.model.n_compartments if c.model.is_spatial else 1
        dim = network.n_species * nd
        rows = []
        if self.kind in ("identity", "single-spatial"):
            for i in range(network.n_species):
                w = np.zeros(dim)
                w[i * nd:(i + 1) * nd] = 1.0
                rows.append(w)
        else:
            for i in c.slow.rows:
                w = np.zeros(dim)
                w[i * nd:(i + 1) * nd] = 1.0
                rows.append(w)
            if self.conserved is not None and not self.conserved.empty:
                for vec in self.conserved.vectors:
                    w = np.zeros(dim)
                    for j, i in enumerate(self.conserved.fast_rows):
                        w[i * nd:(i + 1) * nd] = float(vec[j])
                    rows.append(w)
        return np.array(rows)


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
    spatial = model.is_spatial

    if classification.kind == "single":
        if not spatial:
            rates = {k: _identity_rate(network, k)
                     for k in sorted(classification.k_sets["star"])}
            return _assemble(classification, "identity", rates, None)
        from .spatial_cases import averaged_rate_single_scale
        rates = {k: averaged_rate_single_scale(model, k, mode=mode, mc=mc)
                 for k in sorted(classification.k_sets["star"])}
        return _assemble(classification, "single-spatial", rates, None)

    if classification.kind == "three":
        if spatial:
            raise CaseUnavailable("three chemical timescales are supported "
                                  "non-spatially only")
        basis = conserved_basis(classification)
        if not basis.empty:
            raise CaseUnavailable("conserved quantities with three timescales "
                                  "are not supported")
        rates = {k: averaged_rate_three_scale(classification, k, mode=mode,
                                              base=base, mc=mc)
                 for k in sorted(classification.k_sets["slow"])}
        return _assemble(classification, "three", rates, None)

    # two-scale
    basis = conserved_basis(classification)
    has_conserved = not basis.empty
    needed = sorted(classification.k_sets["slow"] | (basis.k_c if has_conserved else set()))
    if not spatial:
        rates = {k: averaged_rate_two_scale(classification, k, mode=mode, base=base,
                                            mc=mc, conserved=basis if has_conserved else None)
                 for k in needed}
        kind = "two-conserved" if has_conserved else "two"
        return _assemble(classification, kind, rates, basis if has_conserved else None)

    from .spatial_cases import averaged_rate_spatial
    if case is None:
        if classification.spatial_case is None:
            raise CaseUnavailable("movement exponents do not determine a case; "
                                  "pass one explicitly")
        case = classification.spatial_case.tag
    rates = {k: averaged_rate_spatial(classification, case, k,
                                      conserved=basis if has_conserved else None,
                                      mode=mode, mc=mc)
             for k in needed}
    kind = "spatial-two-conserved" if has_conserved else "spatial-two"
    return _assemble(classification, kind, rates, basis if has_conserved else None)


def _assemble(classification, kind, rates, basis) -> ReducedModel:
    labels, jumps, flows = limit_stoichiometry(classification, basis)
    return ReducedModel(classification, kind, labels, jumps, flows, rates, basis)


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
    if reduced.kind in ("identity", "single-spatial"):
        coords = [(s.name, s.alpha) for s in network.species]
    else:
        coords = [(network.species[i].name, network.species[i].alpha)
                  for i in c.slow.rows]
        if reduced.conserved is not None:
            names = reduced.conserved.names(network)
            for j, expr in enumerate(names):
                coords.append((f"c{j + 1} = {expr}", reduced.conserved.alpha_c[j]))
    for label, alpha in coords:
        from .exact import format_rational
        lines.append(f"state {label} alpha={format_rational(alpha)}")
    for kind_name, entries in (("jump", reduced.jump_reactions),
                               ("flow", reduced.flow_reactions)):
        for k, vec in entries:
            change = " ".join(f"{reduced.state_labels[j]}:{int(x) if float(x).is_integer() else x:+}"
                              for j, x in enumerate(vec) if x != 0)
            rate = reduced.rates[k]
            descriptor = rate.text if rate.text else (
                "analytic" if rate.kind == "analytic" else "montecarlo")
            lines.append(f"reaction {k + 1} {kind_name} {change} rate {descriptor}")
    return "\n".join(lines) + "\n"
