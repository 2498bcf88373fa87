"""Convergence verification: finite-N ensembles against the reduced limit.

Weak convergence licenses distributional comparison only, so the harness
never compares paths: it records grid-time ensemble means of the slow
(and conserved) observables for a ladder of N values, compares each
against the reduced-model ensemble mean, and checks that the normalized
deviation shrinks as N grows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .averaging import McConfig
from .errors import ModelError
from .model import Model, ScalingSpec, State, species_totals
from .pdmp import run_ensemble_pdmp
from .reduce import ReducedModel, build_reduced_model
from .ssa import SimulationConfig, run_ensemble

SCHEMA_VERSION = 1


@dataclass
class VerifyReport:
    schema_version: int
    n_grid: list[int]
    times: list[float]
    observables: list[str]
    reduced_mean: np.ndarray            # (obs, times)
    reduced_se: np.ndarray
    per_n_mean: list[np.ndarray]
    per_n_se: list[np.ndarray]
    errors: list[float]
    error_ses: list[float]
    trend: str                          # 'decreasing' | 'non-monotone' | 'not-applicable'
    final_error: float
    threshold: float
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "N_grid": self.n_grid,
            "times": self.times,
            "observables": self.observables,
            "reduced": {"mean": self.reduced_mean.tolist(),
                        "se": self.reduced_se.tolist()},
            "per_N": [{"N": n,
                       "mean": self.per_n_mean[j].tolist(),
                       "se": self.per_n_se[j].tolist(),
                       "error": self.errors[j],
                       "error_se": self.error_ses[j]}
                      for j, n in enumerate(self.n_grid)],
            "errors": self.errors,
            "trend": self.trend,
            "final_error": self.final_error,
            "threshold": self.threshold,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\n"

    CSV_HEADER = "observable,time,N,mean,se,reduced_mean,reduced_se"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for o, name in enumerate(self.observables):
            for t_idx, t in enumerate(self.times):
                for j, n in enumerate(self.n_grid):
                    cells = [name, repr(float(t)), str(n),
                             repr(float(self.per_n_mean[j][o, t_idx])),
                             repr(float(self.per_n_se[j][o, t_idx])),
                             repr(float(self.reduced_mean[o, t_idx])),
                             repr(float(self.reduced_se[o, t_idx]))]
                    lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _trend_verdict(errors, error_ses) -> str:
    if len(errors) < 2:
        return "not-applicable"
    increases = []
    for j in range(len(errors) - 1):
        if errors[j + 1] > errors[j]:
            slack = 2.0 * (error_ses[j] + error_ses[j + 1])
            increases.append(errors[j + 1] - errors[j] <= slack)
    if len(increases) == 0:
        return "decreasing"
    if len(increases) == 1 and increases[0]:
        return "decreasing"
    return "non-monotone"


def verify_convergence(model: Model, scaling: ScalingSpec, n_grid, replicas: int,
                       times, x0_scaled, seed: int = 0, mode: str = "auto",
                       mc: McConfig | None = None, threshold: float = 0.05,
                       reduced: ReducedModel | None = None,
                       case: int | None = None) -> VerifyReport:
    """Run paired ensembles and grade the error sequence.

    ``x0_scaled`` is the full scaled initial state (species, or species
    by compartments). The reduced reference ensemble uses the same
    replica count unless the limit is a pure flow, which is
    deterministic and needs one run. error(N) is the maximum over
    observables and grid times of |mean_N - mean_limit| normalized by
    (|mean_limit| + 1); the trend verdict tolerates one non-monotone
    step within twice the combined standard errors. An empty or not
    strictly increasing N ladder, or no grid time, raises ModelError.
    """
    ladder, times = np.asarray(n_grid, dtype=float), np.asarray(times, dtype=float)
    if not (ladder.ndim == times.ndim == 1 and len(ladder) and len(times)) \
            or np.any(np.diff(ladder) <= 0):
        raise ModelError(f"verify needs a strictly increasing N ladder and a grid time, "
                         f"got N {n_grid!r} and times {times.tolist()!r}")
    mc = mc or McConfig(seed=seed)
    x0_scaled = np.asarray(x0_scaled, dtype=float)
    if reduced is None:
        # constant species keep their initial totals in frozen rate contexts
        reduced = build_reduced_model(model, scaling, mode=mode, mc=mc, case=case,
                                      base=species_totals(x0_scaled))

    weights = reduced.observable_weights()
    labels = list(reduced.state_labels)
    system = reduced.to_hybrid()
    v0 = reduced.initial_state(x0_scaled)
    pdmp_replicas = 1 if not system.jumps else replicas
    limit = run_ensemble_pdmp(system, v0, float(times[-1]), seed, pdmp_replicas,
                              times, np.eye(reduced.dim), labels=labels)
    reduced_mean = limit.mean
    reduced_se = limit.standard_error()

    per_mean = []
    per_se = []
    errors = []
    error_ses = []
    denom = np.abs(reduced_mean) + 1.0
    for n in n_grid:
        cfg = SimulationConfig(N=n, t_end=float(times[-1]), seed=seed, record=times)
        stats = run_ensemble(model, scaling, cfg, replicas, (tuple(labels), weights),
                             x0=State(x0_scaled.copy(), scaled=True))
        per_mean.append(stats.mean)
        se = stats.standard_error()
        per_se.append(se)
        deviation = np.abs(stats.mean - reduced_mean) / denom
        flat = int(np.argmax(deviation))
        o, t_idx = np.unravel_index(flat, deviation.shape)
        errors.append(float(deviation[o, t_idx]))
        error_ses.append(float((se[o, t_idx] + reduced_se[o, t_idx]) / denom[o, t_idx]))

    trend = _trend_verdict(errors, error_ses)
    final_error = errors[-1]
    passed = final_error <= threshold and trend in ("decreasing", "not-applicable")
    return VerifyReport(SCHEMA_VERSION, [int(n) for n in n_grid],
                        [float(t) for t in times], labels,
                        reduced_mean, reduced_se, per_mean, per_se,
                        errors, error_ses, trend, final_error, threshold, passed)
