"""Piecewise-deterministic Markov process simulation.

Limit processes mix Poisson-driven integer jumps (discrete species) with
ODE flow (continuous species). Between jumps the engine integrates the
drift with an embedded Cash-Karp 5(4) pair while accumulating the
integrated jump hazard as an extra coordinate; a jump fires when the
hazard crosses an Exp(1) threshold, located by bisection over the step.
This avoids thinning bounds, which unbounded rates cannot supply.
Without flows the rates are constant between jumps, and the exact
direct method of the stochastic engine (:func:`ssa.direct_method`) runs
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .errors import (EventCapExceeded, MissingRates, ModelError, NegativeRate,
                     OdeStepFailure)
from .ssa import EnsembleStats, Trajectory, checked_grid, direct_method, ensemble_grid

# Cash-Karp tableau
_C = (0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_ERR = (-277 / 64512, 0.0, 6925 / 370944, -6925 / 202752, -277 / 14336, 277 / 7084)


@dataclass
class OdeConfig:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    max_step: float = math.inf
    hazard_tol: float = 1e-9
    min_step: float = 1e-13

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "hazard_tol", "min_step"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be > 0")


@dataclass
class HybridSystem:
    """Jump reactions carry integer state changes, flow reactions real
    drift vectors; rates are functions of the current state vector."""

    labels: tuple[str, ...]
    jumps: tuple        # ((rate_fn, int delta vector), ...)
    flows: tuple        # ((rate_fn, float drift vector), ...)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def drift(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        for rate_fn, vec in self.flows:
            out += rate_fn(v) * vec
        return out

    def jump_rates(self, v: np.ndarray) -> np.ndarray:
        return np.array([rate_fn(v) for rate_fn, _ in self.jumps])


def _eval_state(v: np.ndarray, abs_tol: float) -> np.ndarray:
    """Rate-evaluation view: roundoff undershoot below zero (within
    tolerance) reads as zero; the state itself is never clipped."""
    if np.all(v >= 0):
        return v
    worst = v.min()
    if worst < -10 * abs_tol:
        raise NegativeRate(f"state coordinate {worst} left the nonnegative orthant")
    return np.maximum(v, 0.0)


def simulate_pdmp(system: HybridSystem, v0, t_end: float, seed: int = 0,
                  ode_config: OdeConfig | None = None, record=None,
                  rng: np.random.Generator | None = None,
                  max_events: int = 10_000_000) -> Trajectory:
    """Simulate the hybrid process from ``v0`` up to ``t_end``.

    ``record`` follows the stochastic engine: a sample-time grid,
    ``'events'`` for a jump log, or None (initial snapshot only).
    """
    cfg = ode_config or OdeConfig()
    rng = rng if rng is not None else rng_mod.stream(seed)
    v = np.asarray(v0, dtype=float).copy()
    if v.shape != (system.dim,):
        raise ModelError(f"v0 has shape {v.shape}, system dimension is {system.dim}")
    if np.any(v < 0):
        raise ModelError("v0 must be nonnegative")

    event_mode = isinstance(record, str) and record == "events"
    grid = None if record is None or event_mode else checked_grid(record, t_end)

    times: list[float] = []
    states: list[np.ndarray] = []
    log = [] if event_mode else None
    counts = np.zeros(len(system.jumps), dtype=np.int64)

    def snapshot(t):
        times.append(t)
        states.append(v.copy())

    if event_mode:
        snapshot(0.0)

    if not system.flows:
        _simulate_pure_jump(system, v, t_end, rng, cfg, grid, snapshot, counts, log,
                            max_events)
    else:
        _simulate_hybrid(system, v, t_end, rng, cfg, grid, snapshot, counts, log,
                         max_events)

    if not times:
        snapshot(0.0)
    return Trajectory(times=np.array(times), states=np.array(states),
                      event_counts=counts,
                      channels=tuple(("jump", i) for i in range(len(system.jumps))),
                      t_end=t_end, final_state=v.copy(), event_log=log)


def _simulate_pure_jump(system, v, t_end, rng, cfg, grid, snapshot, counts, log,
                        max_events):
    """Rates are constant between jumps, so the direct method is exact.
    The rate functions are opaque, so every jump refreshes every rate."""
    rate_fns = [rate_fn for rate_fn, _ in system.jumps]
    # nonzero entries of each jump; the state starts nonnegative, so only
    # a decreasing coordinate can leave the orthant
    changes = [[(i, c) for i, c in enumerate(np.asarray(vec).tolist()) if c]
               for _, vec in system.jumps]
    prop = []

    def refresh(_chosen=None):
        state_view = _eval_state(v, cfg.abs_tol)
        rates = [rate_fn(state_view) for rate_fn in rate_fns]
        for i, r in enumerate(rates):
            if r < 0 or not math.isfinite(r):
                raise NegativeRate(f"jump rate {i} evaluated to {r}")
        prop[:] = rates

    def fire(chosen):
        for i, c in changes[chosen]:
            v[i] += c
            if c < 0 and v[i] < 0:
                raise NegativeRate("jump left the nonnegative orthant")

    refresh()
    counts[:] = direct_method(prop, fire, refresh, rng_mod.Buffered(rng), t_end, grid,
                              snapshot, log, max_events)


def _simulate_hybrid(system, v, t_end, rng, cfg, grid, snapshot, counts, log,
                     max_events):
    dim = system.dim

    def rhs(y):
        state = _eval_state(y[:dim], cfg.abs_tol)
        out = np.empty(dim + 1)
        out[:dim] = system.drift(state)
        hazard = 0.0
        for rate_fn, _ in system.jumps:
            r = rate_fn(state)
            if r < 0 or not math.isfinite(r):
                raise NegativeRate(f"jump rate evaluated to {r}")
            hazard += r
        out[dim] = hazard
        return out

    def ck_step(y, h):
        """One Cash-Karp step: returns (y_new, error_estimate)."""
        k = [rhs(y)]
        for stage in range(1, 6):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_A[stage]))
            k.append(rhs(yi))
        y_new = y + h * sum(b * ki for b, ki in zip(_B5, k))
        err = h * sum(e * ki for e, ki in zip(_ERR, k))
        return y_new, err

    def error_norm(y, y_new, err):
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        return float(np.sqrt(np.mean((err / scale) ** 2)))

    t = 0.0
    grid_pos = 0
    n_events = 0
    threshold = rng_mod.Buffered(rng)
    exp_threshold = threshold.exponential()
    y = np.concatenate([v, [0.0]])
    h = min(cfg.max_step, max(t_end / 100.0, 10 * cfg.min_step))

    while t < t_end - 1e-15:
        h = min(h, t_end - t, cfg.max_step)
        if grid is not None and grid_pos < len(grid):
            h = min(h, max(grid[grid_pos] - t, cfg.min_step))
        # adaptive step; a trial step whose stages leave the orthant is
        # rejected like an inaccurate one until the step is at its minimum
        while True:
            try:
                y_new, err = ck_step(y, h)
                norm = error_norm(y, y_new, err)
            except NegativeRate:
                if h <= cfg.min_step:
                    raise
                norm = math.inf
            if norm <= 1.0 or h <= cfg.min_step:
                break
            h = max(cfg.min_step, h * max(0.2, 0.9 * norm ** -0.2))
        if norm > 1.0 and h <= cfg.min_step:
            raise OdeStepFailure(f"error {norm:.3g} at minimum step size, t={t}")

        if y_new[dim] >= exp_threshold:
            # jump inside (t, t+h]: locate the hazard crossing by false
            # position with a bisection safeguard (Illinois), each probe
            # being one embedded step from the interval start
            lo, g_lo = 0.0, y[dim] - exp_threshold
            hi, g_hi = h, y_new[dim] - exp_threshold
            y_hi = y_new
            side = 0
            for _ in range(100):
                if g_hi <= cfg.hazard_tol or hi - lo <= cfg.min_step:
                    break
                denom = g_hi - g_lo
                mid = hi - g_hi * (hi - lo) / denom if denom != 0 else 0.5 * (lo + hi)
                if not lo < mid < hi:
                    mid = 0.5 * (lo + hi)
                y_mid, _ = ck_step(y, mid)
                g_mid = y_mid[dim] - exp_threshold
                if g_mid >= 0:
                    hi, g_hi, y_hi = mid, g_mid, y_mid
                    if side == 1:
                        g_lo *= 0.5
                    side = 1
                else:
                    lo, g_lo = mid, g_mid
                    if side == -1:
                        g_hi *= 0.5
                    side = -1
            tau = hi
            t_jump = t + tau
            if grid is not None:
                while grid_pos < len(grid) and grid[grid_pos] <= t_jump:
                    y_grid, _ = ck_step(y, max(grid[grid_pos] - t, 0.0))
                    v[:] = y_grid[:dim]
                    snapshot(float(grid[grid_pos]))
                    grid_pos += 1
            v[:] = y_hi[:dim]
            t = t_jump
            rates = system.jump_rates(_eval_state(v, cfg.abs_tol))
            total = rates.sum()
            if total <= 0:
                # hazard crossed on a vanishing rate: numerical corner, re-arm
                y = np.concatenate([v, [0.0]])
                exp_threshold = threshold.exponential()
                continue
            u = threshold.uniform() * total
            chosen = int(np.searchsorted(np.cumsum(rates), u))
            chosen = min(chosen, len(rates) - 1)
            v += system.jumps[chosen][1]
            if np.any(v < -10 * cfg.abs_tol):
                raise NegativeRate("jump left the nonnegative orthant")
            counts[chosen] += 1
            n_events += 1
            if log is not None:
                snapshot(t)
                log.append((t, chosen))
            if n_events >= max_events:
                raise EventCapExceeded(f"exceeded {max_events} jump events at t={t}")
            y = np.concatenate([v, [0.0]])
            exp_threshold = threshold.exponential()
            h = min(cfg.max_step, max(h, 10 * cfg.min_step))
        else:
            t += h
            y = y_new
            v[:] = y[:dim]
            _eval_state(v, cfg.abs_tol)  # orthant check at accepted step
            if grid is not None:
                while grid_pos < len(grid) and grid[grid_pos] <= t + 1e-15:
                    snapshot(float(grid[grid_pos]))
                    grid_pos += 1
            if norm > 0:
                h = min(cfg.max_step, h * min(5.0, 0.9 * norm ** -0.2))
            else:
                h = min(cfg.max_step, h * 5.0)

    if grid is not None:
        while grid_pos < len(grid):
            snapshot(float(grid[grid_pos]))
            grid_pos += 1


def limit_stoichiometry(classification, conserved=None) -> tuple[tuple, tuple, tuple]:
    """Coordinates and change columns of the limit process.

    Returns (labels, jumps, flows), where jumps and flows are
    (reaction, column) pairs: int64 columns for jumps, float for flows.
    Single-scale classifications use the full species set with the
    balanced-entry matrix; multi-scale ones use the slow tier plus, when
    a conserved basis is given, the conserved coordinates.
    """
    network = classification.network
    if classification.kind == "single":
        matrix = classification.star.matrix
        labels = tuple(s.name for s in network.species)
        return (labels,
                tuple((k, matrix[:, k].astype(np.int64))
                      for k in sorted(classification.k_sets["star_circ"])),
                tuple((k, matrix[:, k].astype(float))
                      for k in sorted(classification.k_sets["star_bullet"])))

    slow = classification.slow
    n_slow = len(slow.rows)
    n_cons = 0 if conserved is None or conserved.empty else len(conserved.vectors)
    labels = tuple(network.species[i].name for i in slow.rows)
    labels += tuple(f"c{j + 1}" for j in range(n_cons))

    def slow_column(k):
        column = np.zeros(n_slow + n_cons)
        column[:n_slow] = slow.column(k)
        return column

    jumps = [(k, slow_column(k).astype(np.int64))
             for k in sorted(classification.k_sets["slow_circ"])]
    flows = [(k, slow_column(k)) for k in sorted(classification.k_sets["slow_bullet"])]
    for k in sorted(conserved.k_c) if n_cons else ():
        column = np.zeros(n_slow + n_cons)
        column[n_slow:] = conserved.zeta_c[:, conserved.cols.index(k)]
        if k in conserved.k_c_circ:
            jumps.append((k, column.astype(np.int64)))
        else:
            flows.append((k, column))
    return labels, tuple(jumps), tuple(flows)


def build_limit_system(classification, rates, conserved=None) -> HybridSystem:
    """Assemble the limit process for a classification.

    ``rates`` maps reaction index -> rate function of the reduced state
    (slow species in row order, then conserved quantities); coordinates
    and columns come from :func:`limit_stoichiometry`.

    Raises MissingRates when a required reaction has no evaluator.
    """
    def need(k):
        if k not in rates:
            raise MissingRates(f"no rate evaluator for reaction {k}")
        return rates[k]

    labels, jumps, flows = limit_stoichiometry(classification, conserved)
    return HybridSystem(labels, tuple((need(k), column) for k, column in jumps),
                        tuple((need(k), column) for k, column in flows))


def tier_system(labels, tier, ks, circ, rate_of) -> HybridSystem:
    """HybridSystem of reactions ``ks`` on ``tier``'s change columns:
    integer jumps for those in ``circ``, float flows for the rest, each
    with the rate function ``rate_of(k)``."""
    ks = sorted(ks)
    return HybridSystem(labels,
                        tuple((rate_of(k), tier.column(k).astype(np.int64))
                              for k in ks if k in circ),
                        tuple((rate_of(k), tier.column(k).astype(float))
                              for k in ks if k not in circ))


def fast_subsystem(classification, frozen) -> HybridSystem:
    """Conditional fast dynamics: fast species evolve by the effective
    fast matrix while every slower coordinate is frozen.

    ``frozen`` is a full-length scaled state vector; its fast entries are
    ignored (overwritten by the simulation state on each evaluation).
    """
    from .model import scaled_rate_function

    network = classification.network
    if classification.kind == "single":
        raise ModelError("conditional fast dynamics requires a multi-scale classification")
    fast = classification.fast
    frozen = np.asarray(frozen, dtype=float)
    if frozen.shape != (network.n_species,):
        raise ModelError("frozen context must be a full-length species vector")

    row_list = list(fast.rows)

    def make_rate(k):
        base = scaled_rate_function(network, k)
        buffer = frozen.copy()

        def rate(v_fast, base=base, buffer=buffer):
            buffer[row_list] = v_fast
            return base(buffer)

        return rate

    circ = classification.k_sets["fast_circ"]
    return tier_system(tuple(network.species[i].name for i in fast.rows), fast,
                       circ | classification.k_sets["fast_bullet"], circ, make_rate)


def simulate_conditional_fast(classification, frozen, v_f0, t_end: float,
                              seed: int = 0, ode_config: OdeConfig | None = None,
                              record=None, rng=None,
                              max_events: int = 10_000_000) -> Trajectory:
    """Simulate the fast species conditional on frozen slow coordinates;
    conserved combinations of the fast tier stay exactly constant."""
    system = fast_subsystem(classification, frozen)
    return simulate_pdmp(system, v_f0, t_end, seed=seed, ode_config=ode_config,
                         record=record, rng=rng, max_events=max_events)


def run_ensemble_pdmp(system: HybridSystem, v0, t_end: float, seed: int,
                      replicas: int, grid, weights: np.ndarray,
                      labels=None, ode_config: OdeConfig | None = None,
                      quantiles=(0.1, 0.5, 0.9)) -> EnsembleStats:
    """Replicated PDMP runs with the same stream-splitting contract as
    the stochastic engine."""
    grid = ensemble_grid(grid, replicas, t_end)
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    if labels is None:
        labels = tuple(f"obs{i}" for i in range(weights.shape[0]))
    samples = np.empty((replicas, weights.shape[0], len(grid)))
    for r in range(replicas):
        traj = simulate_pdmp(system, v0, t_end, ode_config=ode_config,
                             record=grid, rng=rng_mod.stream(seed, r))
        samples[r] = weights @ traj.states.T
    return EnsembleStats.from_samples(grid, labels, samples, quantiles)
