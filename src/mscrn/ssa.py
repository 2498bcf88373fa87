"""Exact stochastic simulation of the finite-N model.

The engine keeps raw integer counts internally (jumps are integer
stoichiometry), evaluates propensities N^(beta_k+gamma) lambda_k(N^-alpha x)
per reaction (plus N^(eta_i+gamma) lambda_M x for movement events), and
draws events with the direct method: exponential waiting time at the
total rate, then a proportional channel choice. Scaled views are
produced on output, so no drift accumulates in N^-alpha arithmetic.

The propensities live in a list kept current through a dependency graph
(Gibson & Bruck 2000; the optimized direct method of Cao, Li & Petzold
2004): each channel reads a set of raw counts, and after channel c fires
only the channels whose read set meets c's state change are recomputed.
A spatial event changes at most two compartments, so an event costs a
handful of propensity evaluations however many compartments there are.
The running total and the channel choice come from a left-to-right
cumulative sum, so the output equals a full recompute bit for bit.
:func:`direct_method` is the one event loop; the pure-jump hybrid engine
runs on it too.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import expressions
from . import rng as rng_mod
from .errors import EventCapExceeded, ModelError, RateEvaluationError
from .model import (MassAction, Model, Network, ScalingSpec, SpatialModel,
                    State, check_state)


@dataclass
class SimulationConfig:
    """N is the scaling parameter; t_end is in slow-time units (any time
    dilation gamma is folded into the propensities)."""

    N: float
    t_end: float
    seed: int = 0
    record: "np.ndarray | str | None" = None   # sample-time grid, 'events', or None
    max_events: int = 50_000_000

    def __post_init__(self):
        if self.N < 1:
            raise ModelError("N must be >= 1")
        if not math.isfinite(self.t_end) or self.t_end < 0:
            raise ModelError("t_end must be finite and >= 0")


@dataclass
class Trajectory:
    """Scaled-coordinate path snapshots plus per-channel event totals.

    ``times`` and ``states`` hold either the sample grid or, in event-log
    mode, every jump. ``channels`` describes the event channels in the
    order counted by ``event_counts``; ``event_log`` (event mode only)
    lists (time, channel) pairs.
    """

    times: np.ndarray
    states: np.ndarray
    event_counts: np.ndarray
    channels: tuple
    t_end: float
    final_state: np.ndarray
    event_log: list | None = None

    def observable(self, weights: np.ndarray) -> np.ndarray:
        flat = self.states.reshape(len(self.times), -1)
        return flat @ np.asarray(weights, dtype=float).reshape(-1)

    def sums(self) -> np.ndarray:
        """Per-species totals along the path (the sum process of a
        spatial run; the states themselves for a non-spatial one)."""
        if self.states.ndim == 3:
            return self.states.sum(axis=2)
        return self.states


class _Channel:
    """One event channel: a propensity function of the raw count vector,
    the flat indices it reads, and its integer state delta."""

    __slots__ = ("kind", "ident", "propensity", "reads", "delta")

    def __init__(self, kind, ident, propensity, reads, delta):
        self.kind = kind              # 'reaction' | 'movement'
        self.ident = ident            # (k, d) or (i, d1, d2); d is None nonspatially
        self.propensity = propensity
        self.reads = reads            # flat indices of the counts read
        self.delta = delta            # ((flat_index, change), ...)


def _mass_action(prefactor, terms):
    """Propensity of ``prefactor`` times each (flat index, order,
    discrete) term: a falling factorial of a discrete count (zero below
    the order), a power of a continuous one. A continuous count below
    zero can make the product negative; that raises, as a negative
    expression rate does, because a negative propensity has no meaning
    in the channel choice."""
    def propensity(x):
        out = prefactor
        for idx, order, discrete in terms:
            value = x[idx]
            if discrete:
                if value < order:
                    return 0.0
                for j in range(order):
                    out *= value - j
            else:
                if order == 1:
                    out *= value
                else:
                    out *= value ** order
        if out < 0:
            raise RateEvaluationError(f"negative mass-action propensity {out}")
        return out

    return propensity


def _expression(ast, scale, nd, d, index, time_factor):
    """Propensity of an expression law in compartment d, compiled once
    over the raw counts: symbol i reads ``scale[i] * x[i * nd + d]``."""
    def reader(name):
        if name not in index:
            return None
        flat, factor = index[name] * nd + d, scale[index[name]]
        return lambda x: factor * x[flat]

    law = expressions.compile_expression(ast, reader)

    def propensity(x):
        value = law(x)
        if value < 0:
            raise RateEvaluationError(f"negative expression rate {value}")
        return time_factor * value

    return propensity


def _compile_channels(model: Model, scaling: ScalingSpec, N: float) -> list[_Channel]:
    spatial = isinstance(model, SpatialModel)
    network = model.network if spatial else model
    nd = model.n_compartments if spatial else 1
    gamma = scaling.gamma
    alphas = network.alphas
    scale = [float(N) ** float(-alphas[i]) for i in range(network.n_species)]
    channels: list[_Channel] = []

    def flat(i, d):
        return i * nd + d

    for k, reaction in enumerate(network.reactions):
        for d in range(nd):
            law = model.rate_law(k, d) if spatial else reaction.rate_law
            time_factor = float(N) ** float(reaction.beta + gamma)
            delta = []
            for i, n in reaction.reactants:
                delta.append([flat(i, d), -n])
            for i, n in reaction.products:
                hit = next((e for e in delta if e[0] == flat(i, d)), None)
                if hit is not None:
                    hit[1] += n
                else:
                    delta.append([flat(i, d), n])
            delta = tuple((idx, ch) for idx, ch in delta if ch != 0)
            ident = (k, d if spatial else None)
            if isinstance(law, MassAction):
                prefactor = time_factor * law.kappa
                terms = []
                for i, n in reaction.reactants:
                    if alphas[i] == 0:
                        terms.append((flat(i, d), n, True))
                    else:
                        prefactor *= float(N) ** float(-alphas[i] * n)
                        terms.append((flat(i, d), n, False))
                channels.append(_Channel("reaction", ident, _mass_action(prefactor, tuple(terms)),
                                         tuple(idx for idx, _, _ in terms), delta))
            else:
                reads = tuple(sorted(flat(network.index[name], d)
                                     for name in expressions.variables(law.ast)
                                     if name in network.index))
                channels.append(_Channel("reaction", ident,
                                         _expression(law.ast, scale, nd, d, network.index,
                                                     time_factor),
                                         reads, delta))

    if spatial:
        for i, s in enumerate(network.species):
            eta = s.eta
            for d1 in range(nd):
                for d2 in range(nd):
                    rate = model.movement[i, d1, d2]
                    if rate <= 0:
                        continue
                    if eta is None:
                        raise ModelError(
                            f"species {s.name} moves but has no movement exponent eta")
                    prefactor = float(N) ** float(eta + gamma) * rate
                    delta = ((flat(i, d1), -1), (flat(i, d2), 1))
                    channels.append(_Channel("movement", (i, d1, d2),
                                             _mass_action(prefactor, ((flat(i, d1), 1, True),)),
                                             (flat(i, d1),), delta))
    return channels


class _Compiled:
    """The event channels of one (model, scaling, N) and their
    dependency graph, built once and shared by every replica.

    ``dependents[c]`` lists, in channel order, the channels whose read
    set meets the state change of channel c: the only propensities an
    event of c can move.
    """

    def __init__(self, model: Model, scaling: ScalingSpec, N: float):
        channels = _compile_channels(model, scaling, N)
        readers: dict[int, list[int]] = {}
        for c, channel in enumerate(channels):
            for idx in channel.reads:
                readers.setdefault(idx, []).append(c)
        self.propensities = [c.propensity for c in channels]
        self.deltas = [c.delta for c in channels]
        self.dependents = [tuple(sorted({r for idx, _ in c.delta for r in readers.get(idx, ())}))
                           for c in channels]
        self.ids = tuple((c.kind, c.ident) for c in channels)


def direct_method(prop: list, fire, refresh, rand: rng_mod.Buffered, t_end: float,
                  grid, snapshot, log: list | None, max_events: int) -> list[int]:
    """The direct-method event loop (Gillespie 1977) from t = 0 to
    ``t_end``; returns the number of events per channel.

    ``prop`` holds every channel's current propensity (nonnegative).
    Each event draws an exponential waiting time at the total rate and a
    uniform channel choice from the left-to-right cumulative sum. After
    channel c is chosen, ``fire(c)`` applies its state change; once the
    event is recorded and counted, ``refresh(c)`` rewrites the entries of
    ``prop`` the change can move. ``snapshot(t)`` records the state at
    each ``grid`` time passed and, when ``log`` is a list, after every
    event, whose (time, channel) pair is appended to ``log``. Raises
    EventCapExceeded at ``max_events`` events.
    """
    last = len(prop) - 1
    counts = [0] * len(prop)
    grid = [] if grid is None else np.asarray(grid, dtype=float).tolist()
    n_grid = len(grid)
    grid_pos = 0
    n_events = 0
    t = 0.0
    while prop:
        cum = list(accumulate(prop))
        total = cum[-1]
        if total <= 0.0:
            break
        t_next = t + rand.exponential() / total
        if t_next > t_end:
            break
        # record grid points passed before this event fires
        while grid_pos < n_grid and grid[grid_pos] <= t_next:
            snapshot(grid[grid_pos])
            grid_pos += 1
        t = t_next
        chosen = bisect_right(cum, rand.uniform() * total)
        if chosen > last:
            chosen = last
        fire(chosen)
        counts[chosen] += 1
        n_events += 1
        if log is not None:
            snapshot(t)
            log.append((t, chosen))
        if n_events >= max_events:
            raise EventCapExceeded(f"exceeded {max_events} events at t={t}")
        refresh(chosen)
    while grid_pos < n_grid:
        snapshot(grid[grid_pos])
        grid_pos += 1
    return counts


def _raw_initial(model: Model, scaling: ScalingSpec, config: SimulationConfig,
                 x0: State) -> np.ndarray:
    network = model.network if isinstance(model, SpatialModel) else model
    check_state(model, x0)
    counts = np.asarray(x0.counts, dtype=float)
    if x0.scaled:
        alphas = np.array([float(a) for a in network.alphas])
        factor = config.N ** alphas
        counts = counts * (factor[:, None] if counts.ndim == 2 else factor)
    raw = np.rint(counts)
    if np.any(np.abs(raw - counts) > 1e-9):
        raise ModelError("initial raw counts must be integers "
                         "(scaled init times N^alpha must round cleanly)")
    return raw.reshape(-1).astype(np.int64)


def _scaled_view(network: Network, nd: int, N: float, x: np.ndarray) -> np.ndarray:
    alphas = np.array([float(a) for a in network.alphas])
    values = x.reshape(len(alphas), nd) / (N ** alphas)[:, None]
    return values if nd > 1 else values[:, 0]


def simulate(model: Network, scaling: ScalingSpec, config: SimulationConfig,
             x0: State) -> Trajectory:
    """One statistically exact realization of the finite-N Markov chain."""
    if isinstance(model, SpatialModel):
        raise ModelError("use simulate_spatial for spatial models")
    return _simulate(model, scaling, config, x0)


def simulate_spatial(model: SpatialModel, scaling: ScalingSpec, config: SimulationConfig,
                     x0: State) -> Trajectory:
    """Exact realization including movement events; compartment sums are
    available from the trajectory via per-species summation."""
    if not isinstance(model, SpatialModel):
        raise ModelError("simulate_spatial needs a spatial model")
    return _simulate(model, scaling, config, x0)


def _simulate(model: Model, scaling: ScalingSpec, config: SimulationConfig,
              x0: State, rng: np.random.Generator | None = None,
              compiled: _Compiled | None = None) -> Trajectory:
    if x0 is None:
        raise ModelError("simulation needs an initial state")
    spatial = isinstance(model, SpatialModel)
    network = model.network if spatial else model
    nd = model.n_compartments if spatial else 1
    if compiled is None:
        compiled = _Compiled(model, scaling, config.N)
    x = _raw_initial(model, scaling, config, x0).tolist()
    rand = rng_mod.Buffered(rng if rng is not None else rng_mod.stream(config.seed))
    alpha_pow = config.N ** np.array([float(a) for a in network.alphas])
    divisor = alpha_pow[:, None] if nd > 1 else alpha_pow

    grid = None
    event_mode = False
    if isinstance(config.record, str):
        if config.record != "events":
            raise ModelError(f"unknown record mode {config.record!r}")
        event_mode = True
    elif config.record is not None:
        grid = np.asarray(config.record, dtype=float)
        if np.any(np.diff(grid) <= 0) or np.any(grid < 0) or grid[-1] > config.t_end + 1e-12:
            raise ModelError("record grid must be increasing within [0, t_end]")

    times = []
    states = []
    log = [] if event_mode else None

    def snapshot(t):
        times.append(t)
        values = np.array(x, dtype=float)
        if nd > 1:
            values = values.reshape(len(alpha_pow), nd)
        states.append(values / divisor)

    if event_mode:
        snapshot(0.0)

    propensities, deltas, dependents = (compiled.propensities, compiled.deltas,
                                        compiled.dependents)
    prop = [p(x) for p in propensities]

    def fire(c):
        for idx, change in deltas[c]:
            x[idx] += change

    def refresh(c):
        for j in dependents[c]:
            prop[j] = propensities[j](x)

    counts = direct_method(prop, fire, refresh, rand, config.t_end, grid, snapshot, log,
                           config.max_events)
    if not times:
        snapshot(0.0)

    return Trajectory(times=np.array(times),
                      states=np.array(states),
                      event_counts=np.array(counts, dtype=np.int64),
                      channels=compiled.ids,
                      t_end=config.t_end,
                      final_state=_scaled_view(network, nd, config.N, np.array(x, dtype=float)),
                      event_log=log)


@dataclass
class EnsembleStats:
    """Cross-replica summary statistics on a common time grid."""

    grid: np.ndarray
    observables: tuple[str, ...]
    mean: np.ndarray       # (n_obs, n_grid)
    variance: np.ndarray
    quantiles: dict        # q -> (n_obs, n_grid)
    replicas: int

    @classmethod
    def from_samples(cls, grid, observables, samples: np.ndarray,
                     quantiles=(0.1, 0.5, 0.9)) -> "EnsembleStats":
        """Summarize ``samples`` of shape (replicas, observables, grid)."""
        replicas = samples.shape[0]
        mean = samples.mean(axis=0)
        variance = samples.var(axis=0, ddof=1) if replicas > 1 else np.zeros_like(mean)
        qs = {q: np.quantile(samples, q, axis=0) for q in quantiles}
        return cls(grid=grid, observables=tuple(observables), mean=mean,
                   variance=variance, quantiles=qs, replicas=replicas)

    def standard_error(self) -> np.ndarray:
        return np.sqrt(self.variance / self.replicas)


def observable_weights(model: Model, names) -> tuple[tuple[str, ...], np.ndarray]:
    """Resolve observable specs to linear functionals over the flat state.

    Specs: a species name (its scaled count; total over compartments for
    spatial models), ``name@compartment`` for one compartment, or
    ``species:i``/plain names list. Returns (labels, weight matrix).
    """
    spatial = model.is_spatial
    network = model.network if spatial else model
    nd = model.n_compartments if spatial else 1
    dim = network.n_species * nd
    labels = []
    rows = []
    for spec in names:
        w = np.zeros(dim)
        if "@" in spec:
            name, comp = spec.split("@", 1)
            i = network.index[name]
            d = model.compartments.index(comp)
            w[i * nd + d] = 1.0
        else:
            i = network.index[spec]
            w[i * nd:(i + 1) * nd] = 1.0
        labels.append(spec)
        rows.append(w)
    return tuple(labels), np.array(rows)


def run_ensemble(model: Model, scaling: ScalingSpec, config: SimulationConfig,
                 replicas: int, observables, grid=None,
                 x0: State | None = None,
                 quantiles=(0.1, 0.5, 0.9),
                 simulator=None) -> EnsembleStats:
    """Replicated simulation with deterministic stream splitting.

    Replica r draws from the stream derived from (seed, r); identical
    inputs give bit-identical statistics regardless of scheduling. The
    channels and their dependency graph are built once for all replicas.
    ``observables`` is either a list of observable specs (see
    :func:`observable_weights`) or a precomputed (labels, weights) pair.
    """
    if replicas < 1:
        raise ModelError("replicas must be >= 1")
    if grid is None:
        if config.record is None or isinstance(config.record, str):
            raise ModelError("run_ensemble needs a sample grid")
        grid = np.asarray(config.record, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if isinstance(observables, tuple) and len(observables) == 2 \
            and isinstance(observables[1], np.ndarray):
        labels, weights = observables
    else:
        labels, weights = observable_weights(model, observables)

    samples = np.empty((replicas, len(labels), len(grid)))
    compiled = _Compiled(model, scaling, config.N) if simulator is None else None
    for r in range(replicas):
        cfg = SimulationConfig(config.N, config.t_end, config.seed, grid, config.max_events)
        stream = rng_mod.stream(config.seed, r)
        if simulator is None:
            traj = _simulate(model, scaling, cfg, x0, rng=stream, compiled=compiled)
        else:
            traj = simulator(cfg, stream)
        flat = traj.states.reshape(len(traj.times), -1)
        samples[r] = weights @ flat.T
    return EnsembleStats.from_samples(grid, labels, samples, quantiles)
