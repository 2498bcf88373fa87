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
In the flat pass the running total and the channel choice come from a
left-to-right cumulative sum, so the output equals a full recompute bit
for bit. A spatial model of ``BLOCKED_CHANNELS`` channels or more takes
the blocked pass instead (the two-level grouping of Elf & Ehrenberg
2004): the channels, in the same order, form blocks of about
sqrt(channels), each with its own cumulative sum, and an event rebuilds
only the blocks its dependents sit in, so it reads about sqrt(channels)
propensities rather than all of them. It chooses the same channel
sequence as the flat pass, with times equal to rounding.
:func:`direct_method` is the one event loop, with one callback per
event that fires it and returns the new cumulative list: :func:`_simulate`
keeps the flat and blocked passes, and :class:`pdmp.JumpChain` (pure-jump
hybrid and Monte Carlo fast-tier chains) its stored lists.

The propensities come from :mod:`model`'s builders over raw counts:
:func:`model.mass_action_rate` with the powers of N in the prefactor,
:func:`model.expression_rate` with readers that scale the counts; an
expression law is 0 while a discrete reactant has fewer molecules than
its order. The engine checks that every propensity it reads is nonnegative.

An ensemble of ``LOCKSTEP_REPLICAS`` or more replicas of a model whose
channels are all mass-action or movement runs in lockstep instead
(:func:`_lockstep`): the raw counts of every live replica are the rows
of one array, and each numpy step advances every replica by one event,
recomputing all propensities from the channels' row forms through one
:class:`model.MassActionRows`, the closures' arithmetic over arrays.
Each replica still draws its own stream in the same order, so the
ensemble statistics equal those of the replica-by-replica loop bit for
bit. Below the threshold the per-event numpy overhead costs more than
it saves, and expression laws, single trajectories and event logs
always take the per-replica loop.
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
from .model import (MassAction, MassActionRows, Model, Network, ScalingSpec, SpatialModel,
                    State, check_state, expression_rate, mass_action_rate)


# Ensembles of at least this many replicas of a model whose channels are
# all mass-action or movement run in lockstep; below it one replica after
# another is faster. Measured crossover on a 2-CPU Xeon: about 8 replicas
# on the 3-channel AB titration, about 3 on a 224-channel ring.
LOCKSTEP_REPLICAS = 8
# Uniforms drawn per replica at a time in the lockstep (two per event).
_CHUNK = 128
# A spatial model of at least this many channels takes the blocked pass
# of _simulate; below it the flat pass is faster. Measured with
# simulate_spatial at N = 100 on a 2-CPU Xeon, best of 9-15 runs per
# pass: on AB rings (7 channels per compartment) the blocked pass took
# 1.02-1.15x the flat pass's time per event at 42-70 channels,
# 0.79-0.89x at 84-140 and 0.51-0.61x at 224; with moves between every
# pair of compartments, 1.19x at 55 channels, 0.90-0.98x at 78-136 and
# 0.60x at 210.
BLOCKED_CHANNELS = 80


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
        check_t_end(self.t_end)


def check_t_end(t_end: float) -> None:
    """A run ends at a finite time t_end >= 0."""
    if not math.isfinite(t_end) or t_end < 0:
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
    the flat indices it reads, and its integer state delta. A
    mass-action or movement channel also keeps its row form,
    ``prefactor`` and ``terms`` (see :func:`model.mass_action_rate`),
    from which both the scalar closure and the lockstep's
    :class:`model.MassActionRows` are built; both are None for an
    expression law."""

    __slots__ = ("kind", "ident", "propensity", "reads", "delta", "prefactor", "terms")

    def __init__(self, kind, ident, reads, delta, propensity=None, prefactor=None,
                 terms=None):
        self.kind = kind              # 'reaction' | 'movement'
        self.ident = ident            # (k, d) or (i, d1, d2); d is None nonspatially
        self.reads = reads            # flat indices of the counts read
        self.delta = delta            # ((flat_index, change), ...)
        self.prefactor = prefactor
        self.terms = terms            # ((flat_index, order, discrete), ...)
        self.propensity = propensity or mass_action_rate(prefactor, terms)


def _compile_channels(model: Model, scaling: ScalingSpec, N: float) -> list[_Channel]:
    spatial = isinstance(model, SpatialModel)
    network = model.network if spatial else model
    nd = model.n_compartments if spatial else 1
    gamma = scaling.gamma
    alphas = network.alphas
    scale = [float(N) ** float(-alphas[i]) for i in range(network.n_species)]
    index = network.index
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
                # the terms read raw counts: the powers of N that scale
                # the continuous ones fold into the prefactor
                prefactor = time_factor * law.kappa
                for i, n in reaction.reactants:
                    if alphas[i] != 0:
                        prefactor *= float(N) ** float(-alphas[i] * n)
                terms = tuple((flat(i, d), n, alphas[i] == 0) for i, n in reaction.reactants)
                channels.append(_Channel("reaction", ident, tuple(idx for idx, _, _ in terms),
                                         delta, prefactor=prefactor, terms=terms))
            else:
                def reader(name, d=d):
                    """Symbol ``name`` is ``scale[i] * x[i * nd + d]``."""
                    if name not in index:
                        return None
                    at, factor = flat(index[name], d), scale[index[name]]
                    return lambda x: factor * x[at]

                # closed, as mass action is, while a discrete reactant
                # has fewer molecules than its order
                needs = tuple((flat(i, d), n) for i, n in reaction.reactants if alphas[i] == 0)
                reads = tuple(sorted({flat(index[name], d)
                                      for name in expressions.variables(law.ast)
                                      if name in index} | {idx for idx, _ in needs}))
                rate = expression_rate(law.ast, reader, time_factor)
                channels.append(_Channel("reaction", ident, reads, delta, propensity=(
                    (lambda x, rate=rate, needs=needs:
                     rate(x) if all(x[i] >= n for i, n in needs) else 0.0) if needs else rate)))

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
                    channels.append(_Channel("movement", (i, d1, d2), (flat(i, d1),), delta,
                                             prefactor=prefactor,
                                             terms=((flat(i, d1), 1, True),)))
    return channels


class _Compiled:
    """The event channels of one (model, scaling, N) and their
    dependency graph, built once and shared by every replica.

    ``dependents[c]`` lists, in channel order, the channels whose read
    set meets the state change of channel c: the only propensities an
    event of c can move. ``blocks`` is None for the flat pass of
    :func:`_simulate`; a spatial model of at least
    ``BLOCKED_CHANNELS`` channels takes the blocked pass, with
    ``blocks = (size, dirty)``: the channels in their order cut into
    blocks of ``size`` = ceil(sqrt(channels)), and ``dirty[c]`` the
    blocks that hold a dependent of c.

    When every channel has a row form, ``table`` evaluates them over the
    rows of the lockstep, and row c of ``delta`` is channel c's state
    change, with a last zero column for the ones column of the rows.
    Under the blocked pass both are padded with channels of propensity
    zero that change nothing, up to a whole number of blocks. Otherwise
    ``table`` is None.
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
        spatial = isinstance(model, SpatialModel)
        dim = (model.network.n_species * model.n_compartments if spatial
               else model.n_species)
        self.blocks = None
        columns = len(channels)
        if spatial and len(channels) >= BLOCKED_CHANNELS:
            size = math.isqrt(len(channels) - 1) + 1
            self.blocks = (size, [tuple(sorted({j // size for j in deps}))
                                  for deps in self.dependents])
            columns = -(-len(channels) // size) * size
        self.table = None
        if channels and all(c.terms is not None for c in channels):
            padding = [(0.0, ())] * (columns - len(channels))
            self.table = MassActionRows([(c.prefactor, c.terms) for c in channels] + padding,
                                        dim)
            self.delta = np.zeros((columns, dim + 1))
            for c, channel in enumerate(channels):
                for idx, change in channel.delta:
                    self.delta[c, idx] = change


def direct_method(cum: list, step, rand: rng_mod.Buffered, t_end: float, grid, snapshot,
                  max_events: int, pick=None, channels: int | None = None) -> list[int]:
    """The direct-method event loop (Gillespie 1977) from t = 0 to
    ``t_end``; returns the number of events per channel.

    ``cum`` is a left-to-right cumulative sum of the current propensities
    (nonnegative), whose last entry is the total rate. Each event draws
    an exponential waiting time at the total rate and a target uniform in
    [0, total). With ``pick`` None the entries of ``cum`` are the
    channels' and the chosen channel is the first whose partial sum
    exceeds the target (``bisect_right``, clamped to the last channel);
    otherwise ``pick(cum, target)`` chooses it among ``channels``
    channels. Each event is counted and makes one call, ``step(t, c,
    refresh)``, which applies channel c's state change, records the
    event and, with ``refresh`` true, returns the cumulative list of the
    new state. The ``max_events``-th event gets ``refresh`` false, then
    raises EventCapExceeded: an error of the change or the record wins
    over the cap, the cap over one of the refresh. The loop never writes
    to a list it is given. ``snapshot(t)`` records the state at each
    ``grid`` time passed.

    The uniforms come from one iterator over ``rand`` (see
    :class:`rng.Buffered`), in the order of ``rand.exponential()`` then
    ``rand.uniform()`` per event.
    """
    last = len(cum) - 1
    counts = [0] * (len(cum) if channels is None else channels)
    grid = [] if grid is None else np.asarray(grid, dtype=float).tolist()
    n_grid = len(grid)
    grid_pos = 0
    n_events = 0
    t = 0.0
    uniform = iter(rand).__next__
    log = math.log
    while cum:
        total = cum[-1]
        if total <= 0.0:
            break
        # 1 - U lies in (0, 1], so the log is finite
        t_next = t - log(1.0 - uniform()) / total
        if t_next > t_end:
            break
        # record grid points passed before this event fires
        while grid_pos < n_grid and grid[grid_pos] <= t_next:
            snapshot(grid[grid_pos])
            grid_pos += 1
        t = t_next
        target = uniform() * total
        chosen = bisect_right(cum, target, 0, last) if pick is None else pick(cum, target)
        counts[chosen] += 1
        n_events += 1
        if n_events >= max_events:
            step(t, chosen, False)
            raise EventCapExceeded(f"exceeded {max_events} events at t={t}")
        cum = step(t, chosen, True)
    while grid_pos < n_grid:
        snapshot(grid[grid_pos])
        grid_pos += 1
    return counts


def _raw_initial(model: Model, scaling: ScalingSpec, config: SimulationConfig,
                 x0: State) -> np.ndarray:
    if x0 is None:
        raise ModelError("simulation needs an initial state")
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


def checked_grid(record, t_end: float) -> np.ndarray:
    """``record`` as a sample-time grid: one-dimensional, increasing and
    within [0, t_end]; it may be empty."""
    grid = np.asarray(record, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0) or np.any(grid < 0) \
            or (len(grid) and grid[-1] > t_end + 1e-12):
        raise ModelError("record grid must be increasing within [0, t_end]")
    return grid


def record_mode(record, t_end: float) -> tuple[np.ndarray | None, bool]:
    """``record`` as ``(grid, event_mode)``: ``'events'`` asks for an
    event log, None for no grid, and anything else is a sample grid
    checked by :func:`checked_grid`; another string raises ModelError."""
    if isinstance(record, str):
        if record != "events":
            raise ModelError(f"unknown record mode {record!r}")
        return None, True
    return (None if record is None else checked_grid(record, t_end)), False


def ensemble_grid(grid, replicas: int, t_end: float) -> np.ndarray:
    """The checked sample grid of an ensemble run; an ensemble needs at
    least one replica and one sample time."""
    if replicas < 1:
        raise ModelError("replicas must be >= 1")
    grid = checked_grid(grid, t_end)
    if not len(grid):
        raise ModelError("an ensemble needs at least one sample time")
    return grid


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
    spatial = isinstance(model, SpatialModel)
    network = model.network if spatial else model
    nd = model.n_compartments if spatial else 1
    if compiled is None:
        compiled = _Compiled(model, scaling, config.N)
    x = _raw_initial(model, scaling, config, x0).tolist()
    rand = rng_mod.Buffered(rng if rng is not None else rng_mod.stream(config.seed))
    alpha_pow = config.N ** np.array([float(a) for a in network.alphas])
    divisor = alpha_pow[:, None] if nd > 1 else alpha_pow

    grid, event_mode = record_mode(config.record, config.t_end)
    times = []
    states = []
    log = [] if event_mode else None

    def snapshot(t):
        times.append(t)
        values = np.array(x, dtype=float)
        if nd > 1:
            values = values.reshape(len(alpha_pow), nd)
        states.append(values / divisor)

    if grid is None or not len(grid):
        snapshot(0.0)

    propensities, deltas, dependents = (compiled.propensities, compiled.deltas,
                                        compiled.dependents)
    # a continuous count drawn below zero can make a mass-action
    # propensity negative, which has no meaning in the channel choice
    prop = [p(x) for p in propensities]
    for value in prop:
        if value < 0:
            raise RateEvaluationError(f"negative mass-action propensity {value}")

    pick, dirty, sums = None, [()] * len(prop), prop   # the flat pass
    if compiled.blocks is not None:
        # the blocked pass: each block keeps its own cumulative sum, rebuilt
        # when it holds a dependent of c; the loop gets that of the block sums
        size, dirty = compiled.blocks
        cums = [list(accumulate(prop[lo:lo + size])) for lo in range(0, len(prop), size)]
        sums = [inner[-1] for inner in cums]
        last_block = len(cums) - 1

        def pick(cum, target):
            # the flat pass's channel; a residual that rounds up to its
            # block's sum takes the block's last channel of positive propensity
            b = bisect_right(cum, target, 0, last_block)
            inner = cums[b]
            j = bisect_right(inner, target - cum[b - 1] if b else target)
            chosen = b * size + j
            if j == len(inner):
                chosen -= 1
                while prop[chosen] <= 0.0:
                    chosen -= 1
            return chosen

    def step(t, c, refresh):
        # fire c, log it in event mode and, unless at the cap, refresh
        for idx, change in deltas[c]:
            x[idx] += change
        if log is not None:
            snapshot(t)
            log.append((t, c))
        if refresh:
            for j in dependents[c]:
                value = prop[j] = propensities[j](x)
                if value < 0:
                    raise RateEvaluationError(f"negative mass-action propensity {value}")
            for b in dirty[c]:
                lo = b * size
                inner = cums[b] = list(accumulate(prop[lo:lo + size]))
                sums[b] = inner[-1]
            return list(accumulate(sums))

    counts = direct_method(list(accumulate(sums)), step, rand, config.t_end, grid, snapshot,
                           config.max_events, pick, len(prop))

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
    spatial models) or ``name@compartment`` for one compartment. Returns
    (labels, weight matrix). An unknown species or compartment, or ``@``
    on a model without compartments, raises ModelError naming the spec.
    """
    spatial = model.is_spatial
    network = model.network if spatial else model
    nd = model.n_compartments if spatial else 1
    dim = network.n_species * nd
    labels = []
    rows = []
    for spec in names:
        w = np.zeros(dim)
        name, at, comp = spec.partition("@")
        if name not in network.index:
            raise ModelError(f"observable {spec!r}: unknown species {name!r}")
        i = network.index[name]
        if at:
            if not spatial:
                raise ModelError(f"observable {spec!r}: the model has no compartments")
            if comp not in model.compartments:
                raise ModelError(f"observable {spec!r}: unknown compartment {comp!r}")
            w[i * nd + model.compartments.index(comp)] = 1.0
        else:
            w[i * nd:(i + 1) * nd] = 1.0
        labels.append(spec)
        rows.append(w)
    return tuple(labels), np.array(rows)


def _per_replica(model: Model, scaling: ScalingSpec, config: SimulationConfig,
                 x0: State, replicas: int, compiled: _Compiled):
    """Each replica's grid snapshots, (grid, flat state), one
    :func:`_simulate` run after another."""
    for r in range(replicas):
        traj = _simulate(model, scaling, config, x0, rng=rng_mod.stream(config.seed, r),
                         compiled=compiled)
        yield traj.states.reshape(len(traj.times), -1)


def _lockstep(model: Model, scaling: ScalingSpec, config: SimulationConfig,
              x0: State, replicas: int, compiled: _Compiled) -> np.ndarray:
    """Every replica's grid snapshots, (replicas, grid, flat state), equal
    bit for bit to :func:`_per_replica`, from replicas run in lockstep.

    The raw counts of the live replicas are the rows of one array, and
    each pass of the loop advances every live replica by one
    direct-method event: the propensities of all rows at once from
    ``compiled.table`` (the array's last column is the ones it reads),
    the left-to-right cumulative sum per row (``cumsum`` adds in
    sequence, like ``accumulate``), the waiting time, and the channel
    choice, the number of partial sums but the last that are <= u *
    total (``bisect_right`` clamped to the last channel; the partial
    sums do not decrease). A model with ``compiled.blocks`` makes the
    same sums and choice as the blocked pass: its propensities, padded
    with zero channels to whole blocks, are reshaped to (rows, blocks,
    size), summed by ``cumsum`` within each block and then over the
    block sums, and :func:`_choose_in_blocks` picks the channel. Live
    replicas have all made the same number of events k, so event k
    takes uniforms 2k and 2k + 1 of each replica's ``SeedSequence([seed,
    r])`` stream; they are drawn ``_CHUNK`` at a time per replica, and
    the exponentials come from ``math.log``, whose rounding ``np.log``
    does not always share. A replica leaves the batch when its next event falls past
    ``t_end``. A replica that fails is dropped with every later one,
    and the error raised is that of the lowest-numbered failing
    replica: the one a replica-by-replica run meets first.
    """
    x_init = _raw_initial(model, scaling, config, x0)
    grid = checked_grid(config.record, config.t_end)
    network = model.network if isinstance(model, SpatialModel) else model
    nd = model.n_compartments if isinstance(model, SpatialModel) else 1
    alpha_pow = config.N ** np.array([float(a) for a in network.alphas])
    table, blocks, dim, t_end = compiled.table, compiled.blocks, len(x_init), config.t_end
    half = _CHUNK // 2
    grid_next = np.append(grid, np.inf)
    # a row needs attention once its next event passes its next grid
    # time or t_end
    marks = np.minimum(grid_next, np.nextafter(t_end, np.inf))
    streams = [rng_mod.stream(config.seed, r) for r in range(replicas)]
    snaps = np.empty((replicas, len(grid), dim))

    ids = np.arange(replicas)
    x = np.empty((replicas, dim + 1))
    x[:, :dim] = x_init
    x[:, dim] = 1.0
    t = np.zeros(replicas)
    pos = np.zeros(replicas, dtype=np.intp)
    error = None
    events = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(ids):
            prop = table(x)
            keep = None
            if prop.min() < 0:
                i = int(np.argmax((prop < 0).any(axis=1)))
                error = RateEvaluationError("negative mass-action propensity "
                                            f"{float(prop[i][prop[i] < 0][0])}")
                keep = np.arange(len(ids)) < i
            if events % half == 0:
                uniforms = np.empty((len(ids), _CHUNK))
                for row, r in enumerate(ids):
                    streams[r].random(out=uniforms[row])
                # 1 - U lies in (0, 1], so the log is finite
                waits = -np.fromiter(map(math.log, (1.0 - uniforms[:, 0::2]).ravel().tolist()),
                                     float, uniforms.size // 2).reshape(len(ids), half)
            if blocks is None:
                cum = prop.cumsum(axis=1)
            else:
                # the cumulative block sums, after a leading zero
                inner = prop.reshape(len(prop), -1, blocks[0]).cumsum(axis=2)
                cum = np.zeros((len(prop), inner.shape[1] + 1))
                inner[:, :, -1].cumsum(axis=1, out=cum[:, 1:])
            total = cum[:, -1]
            # a zero total gives an infinite or undefined time: no event
            t_next = t + waits[:, events % half] / total
            if keep is not None or not (t_next < marks[pos]).all():
                done = ~(t_next <= t_end)
                if keep is not None:
                    done &= keep
                for i in np.flatnonzero(done):
                    snaps[ids[i], pos[i]:] = x[i, :dim]
                keep = ~done if keep is None else keep & ~done
                if not keep.all():
                    ids, x, t, pos, uniforms, waits, cum, total, t_next = (
                        a[keep] for a in (ids, x, t, pos, uniforms, waits, cum, total, t_next))
                    if blocks is not None:
                        inner = inner[keep]
                    if not len(ids):
                        break
                # grid points passed before this event take the state before it
                passed = grid_next[pos] <= t_next
                while passed.any():
                    rows = np.flatnonzero(passed)
                    snaps[ids[rows], pos[rows]] = x[rows, :dim]
                    pos[rows] += 1
                    passed = grid_next[pos] <= t_next
            t = t_next
            target = uniforms[:, 2 * (events % half) + 1] * total
            if blocks is None:
                chosen = (cum[:, :-1] <= target[:, None]).sum(axis=1)
            else:
                chosen = _choose_in_blocks(cum, inner, target, x, table)
            x += compiled.delta[chosen]
            events += 1
            if events >= config.max_events:
                error = EventCapExceeded(f"exceeded {config.max_events} events "
                                         f"at t={float(t[0])}")
                break
    if error is not None:
        raise error
    return snaps / np.repeat(alpha_pow, nd)


def _choose_in_blocks(cum, inner, target, x, table) -> np.ndarray:
    """The channels the blocked pass of :func:`_simulate` chooses
    for the rows of ``target``, from the cumulative block sums after a
    leading zero, ``cum``, and the (rows, blocks, size) cumulative sums
    within each block, ``inner``. The block is the number of block
    partial sums but the last that are <= the target, and the channel
    the number of its partial sums <= the residual: the padding of the
    last block repeats its sum, so it is counted only when every channel
    is. A residual at or above the block's sum takes the block's last
    channel of positive propensity, found from the row's propensities.
    """
    rows = np.arange(len(target))
    size = inner.shape[2]
    b = (cum[:, 1:-1] <= target[:, None]).sum(axis=1)
    j = (inner[rows, b] <= (target - cum[rows, b])[:, None]).sum(axis=1)
    chosen = b * size + j
    for i in np.flatnonzero(j == size):
        prop = table(x[i:i + 1])[0]
        c = chosen[i] - 1
        while prop[c] <= 0.0:
            c -= 1
        chosen[i] = c
    return chosen


def run_ensemble(model: Model, scaling: ScalingSpec, config: SimulationConfig,
                 replicas: int, observables, grid=None,
                 x0: State | None = None,
                 quantiles=(0.1, 0.5, 0.9)) -> EnsembleStats:
    """Replicated simulation with deterministic stream splitting.

    Replica r draws from the stream derived from (seed, r); identical
    inputs give bit-identical statistics regardless of scheduling. The
    channels and their dependency graph are built once for all replicas.
    From ``LOCKSTEP_REPLICAS`` replicas on, when every channel is
    mass-action or movement, the replicas run in lockstep (:func:`_lockstep`); otherwise one after
    another. Both give the same statistics bit for bit.
    ``observables`` is either a list of observable specs (see
    :func:`observable_weights`) or a precomputed (labels, weights) pair.
    """
    if grid is None:
        if config.record is None or isinstance(config.record, str):
            raise ModelError("run_ensemble needs a sample grid")
        grid = config.record
    grid = ensemble_grid(grid, replicas, config.t_end)
    if isinstance(observables, tuple) and len(observables) == 2 \
            and isinstance(observables[1], np.ndarray):
        labels, weights = observables
    else:
        labels, weights = observable_weights(model, observables)

    compiled = _Compiled(model, scaling, config.N)
    cfg = SimulationConfig(config.N, config.t_end, config.seed, grid, config.max_events)
    run = (_lockstep if replicas >= LOCKSTEP_REPLICAS and compiled.table is not None
           else _per_replica)
    samples = np.empty((replicas, len(labels), len(grid)))
    for r, flat in enumerate(run(model, scaling, cfg, x0, replicas, compiled)):
        samples[r] = weights @ flat.T
    return EnsembleStats.from_samples(grid, labels, samples, quantiles)
