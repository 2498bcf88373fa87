"""Exact stochastic simulation of the finite-N model.

The engine keeps raw integer counts internally, held as floats (jumps
are integer stoichiometry), evaluates propensities
N^(beta_k+gamma) lambda_k(N^-alpha x) per reaction and compartment
(plus N^(eta_i+gamma) lambda_M x for movement events), and draws events
with the direct method: exponential waiting time at the total rate,
then a proportional channel choice, both from one event draw ``(wait,
target)`` of :mod:`rng`. Scaled views are produced on output, so no
drift accumulates in N^-alpha arithmetic. One
:func:`simulate` serves both model kinds: a network is read as the
one-compartment model, whose all-zero movement tensor makes no movement
channel. Its run equals that of ``SpatialModel(network, ["c"])`` bit
for bit, and only the channel ids, ``(k, None)`` for ``(k, 0)``, tell
the two apart.

The propensities live in a list kept current through a dependency graph
(:func:`dependency_graph`, after Gibson & Bruck 2000; the optimized
direct method of Cao, Li & Petzold 2004): each channel reads a set of
raw counts, and after channel c fires only the channels whose read set
meets c's state change are recomputed.
A spatial event changes at most two compartments, so an event costs a
handful of propensity evaluations however many compartments there are.
In the flat pass the running total and the channel choice come from a
left-to-right cumulative sum, so the output equals a full recompute bit
for bit. A model of ``BLOCKED_CHANNELS`` channels or more takes the
blocked pass instead (the two-level grouping of Elf & Ehrenberg
2004): the channels, in the same order, form blocks of about
sqrt(channels), each with its own cumulative sum, and an event rebuilds
only the blocks its dependents sit in, so it reads about sqrt(channels)
propensities rather than all of them. It chooses the same channel
sequence as the flat pass, with times equal to rounding.
:func:`direct_method` is the one event loop, with one callback per
event that fires it and returns the new cumulative list: :func:`_simulate`
keeps the flat and blocked passes, and :class:`pdmp.JumpChain` (pure-jump
hybrid and Monte Carlo fast-tier chains) its stored lists.

This module compiles no rate law: each propensity is
:func:`model.scaled_rate_function` at N over the flat raw counts (or
:func:`model.movement_rate_function`), the compiler the limit and
averaged rates use at N = 1, and it carries the positions it reads. The
engine stops on a negative propensity or a total that is not finite.

An ensemble of ``LOCKSTEP_REPLICAS`` or more replicas of a model whose
channels are all mass-action or movement runs in lockstep instead
(:func:`_lockstep`): the raw counts of every live replica are the rows
of one array, and each numpy step advances every replica by one event,
recomputing all propensities from the row forms (``row_terms``) of the
channels' closures through one :class:`model.MassActionRows`, the
closures' arithmetic over arrays.
Each replica still draws its own stream in the same order, and every
row is summed and chosen as in the flat pass, so the lockstep equals
the replica-by-replica loop run on the flat pass bit for bit. Where
that loop takes the blocked pass, it chooses the same channels with
times equal to rounding, so the ensemble statistics are equal except
where an event lands within rounding of a grid time or ``t_end``.
Below the threshold the per-event numpy overhead costs more than
it saves, and expression laws, single trajectories and event logs
always take the per-replica loop.

The per-replica loop runs its replicas on every usable CPU
(:func:`_in_shards`): the replicas are cut into one contiguous range per
CPU this process may run on, the first range runs in the calling
process and every other one in a forked child, which sends its
snapshots back through a pipe. Replica r reads the stream of
``SeedSequence([seed, r])`` wherever it runs, so the statistics are the
same bits at any CPU count. A process with a second thread running
counts one usable CPU and forks nothing, since a forked child holds only
the forking thread. A failing ensemble raises the error of its lowest
failing replica, as one replica after another would, once every child
is killed and reaped; a child that ends without a result raises
MscrnError naming its replicas. This module is the only one that starts
a process.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import pickle
import signal
import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import rng as rng_mod
from .errors import EventCapExceeded, ModelError, MscrnError, RateEvaluationError
from .model import (MassActionRows, Model, ScalingSpec, State, check_state,
                    movement_rate_function, scaled_rate_function, state_shape)


# Ensembles of at least this many replicas of a model whose channels are
# all mass-action or movement run in lockstep; below it the per-replica
# loop is faster. Measured crossover on a 2-CPU Xeon, with the loop on
# both CPUs (t_end 1, wall time, medians of 9-15 alternated pairs): about
# 22 replicas on the 3-channel AB titration at N = 1000 (lockstep 1.12-1.15x
# the loop's time at 20, 0.88-0.91x at 24), about 16 on a 224-channel ring
# at N = 100 (0.98-1.08x from 10 to 16, 0.78x at 18). With the loop on
# one CPU they were about 11 and between 5 and 6.
LOCKSTEP_REPLICAS = 8
# A model of at least this many channels takes the blocked pass of
# _simulate; below it the flat pass is faster. Measured with
# simulate at N = 100 on a 2-CPU Xeon, best of 9-15 runs per
# pass: on AB rings (7 channels per compartment) the blocked pass took
# 1.02-1.15x the flat pass's time per event at 42-70 channels,
# 0.79-0.89x at 84-140 and 0.51-0.61x at 224; with moves between every
# pair of compartments, 1.19x at 55 channels, 0.90-0.98x at 78-136 and
# 0.60x at 210.
BLOCKED_CHANNELS = 80
_NOT_FINITE = "total propensity {} is not finite"


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
        if not math.isfinite(self.N) or self.N < 1:
            raise ModelError("N must be finite and >= 1")
        check_t_end(self.t_end)
        rng_mod.check_seed(self.seed)
        check_count("max_events", self.max_events)


def check_t_end(t_end: float) -> None:
    """A run ends at a finite time t_end >= 0."""
    if not math.isfinite(t_end) or t_end < 0:
        raise ModelError("t_end must be finite and >= 0")


def check_count(name: str, value) -> None:
    """A count (an event cap, a number of replicas) is an integer >= 1
    (``operator.index`` takes it); ModelError names it otherwise."""
    try:
        count = operator.index(value)
    except TypeError:
        count = 0
    if count < 1:
        raise ModelError(f"{name} must be an integer >= 1, got {value!r}")


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

    def sums(self) -> np.ndarray:
        """Per-species totals along the path (the sum process of a
        spatial run; the states themselves for a non-spatial one)."""
        if self.states.ndim == 3:
            return self.states.sum(axis=2)
        return self.states


def _compile_channels(model: Model, scaling: ScalingSpec, N: float) -> list[tuple]:
    """The channels of the finite-N chain, ``((kind, ident), propensity,
    delta)`` over the flat raw counts: one per reaction and compartment,
    ident ``(k, d)`` (d None nonspatially), then one per positive hop
    rate, ident ``(i, d1, d2)``; ``delta`` is ``((flat_index, change), ...)``,
    the changes floats like the counts they add to."""
    network = model.network
    nd = model.n_compartments
    gamma = scaling.gamma
    channels = []
    for k, reaction in enumerate(network.reactions):
        change = {i: -n for i, n in reaction.reactants}
        for i, n in reaction.products:
            change[i] = change.get(i, 0) + n
        for d in range(nd):
            channels.append((("reaction", (k, d if model.is_spatial else None)),
                             scaled_rate_function(model, k, d, N, gamma, flat=True),
                             tuple((i * nd + d, float(c)) for i, c in change.items() if c)))
    for i in range(network.n_species):
        for d1 in range(nd):
            for d2 in range(nd):
                if model.movement[i, d1, d2] > 0:
                    channels.append((("movement", (i, d1, d2)),
                                     movement_rate_function(model, i, d1, d2, N, gamma),
                                     ((i * nd + d1, -1.0), (i * nd + d2, 1.0))))
    return channels


class _Compiled:
    """The event channels of one (model, scaling, N) and their
    dependency graph, built once and shared by every replica.

    ``dependents[c]`` lists, in channel order, the channels whose read
    set meets the state change of channel c: the only propensities an
    event of c can move. ``blocks`` is None for the flat pass of
    :func:`_simulate`; a model of at least ``BLOCKED_CHANNELS`` channels
    takes the blocked pass, with ``blocks = (size, dirty)``: the channels
    in their order cut into blocks of ``size`` = ceil(sqrt(channels)), and
    ``dirty[c]`` the blocks that hold a dependent of c.

    When every channel has a row form with a finite prefactor (an infinite
    one makes rates that are not finite with no overflow for the lockstep
    to trap), ``table`` evaluates them over the rows of the lockstep, one
    column per channel, and row c of ``delta`` is channel c's state
    change, with a last zero column for the ones column of the rows. The
    lockstep sums them as the flat pass does, whatever ``blocks`` is.
    Otherwise ``table`` is None.
    """

    def __init__(self, model: Model, scaling: ScalingSpec, N: float):
        channels = _compile_channels(model, scaling, N)
        self.ids = tuple(ident for ident, _, _ in channels)
        self.propensities = [propensity for _, propensity, _ in channels]
        self.deltas = [delta for _, _, delta in channels]
        self.dependents = dependency_graph([p.reads for p in self.propensities], self.deltas)
        dim = model.network.n_species * model.n_compartments
        self.blocks = None
        if len(channels) >= BLOCKED_CHANNELS:
            size = math.isqrt(len(channels) - 1) + 1
            self.blocks = (size, [tuple(sorted({j // size for j in deps}))
                                  for deps in self.dependents])
        self.table = None
        rows = [getattr(propensity, "row_terms", None) for propensity in self.propensities]
        if rows and all(row is not None and math.isfinite(row[0]) for row in rows):
            self.table = MassActionRows(rows, dim)
            self.delta = np.zeros((len(channels), dim + 1))
            for c, delta in enumerate(self.deltas):
                for idx, change in delta:
                    self.delta[c, idx] = change


def dependency_graph(reads, changes) -> list[tuple[int, ...]]:
    """The dependency graph of Gibson & Bruck: for each channel's change
    ``((position, change), ...)`` in ``changes``, the channels, in order,
    whose read set in ``reads`` meets the positions it changes."""
    readers: dict[int, list[int]] = {}
    for c, read in enumerate(reads):
        for p in read:
            readers.setdefault(p, []).append(c)
    return [tuple(sorted({r for p, _ in change for r in readers.get(p, ())}))
            for change in changes]


def direct_method(cum: list, step, draws, t_end: float, grid, snapshot,
                  max_events: int, pick=None, channels: int | None = None) -> list[int]:
    """The direct-method event loop (Gillespie 1977) from t = 0 to
    ``t_end``; returns the number of events per channel.

    ``cum`` is a left-to-right cumulative sum of the current propensities
    (nonnegative), whose last entry is the total rate. Each event takes
    the next pair ``(wait, target)`` of the iterable ``draws``: an Exp(1)
    wait, divided by the total rate, and a target uniform, scaled to
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

    The draws are those of :mod:`rng`: ``rng.events`` of a fresh stream
    or ``rng.cached_events`` of a Monte Carlo walk, event k on uniforms
    2k and 2k + 1 of the stream. The loop reads one pair per
    event, also for an event that falls past ``t_end``, and none once the
    total rate is zero.
    """
    last = len(cum) - 1
    counts = [0] * (len(cum) if channels is None else channels)
    grid = [] if grid is None else np.asarray(grid, dtype=float).tolist()
    n_grid = len(grid)
    grid_pos = 0
    n_events = 0
    t = 0.0
    draw = iter(draws).__next__
    while cum:
        total = cum[-1]
        if total <= 0.0:
            break
        wait, u = draw()
        t_next = t + wait / total
        if t_next > t_end:
            break
        # record grid points passed before this event fires
        while grid_pos < n_grid and grid[grid_pos] <= t_next:
            snapshot(grid[grid_pos])
            grid_pos += 1
        t = t_next
        target = u * total
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
    check_state(model, x0)
    counts = np.asarray(x0.counts, dtype=float).reshape(model.network.n_species, -1)
    if x0.scaled:
        counts = counts * (config.N ** np.array([float(a) for a in model.network.alphas]))[:, None]
    raw = np.rint(counts)
    if np.any(np.abs(raw - counts) > 1e-9):
        raise ModelError("initial raw counts must be integers "
                         "(scaled init times N^alpha must round cleanly)")
    return raw.reshape(-1)


def checked_grid(record, t_end: float) -> np.ndarray:
    """``record`` as a sample-time grid: one-dimensional, finite,
    increasing and within [0, t_end]; it may be empty."""
    grid = np.asarray(record, dtype=float)
    if grid.ndim != 1 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0) \
            or np.any(grid < 0) or (len(grid) and grid[-1] > t_end + 1e-12):
        raise ModelError("record grid must be finite and increasing within [0, t_end]")
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
    """The checked sample grid of an ensemble run; an ensemble needs an
    integer number of replicas, at least one, and one sample time."""
    check_count("replicas", replicas)
    grid = checked_grid(grid, t_end)
    if not len(grid):
        raise ModelError("an ensemble needs at least one sample time")
    return grid


def simulate(model: Model, scaling: ScalingSpec, config: SimulationConfig,
             x0: State) -> Trajectory:
    """One statistically exact realization of the finite-N Markov chain of
    a network or a spatial model, movement events included; the
    compartment sums of a spatial run are :meth:`Trajectory.sums`."""
    return _simulate(model, scaling, config, x0)


def _simulate(model: Model, scaling: ScalingSpec, config: SimulationConfig,
              x0: State, rng: np.random.Generator | None = None,
              compiled: _Compiled | None = None) -> Trajectory:
    if compiled is None:
        compiled = _Compiled(model, scaling, config.N)
    x = _raw_initial(model, scaling, config, x0).tolist()
    draws = rng_mod.events(rng if rng is not None else rng_mod.stream(config.seed))
    alpha_pow = config.N ** np.array([float(a) for a in model.network.alphas])
    shape = state_shape(model)
    divisor = alpha_pow[:, None] if len(shape) > 1 else alpha_pow

    grid, event_mode = record_mode(config.record, config.t_end)
    times = []
    states = []
    log = [] if event_mode else None

    def scaled():
        return np.array(x, dtype=float).reshape(shape) / divisor

    def snapshot(t):
        times.append(t)
        states.append(scaled())

    if grid is None or not len(grid):
        snapshot(0.0)

    propensities, deltas, dependents = (compiled.propensities, compiled.deltas,
                                        compiled.dependents)
    inf = math.inf
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
            cum = list(accumulate(sums))
            if not cum[-1] < inf:   # NaN too
                raise RateEvaluationError(_NOT_FINITE.format(cum[-1]))
            return cum

    cum = list(accumulate(sums))
    if cum and not cum[-1] < inf:
        raise RateEvaluationError(_NOT_FINITE.format(cum[-1]))
    counts = direct_method(cum, step, draws, config.t_end, grid, snapshot,
                           config.max_events, pick, len(prop))

    return Trajectory(times=np.array(times),
                      states=np.array(states),
                      event_counts=np.array(counts, dtype=np.int64),
                      channels=compiled.ids,
                      t_end=config.t_end,
                      final_state=scaled(),
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
    network = model.network
    nd = model.n_compartments
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
            if not model.is_spatial:
                raise ModelError(f"observable {spec!r}: the model has no compartments")
            if comp not in model.compartments:
                raise ModelError(f"observable {spec!r}: unknown compartment {comp!r}")
            w[i * nd + model.compartments.index(comp)] = 1.0
        else:
            w[i * nd:(i + 1) * nd] = 1.0
        labels.append(spec)
        rows.append(w)
    return tuple(labels), np.array(rows)


def usable_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``), or 1
    where that call is missing or a second thread runs: a forked child
    holds only the forking thread, so a lock another thread held would
    stay locked in it."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return 1
    return len(os.sched_getaffinity(0))


def _in_shards(out: np.ndarray, fill) -> None:
    """Call ``fill(lo, hi)``, which writes rows lo..hi-1 of ``out``, over
    all its rows, cut into k = min(rows, :func:`usable_cpus`) contiguous
    ranges that run at once: range 0 in this process, every other range
    in a forked child. A child writes its rows' bytes, or its exception
    pickled, to a pipe and always leaves by ``os._exit``; the rows are
    read straight into ``out``. At k = 1 nothing forks.

    The ranges are read in order, so the error raised is that of the
    first range that failed, and since each range runs its rows in order,
    that of the lowest failing row, as when the rows run one after
    another. A child that ends without a result raises MscrnError naming
    its rows and exit status. However the call ends (an error, a
    KeyboardInterrupt), every child still running is killed and reaped
    first, so no process outlives it.
    """
    rows = len(out)
    k = min(rows, usable_cpus())
    bounds = [rows * j // k for j in range(k + 1)]
    children = []   # (pid, pipe, lo, hi) of the ranges not yet read, in order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _shard_child(out, fill, lo, hi, write_end)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb"), lo, hi))
        fill(0, bounds[1])
        while children:
            pid, pipe, lo, hi = children[0]
            rows_read = error = None
            tag = pipe.read(1)
            if tag == b"\0":
                rows_read = pipe.readinto(memoryview(out[lo:hi]).cast("B"))
            elif tag == b"\1":
                try:
                    error = pickle.load(pipe)
                except Exception:   # a message cut short: the child died
                    pass
            pipe.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if error is not None:
                raise error
            if rows_read != out[lo:hi].nbytes:
                code = os.waitstatus_to_exitcode(status)
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise MscrnError(f"replicas {lo}..{hi - 1}: the worker process ended "
                                 f"without a result ({how})")
    finally:
        for pid, pipe, _, _ in children:
            pipe.close()
            # a child reaped just before an interrupt is gone already
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _shard_child(out: np.ndarray, fill, lo: int, hi: int, write_end: int):
    """The forked child of :func:`_in_shards`: fills rows lo..hi-1 of
    ``out`` and writes tag 0 and their bytes, or tag 1 and the pickled
    exception, to ``write_end``. It never returns; it leaves by
    ``os._exit``, status 0 once the whole message is written."""
    status = 1
    try:
        with os.fdopen(write_end, "wb") as pipe:
            try:
                fill(lo, hi)
            except BaseException as error:   # KeyboardInterrupt too
                pipe.write(b"\1" + _pickled(error))
            else:
                pipe.write(b"\0")
                pipe.write(memoryview(out[lo:hi]).cast("B"))
        status = 0
    finally:
        os._exit(status)


def _pickled(error: BaseException) -> bytes:
    """``error`` pickled, or, if it does not come back from its pickle,
    an MscrnError with its type and message."""
    try:
        data = pickle.dumps(error)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(MscrnError(f"{type(error).__name__}: {error}"))


def _per_replica(model: Model, scaling: ScalingSpec, config: SimulationConfig,
                 x0: State, replicas: int, compiled: _Compiled) -> np.ndarray:
    """Every replica's grid snapshots, (replicas, grid, flat state), each
    replica one :func:`_simulate` run; contiguous ranges of replicas run
    at once on the usable CPUs (:func:`_in_shards`), each range one
    replica after another. Replica r reads its own stream, so the
    snapshots, and the error raised, are the same at any CPU count."""
    snaps = np.empty((replicas, len(config.record),
                      model.network.n_species * model.n_compartments))

    def fill(lo, hi):
        for r in range(lo, hi):
            traj = _simulate(model, scaling, config, x0, rng=rng_mod.stream(config.seed, r),
                             compiled=compiled)
            snaps[r] = traj.states.reshape(len(traj.times), -1)

    _in_shards(snaps, fill)
    return snaps


def _lockstep(model: Model, scaling: ScalingSpec, config: SimulationConfig,
              x0: State, replicas: int, compiled: _Compiled) -> np.ndarray:
    """Every replica's grid snapshots, (replicas, grid, flat state), equal
    bit for bit to :func:`_per_replica` on the flat pass, from replicas
    run in lockstep; the blocked pass chooses the same channels, with
    times equal to rounding.

    The raw counts of the live replicas are the rows of one array, and
    each pass of the loop advances every live replica by one
    direct-method event: the propensities of all rows at once from
    ``compiled.table`` (the array's last column is the ones it reads),
    the left-to-right cumulative sum per row (``np.add.accumulate``,
    which ``cumsum`` calls), the waiting time, the channel choice, the
    number of partial sums but the last that are <= u * total
    (``bisect_right`` clamped to the last channel; the partial sums do
    not decrease), and the state change, the chosen rows of
    ``compiled.delta``. Live replicas have all made the same number of
    events k, so event k takes event draw k of each replica's
    ``SeedSequence([seed, r])`` stream, the draws of the per-replica
    loop, 64 events at a time from :func:`rng.event_draws`, stored
    event-major, (64, live replicas), so a step reads one row. Each live
    replica keeps its mark, its next grid time or the float after
    ``t_end``; only a step where some replica reaches its mark reads the
    grid and sets marks. A replica leaves the batch when its next event
    falls past ``t_end``. A replica fails on a negative propensity or a
    total that is not finite (numpy's overflow trap, no check per step);
    it is dropped with every later one, and the error raised is that of
    the lowest-numbered failing replica: the one a replica-by-replica
    run meets first.
    """
    x_init = _raw_initial(model, scaling, config, x0)
    grid = checked_grid(config.record, config.t_end)
    alpha_pow = config.N ** np.array([float(a) for a in model.network.alphas])
    table, delta, dim, t_end = compiled.table, compiled.delta, len(x_init), config.t_end
    accumulate = np.add.accumulate
    grid_next = np.append(grid, np.inf)
    # a row at grid position p needs attention once its next event reaches marks[p]
    marks = np.minimum(grid_next, np.nextafter(t_end, np.inf))
    streams = [rng_mod.stream(config.seed, r) for r in range(replicas)]
    snaps = np.empty((replicas, len(grid), dim))

    ids = np.arange(replicas)
    x = np.empty((replicas, dim + 1))
    x[:, :dim] = x_init
    x[:, dim] = 1.0
    t = np.zeros(replicas)
    pos = np.zeros(replicas, dtype=np.intp)
    mark = marks[pos]
    error = None
    events = 0

    # an overflow raises, so a total that is not finite costs no check per step
    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        while len(ids):
            keep = None
            try:
                prop = table(x)
                cum = accumulate(prop, axis=1)
                failed = prop.min() < 0
            except FloatingPointError:
                with np.errstate(over="ignore"):
                    prop = table(x)
                    cum = accumulate(prop, axis=1)
                failed = True
            if failed:
                i = int(np.argmax((prop < 0).any(axis=1) | ~(cum[:, -1] < np.inf)))
                negative = prop[i][prop[i] < 0].tolist()
                error = RateEvaluationError(f"negative mass-action propensity {negative[0]}"
                                            if negative else _NOT_FINITE.format(cum[i, -1]))
                keep = np.arange(len(ids)) < i
            k = events % 64
            if k == 0:
                waits, targets = (np.ascontiguousarray(a.T) for a in
                                  rng_mod.event_draws([streams[r] for r in ids], 64))
            total = cum[:, -1]
            # a zero or subnormal total gives an infinite or undefined time: no event
            try:
                t_next = t + waits[k] / total
            except FloatingPointError:
                with np.errstate(over="ignore"):
                    t_next = t + waits[k] / total
            if keep is not None or not (t_next < mark).all():
                done = ~(t_next <= t_end)
                if keep is not None or done.any():   # then some row leaves
                    if keep is not None:
                        done &= keep
                    for i in np.flatnonzero(done):
                        snaps[ids[i], pos[i]:] = x[i, :dim]
                    keep = ~done if keep is None else keep & ~done
                    ids, x, t, pos, cum, total, t_next = (
                        a[keep] for a in (ids, x, t, pos, cum, total, t_next))
                    waits, targets = waits[:, keep], targets[:, keep]
                    if not len(ids):
                        break
                # grid points passed before this event take the state before it
                passed = grid_next[pos] <= t_next
                while passed.any():
                    rows = np.flatnonzero(passed)
                    snaps[ids[rows], pos[rows]] = x[rows, :dim]
                    pos[rows] += 1
                    passed = grid_next[pos] <= t_next
                mark = marks[pos]
            t = t_next
            target = targets[k] * total
            chosen = (cum[:, :-1] <= target[:, None]).sum(axis=1)
            x += delta.take(chosen, axis=0)
            events += 1
            if events >= config.max_events:
                error = EventCapExceeded(f"exceeded {config.max_events} events "
                                         f"at t={float(t[0])}")
                break
    if error is not None:
        raise error
    return snaps / np.repeat(alpha_pow, model.n_compartments)


def run_ensemble(model: Model, scaling: ScalingSpec, config: SimulationConfig,
                 replicas: int, observables, x0: State | None = None,
                 quantiles=(0.1, 0.5, 0.9)) -> EnsembleStats:
    """Replicated simulation with deterministic stream splitting.

    ``config.record`` is the sample grid, which every replica records.
    Replica r draws from the stream derived from (seed, r); identical
    inputs give bit-identical statistics regardless of scheduling. The
    channels and their dependency graph are built once for all replicas.
    From ``LOCKSTEP_REPLICAS`` replicas on, when every channel is
    mass-action or movement, the replicas run in lockstep in this
    process (:func:`_lockstep`); otherwise one after another in
    contiguous ranges, one range per usable CPU (:func:`_per_replica`),
    with the same bits at any CPU count and, on failure, the error of the
    lowest failing replica. The lockstep sums and chooses as the flat pass of
    :func:`_simulate`, so both give the same statistics bit for bit below
    ``BLOCKED_CHANNELS`` channels; at or above it the blocked pass
    chooses the same channels with times equal to rounding, and the
    statistics differ only where an event lands within rounding of a
    grid time or ``t_end``.
    ``observables`` is either a list of observable specs (see
    :func:`observable_weights`) or a precomputed (labels, weights) pair.
    """
    if config.record is None or isinstance(config.record, str):
        raise ModelError("run_ensemble needs a sample grid")
    grid = ensemble_grid(config.record, replicas, config.t_end)
    if isinstance(observables, tuple) and len(observables) == 2 \
            and isinstance(observables[1], np.ndarray):
        labels, weights = observables
    else:
        labels, weights = observable_weights(model, observables)
    if not len(labels):
        raise ModelError("an ensemble needs at least one observable")

    compiled = _Compiled(model, scaling, config.N)
    cfg = SimulationConfig(config.N, config.t_end, config.seed, grid, config.max_events)
    run = (_lockstep if replicas >= LOCKSTEP_REPLICAS and compiled.table is not None
           else _per_replica)
    samples = np.empty((replicas, len(labels), len(grid)))
    for r, flat in enumerate(run(model, scaling, cfg, x0, replicas, compiled)):
        samples[r] = weights @ flat.T
    return EnsembleStats.from_samples(grid, labels, samples, quantiles)
