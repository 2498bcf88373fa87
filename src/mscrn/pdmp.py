"""Piecewise-deterministic Markov process simulation.

Limit processes mix Poisson-driven integer jumps (discrete species) with
ODE flow (continuous species). Between jumps the engine integrates the
drift with an embedded Cash-Karp 5(4) pair while accumulating the
integrated jump hazard as an extra coordinate; a jump fires when the
hazard crosses an Exp(1) threshold, located by false position over the
step. This avoids thinning bounds, which unbounded rates cannot supply.
Without flows the rates are constant between jumps, and the exact
direct method of the stochastic engine (:func:`ssa.direct_method`) runs
instead, over a Python list state (:class:`JumpChain`), walking a
bounded graph of stored states: a jump along a stored link is a channel
choice and a pointer move, and one into a new state refreshes only the
rates that read a coordinate it changed. The Monte Carlo fast-tier
chains of the averaging layer run on the same class, which keeps their
time average (:class:`Occupation`) in the one callback of each jump.

Runs with flows go through one kernel (:func:`_run_rows`) that advances
any number of runs at once, one row each: a single run is one row, an
ensemble one row per replica. Each row keeps its own step size, hazard
search, grid snapshots, jumps and random stream (:func:`_row`), and on
every pass asks for one Cash-Karp step; the steps of all rows are taken
by one batched evaluation (:func:`_ck_rows`), which hands each row its
new state and, as floats, its error norm, hazard and smallest coordinate.
Mass-action rates evaluate over the rows through one
:class:`model.MassActionRows`, other rates one row at a time. Every row does the arithmetic of a lone run in
the same order, so an ensemble equals its replicas run one after
another bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import rng as rng_mod
from .errors import EventCapExceeded, ModelError, NegativeRate, OdeStepFailure
from .model import MassActionRows
from .ssa import (EnsembleStats, Trajectory, check_t_end, direct_method, ensemble_grid,
                  record_mode)

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

# Jump cap of a run whose caller sets none.
_MAX_EVENTS = 10_000_000
# Rates a JumpChain's memo stores, over all its states.
_MEMO_RATES = 1 << 16
# Uniforms an ensemble row takes from its stream at a time, few since each
# row holds them as floats; a stream gives the same values in any blocks.
_ROW_DRAWS = 16


@dataclass
class OdeConfig:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    max_step: float = math.inf
    hazard_tol: float = 1e-9
    min_step: float = 1e-13

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "hazard_tol", "min_step"):
            if not getattr(self, name) > 0:   # NaN fails too
                raise ModelError(f"{name} must be > 0")


@dataclass
class HybridSystem:
    """Jump reactions carry integer state changes, flow reactions real
    drift vectors; rates are functions of the current state vector. A
    rate of :func:`model.mass_action_rate` carries its row form
    ``row_terms``, which the kernels read; any other rate is opaque."""

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


def _jump_calls(system: HybridSystem) -> list:
    """Each jump rate, and whether it is called on the coordinate list, where
    a rate with a row form rounds as on an array; others take an array."""
    return [(fn, getattr(fn, "row_terms", None) is not None) for fn, _ in system.jumps]


def _eval_state(v: np.ndarray, abs_tol: float) -> np.ndarray:
    """Rate-evaluation view: roundoff undershoot below zero (within
    tolerance) reads as zero; the state itself is never clipped."""
    if np.all(v >= 0):
        return v
    worst = v.min()
    if worst < -10 * abs_tol:
        raise NegativeRate(f"state coordinate {worst} left the nonnegative orthant")
    return np.maximum(v, 0.0)


def _initial_state(system: HybridSystem, v0, t_end: float) -> np.ndarray:
    """A checked copy of ``v0``, after checking ``t_end``."""
    check_t_end(t_end)
    return _checked_state(system, v0)


def _checked_state(system: HybridSystem, v0) -> np.ndarray:
    """A copy of ``v0``: of the system's dimension, finite, nonnegative."""
    v = np.asarray(v0, dtype=float).copy()
    if v.shape != (system.dim,):
        raise ModelError(f"v0 has shape {v.shape}, system dimension is {system.dim}")
    if not np.all(np.isfinite(v)):
        raise ModelError("v0 must be finite")
    if np.any(v < 0):
        raise ModelError("v0 must be nonnegative")
    return v


class _Path:
    """The record of one run: its live state ``v``, the snapshots, the
    jumps per channel and, in event mode, the (time, channel) log. A run
    without a sample grid starts with a snapshot of its initial state."""

    __slots__ = ("v", "times", "states", "counts", "log")

    def __init__(self, v: np.ndarray, n_jumps: int, grid, event_mode: bool):
        self.v = v
        self.times: list[float] = []
        self.states: list[np.ndarray] = []
        self.counts = np.zeros(n_jumps, dtype=np.int64)
        self.log = [] if event_mode else None
        if grid is None or not len(grid):
            self.snapshot(0.0)

    def snapshot(self, t):
        self.times.append(t)
        self.states.append(self.v.copy())


def simulate_pdmp(system: HybridSystem, v0, t_end: float, seed: int = 0,
                  ode_config: OdeConfig | None = None, record=None,
                  rng: np.random.Generator | None = None,
                  max_events: int = _MAX_EVENTS) -> Trajectory:
    """Simulate the hybrid process from ``v0`` up to ``t_end``.

    ``record`` follows the stochastic engine: a sample-time grid,
    ``'events'`` for a jump log, or None (initial snapshot only).
    """
    cfg = ode_config or OdeConfig()
    v = _initial_state(system, v0, t_end)
    grid, event_mode = record_mode(record, t_end)
    path = _Path(v, len(system.jumps), grid, event_mode)
    rng = rng if rng is not None else rng_mod.stream(seed)
    if system.flows:
        _run_rows(system, [path], t_end, [rng_mod.Buffered(rng)], cfg, grid, max_events)
    else:
        _simulate_pure_jump(system, path, t_end, rng_mod.Buffered(rng), grid, max_events)
    return Trajectory(times=np.array(path.times), states=np.array(path.states),
                      event_counts=path.counts,
                      channels=tuple(("jump", i) for i in range(len(system.jumps))),
                      t_end=t_end, final_state=path.v.copy(), event_log=path.log)


def _simulate_pure_jump(system, path, t_end, rand, grid, max_events):
    """Run a pure-jump system along ``path`` on a :class:`JumpChain`."""
    chain = JumpChain(system, path.v)

    def snapshot(t, key):
        path.times.append(t)
        path.states.append(np.array(key))

    path.counts[:] = chain.run(t_end, rand, grid, snapshot, path.log, max_events)
    path.v[:] = chain.key


class Occupation:
    """The time weights of a path's visits, summed as they end: a visit
    that starts after the first ``burn`` of the path's ``events`` and
    lasts adds its duration to its state's weight in the open batch, a
    dict (states in first-visit order), and every ``quota`` such visits
    open the next batch. No raw visit is held."""

    def __init__(self, quota: int | None, burn: int = 0):
        self.quota, self.burn, self.batches, self.visits, self.events = quota, burn, [{}], 0, 0

    def arrays(self, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (states, weights, batch) arrays of the empirical law."""
        sizes = [len(acc) for acc in self.batches]
        return (np.array([x for acc in self.batches for x in acc], dtype=float).reshape(-1, dim),
                np.array([w for acc in self.batches for w in acc.values()], dtype=float),
                np.repeat(np.arange(len(sizes), dtype=np.intp), sizes))


class JumpChain:
    """A pure-jump system on :func:`ssa.direct_method` over a Python list
    state, started at ``v0``. The rates are constant between jumps, so
    the direct method is exact.

    A rate with a row form (``row_terms``, see
    :func:`model.mass_action_rate`) is evaluated on the list, where it
    rounds as on an array, and reads the positions of its terms; any
    other rate is opaque: it is called on the coordinates as an array
    (one per state) and reads all of them. After channel c fires into a
    new state only the rates that read a coordinate c changes are
    refreshed, in channel order: the others are unchanged functions of
    unchanged values. So a run equals one that refreshes every rate
    after every jump. The state starts in the nonnegative orthant; a
    jump that leaves it, or a rate that is negative or not finite,
    raises NegativeRate.

    The rates must be pure functions of the coordinates ``key``, so the
    chain walks a graph of nodes ``(key, rates, cum, links)``: a state,
    its checked rates, their left-to-right cumulative sums and, per
    channel, the stored node it leads to (None until it first fires
    there). ``memo`` maps each state a jump entered to its node, up to
    ``_MEMO_RATES`` rates; a state met once it is full is not stored and
    gets the all-None ``unlinked``, so links join stored nodes only. A
    jump into a stored state evaluates no rate; ``misses`` counts those
    that do.

    A chain given an ``occupation`` keeps its path's time average there
    (and no event log), in the one callback each event makes, which ends
    a visit. A run with an event ends its last visit at its horizon, and
    the next run starts one in that state; a run without one adds none.
    """

    def __init__(self, system: HybridSystem, v0, occupation: Occupation | None = None):
        work = _checked_state(system, v0).tolist()
        self.fns = _jump_calls(system)
        reads = [{i for i, _, _ in fn.row_terms[1]} if listed else set(range(system.dim))
                 for fn, listed in self.fns]
        self.changes = [[(i, c) for i, c in enumerate(np.asarray(vec).tolist()) if c]
                        for _, vec in system.jumps]
        self.dependents = [[(j, *self.fns[j]) for j, read in enumerate(reads)
                            if any(p in read for p, _ in change)] for change in self.changes]
        self.memo, self.misses, self.occupation = {}, 0, occupation
        self.memo_cap = _MEMO_RATES // max(len(self.fns), 1)   # in states
        self.unlinked = (None,) * len(self.fns)
        values = np.array(work)   # the rates are checked when a run starts
        rates = [fn(work if listed else values) for fn, listed in self.fns]
        self.key = tuple(work)
        self.node = (self.key, rates, list(accumulate(rates)), self.unlinked)

    def rates(self) -> list:
        """Every rate at the current state (unchecked before a run)."""
        return list(self.node[1])

    def run(self, t_end: float, rand: rng_mod.Buffered, grid=None, snapshot=None, log=None,
            max_events: int = _MAX_EVENTS) -> list[int]:
        """Run the chain for ``t_end`` on the uniforms of ``rand``, on from
        where the last run ended; returns the events per channel.
        ``snapshot(t, key)`` records the state ``key`` at each ``grid``
        time passed and, with an event ``log``, after each event, whose
        (time, channel) pair joins the log."""
        check_t_end(t_end)
        changes, dependents, memo, cap = self.changes, self.dependents, self.memo, self.memo_cap
        unlinked, occupation, node = self.unlinked, self.occupation, self.node
        for j, r in enumerate(node[1]):
            if not 0.0 <= r < math.inf:
                raise NegativeRate(f"jump rate {j} evaluated to {r}")
        work, acc = list(node[0]), None
        if occupation is not None:
            # the open visit starts now, ``skip`` visits before the burn-in ends
            quota, batches, visits = occupation.quota, occupation.batches, occupation.visits
            acc, start, skip = batches[-1], 0.0, max(occupation.burn - occupation.events, 0)

        def step(t, chosen, refresh):
            nonlocal node, acc, visits, start, skip
            prev = node
            node = prev[3][chosen]
            if node is None:
                # off the links, a state not stored leaves node None for
                # the refresh; only a decrease can leave the orthant
                work[:] = prev[0]
                for p, c in changes[chosen]:
                    work[p] += c
                    if c < 0 and work[p] < 0:
                        raise NegativeRate("jump left the nonnegative orthant")
                key = tuple(work)
                node = memo.get(key)
                if node is not None and prev[3] is not unlinked:
                    prev[3][chosen] = node
            if acc is not None:   # the visit to prev's state ends
                if skip:
                    skip -= 1
                elif t > start:
                    state = prev[0]
                    acc[state] = acc.get(state, 0.0) + (t - start)
                    visits += 1
                    if visits == quota:
                        acc, visits = {}, 0
                        batches.append(acc)
                start = t
            elif log is not None:
                snapshot(t, key if node is None else node[0])
                log.append((t, chosen))
            if node is not None:
                return node[2]
            if refresh:
                # every dependent is evaluated before the first bad rate
                # raises, so a later rate's own error wins, as in a full refresh
                rates, bad, values = prev[1].copy(), None, None
                for j, fn, listed in dependents[chosen]:
                    if not listed and values is None:
                        values = np.array(work)
                    r = rates[j] = fn(work if listed else values)
                    if not 0.0 <= r < math.inf and bad is None:
                        bad = j
                if bad is not None:
                    raise NegativeRate(f"jump rate {bad} evaluated to {rates[bad]}")
                self.misses += 1
                if len(memo) < cap:
                    node = memo[key] = (key, rates, list(accumulate(rates)), [None] * len(rates))
                    if prev[3] is not unlinked:
                        prev[3][chosen] = node
                else:
                    node = (key, rates, list(accumulate(rates)), unlinked)
                return node[2]

        counts = direct_method(node[2], step, rand, t_end, grid,
                               lambda t: snapshot(t, node[0]), max_events)
        self.node, self.key = node, node[0]
        if acc is not None:
            # a run with an event ends its last visit at the horizon
            events = sum(counts)
            if events and not skip and t_end > start:
                acc[node[0]] = acc.get(node[0], 0.0) + (t_end - start)
                visits += 1
                if visits == quota:
                    visits = 0
                    batches.append({})
            occupation.visits, occupation.events = visits, occupation.events + events
        return counts


def _run_rows(system, paths, t_end, draws, cfg, grid, max_events):
    """Run the hybrid process along every path of ``paths`` at once,
    path r on the uniforms of ``draws[r]``.

    Each path is one :func:`_row`, which yields the Cash-Karp steps
    ``(y, h)`` it needs one at a time. On each pass the steps of every
    live row go through one :func:`_ck_rows` call, and one error norm,
    one hazard column and one smallest state coordinate over the rows;
    each row gets back its ``(y_new, norm, hazard, low)``, the last
    three as floats, or has the error its stages raised thrown in. A
    row that fails is dropped with every higher-numbered row, and the
    error raised at the end is that of the lowest-numbered failing row:
    the one a run of the rows one after another meets first.
    """
    rates, dim = _Rates(system), system.dim
    grid = None if grid is None else grid.tolist()
    fns, deltas = _jump_calls(system), [np.asarray(vec).tolist() for _, vec in system.jumps]
    rows = [_row(dim, fns, deltas, path, t_end, rand, cfg, grid, max_events)
            for path, rand in zip(paths, draws)]
    replies = dict.fromkeys(range(len(rows)))
    error = None
    while replies:
        steps = {}
        # rows in increasing order; a row that raises ends the pass, so
        # the rows after it are dropped and a later error is a lower row's
        for r, reply in replies.items():
            try:
                if isinstance(reply, Exception):
                    steps[r] = rows[r].throw(reply)
                else:
                    steps[r] = rows[r].send(reply)
            except StopIteration:
                pass
            except Exception as exc:   # the row's own error, raised once the lower rows end
                error = exc
                break
        if not steps:
            break
        ids = list(steps)
        y = np.array([steps[r][0] for r in ids])
        h = np.array([steps[r][1] for r in ids])
        live, y, y_new, err, errors = _ck_rows(rates, y, h, cfg.abs_tol)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        norms = np.sqrt(np.mean((err / scale) ** 2, axis=1)).tolist()
        results = [errors.get(i) for i in range(len(ids))]
        for i, *reply in zip(live.tolist(), y_new, norms, y_new[:, dim].tolist(),
                             y_new[:, :dim].min(axis=1).tolist()):
            results[i] = reply
        replies = dict(zip(ids, results))
    if error is not None:
        raise error


def _row(dim, fns, deltas, path, t_end, rand, cfg, grid, max_events):
    """One path of the hybrid kernel, as a generator: each Cash-Karp step
    it needs is yielded as ``(y, h)`` and answered with ``(y_new, error
    norm, hazard, smallest state coordinate)``, or with the error the
    step's stages raised, thrown in at the yield. Between jumps an
    adaptive step integrates the drift and the hazard; a jump fires
    where the hazard crosses an Exp(1) threshold, channel c with the rate
    ``fns[c]`` of :func:`_jump_calls` and the change list ``deltas[c]``.
    Steps and jumps run on floats; ``path.v`` is written only where it
    is read: before a snapshot, at a jump and at the end of the run."""
    v, counts, log, snapshot = path.v, path.counts, path.log, path.snapshot
    n_grid = 0 if grid is None else len(grid)
    t = 0.0
    grid_pos = 0
    n_events = 0
    exp_threshold = rand.exponential()
    y = np.concatenate([v, [0.0]])
    h = min(cfg.max_step, max(t_end / 100.0, 10 * cfg.min_step))

    while t < t_end - 1e-15:
        h = min(h, t_end - t, cfg.max_step)
        if grid_pos < n_grid:
            h = min(h, max(grid[grid_pos] - t, cfg.min_step))
        # adaptive step; a trial step whose stages leave the orthant is
        # rejected like an inaccurate one until the step is at its minimum
        while True:
            try:
                y_new, norm, hazard, low = yield y, h
            except NegativeRate:
                if h <= cfg.min_step:
                    raise
                norm = math.inf
            if norm <= 1.0 or h <= cfg.min_step:
                break
            h = max(cfg.min_step, h * max(0.2, 0.9 * norm ** -0.2))
        if norm > 1.0 and h <= cfg.min_step:
            raise OdeStepFailure(f"error {norm:.3g} at minimum step size, t={t}")

        if hazard >= exp_threshold:
            # jump inside (t, t+h]: locate the hazard crossing by false
            # position with a bisection safeguard (Illinois), each probe
            # being one embedded step from the interval start
            lo, g_lo = 0.0, float(y[dim]) - exp_threshold
            hi, g_hi = h, hazard - exp_threshold
            y_hi, low_hi = y_new, low
            side = 0
            for _ in range(100):
                if g_hi <= cfg.hazard_tol or hi - lo <= cfg.min_step:
                    break
                denom = g_hi - g_lo
                mid = hi - g_hi * (hi - lo) / denom if denom != 0 else 0.5 * (lo + hi)
                if not lo < mid < hi:
                    mid = 0.5 * (lo + hi)
                y_mid, _, hazard_mid, low_mid = yield y, mid
                g_mid = hazard_mid - exp_threshold
                if g_mid >= 0:
                    hi, g_hi, y_hi, low_hi = mid, g_mid, y_mid, low_mid
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
            while grid_pos < n_grid and grid[grid_pos] <= t_jump:
                y_grid, *_ = yield y, max(grid[grid_pos] - t, 0.0)
                v[:] = y_grid[:dim]
                snapshot(grid[grid_pos])
                grid_pos += 1
            v[:] = y_hi[:dim]
            t = t_jump
            state = v if low_hi >= 0 else _eval_state(v, cfg.abs_tol)
            values = state.tolist()
            rates = [fn(values if listed else state) for fn, listed in fns]
            for rate in rates:   # the choice needs sorted cumulative sums
                if not 0.0 <= rate < math.inf:
                    raise NegativeRate(f"jump rate evaluated to {rate}")
            cum = list(accumulate(rates))
            total = float(np.add.reduce(rates))   # numpy's sum: pairwise from 8 terms
            if total <= 0:
                # hazard crossed on a vanishing rate: numerical corner, re-arm
                y = [*v.tolist(), 0.0]
                exp_threshold = rand.exponential()
                continue
            u = rand.uniform() * total
            # below the in-order sum bisect_right meets no zero rate; a u past
            # it (numpy's total is pairwise) takes the last positive rate
            chosen = bisect_right(cum, u)
            while chosen == len(rates) or rates[chosen] <= 0.0:
                chosen -= 1
            x = [a + c for a, c in zip(v.tolist(), deltas[chosen])]
            if any(a < -10 * cfg.abs_tol for a in x):
                raise NegativeRate("jump left the nonnegative orthant")
            v[:] = x
            counts[chosen] += 1
            n_events += 1
            if log is not None:
                snapshot(t)
                log.append((t, chosen))
            if n_events >= max_events:
                raise EventCapExceeded(f"exceeded {max_events} jump events at t={t}")
            y = [*x, 0.0]
            exp_threshold = rand.exponential()
            h = min(cfg.max_step, max(h, 10 * cfg.min_step))
        else:
            t += h
            y = y_new
            if not low >= 0:   # NaN too
                _eval_state(y[:dim], cfg.abs_tol)  # orthant check at accepted step
            if grid_pos < n_grid and grid[grid_pos] <= t + 1e-15:
                v[:] = y[:dim]
                while grid_pos < n_grid and grid[grid_pos] <= t + 1e-15:
                    snapshot(grid[grid_pos])
                    grid_pos += 1
            if norm > 0:
                h = min(cfg.max_step, h * min(5.0, 0.9 * norm ** -0.2))
            else:
                h = min(cfg.max_step, h * 5.0)

    v[:] = y[:dim]
    while grid_pos < n_grid:
        snapshot(grid[grid_pos])
        grid_pos += 1


def _ck_rows(rates, y, h, abs_tol):
    """One Cash-Karp step of every row of ``y`` by its size in ``h``.

    The stage sums, including the zero weights, are those of a single
    step, so each row rounds as it would alone. A row whose stage raises
    is not evaluated further. Returns ``(live, y, y_new, err, errors)``:
    the positions of the rows whose stages all evaluated, with their
    start states, new states and error estimates, and a map from each
    other position to the error its stage raised.
    """
    live = np.arange(len(y))
    errors = {}
    h = h[:, None]
    k = []
    for stage in range(6):
        if not len(y):
            return live, y, y, y, errors
        yi = y + h * sum(a * k[j] for j, a in enumerate(_A[stage])) if stage else y
        ki, failed = rates.rhs(yi, abs_tol)
        if failed:
            for i, exc in failed.items():
                errors[int(live[i])] = exc
            keep = np.ones(len(y), dtype=bool)
            keep[list(failed)] = False
            live, y, h, ki = live[keep], y[keep], h[keep], ki[keep]
            k = [kj[keep] for kj in k]
        k.append(ki)
    y_new = y + h * sum(b * ki for b, ki in zip(_B5, k))
    err = h * sum(e * ki for e, ki in zip(_ERR, k))
    return live, y, y_new, err, errors


class _Rates:
    """A system's rate functions over rows, flows then jumps: those that
    carry ``row_terms`` through one :class:`MassActionRows`, the j-th of
    them in its column j, every other one called row by row."""

    def __init__(self, system: HybridSystem):
        fns = [rate_fn for rate_fn, _ in system.flows + system.jumps]
        laws = [getattr(rate_fn, "row_terms", None) for rate_fn in fns]
        tabled = [c for c, law in enumerate(laws) if law is not None]
        self.table = MassActionRows([laws[c] for c in tabled], system.dim) if tabled else None
        column = {c: j for j, c in enumerate(tabled)}
        plan = [(column.get(c), rate_fn) for c, rate_fn in enumerate(fns)]
        self.flows = [(col, rate_fn, vec) for (col, rate_fn), (_, vec)
                      in zip(plan, system.flows)]
        self.jumps = plan[len(system.flows):]

    def rhs(self, y: np.ndarray, abs_tol: float):
        """The drift of every row of ``y`` followed by its total jump
        rate, summed in channel order; returns the array and a map from
        each row whose evaluation raised to its error. A row's state is
        read as :func:`_eval_state` reads it, and its rates come in the
        order of a single run, each jump rate checked as it comes; a row
        that fails is not evaluated further.

        A tabled rate of a row whose state passed is a product of
        nonnegative factors, so it can fail the check only by not being
        finite; the tabled jump rates are inspected one by one only when
        the table's sum is not finite.
        """
        dim = y.shape[1] - 1
        v = y[:, :dim]
        errors = {}
        # the minimum is NaN if any coordinate is, so NaN rows are clipped too
        state = v if np.minimum.reduce(v, axis=None) >= 0 else _clipped(v, abs_tol, errors)
        tabled = finite = None
        if self.table is not None:
            tabled = self.table.of(state)
            finite = math.isfinite(np.add.reduce(tabled, axis=None))
        out = np.zeros(y.shape)
        drift, hazard = out[:, :dim], out[:, dim]
        for col, rate_fn, vec in self.flows:
            if col is None:
                drift += _called(rate_fn, state, errors, False)[:, None] * vec
            else:
                drift += tabled[:, col, None] * vec
        for col, rate_fn in self.jumps:
            if col is None:
                hazard += _called(rate_fn, state, errors, True)
                continue
            rates = tabled[:, col]
            if not finite:
                for i in np.flatnonzero((rates < 0) | ~np.isfinite(rates)).tolist():
                    errors.setdefault(i, NegativeRate(f"jump rate evaluated to {rates[i]}"))
            hazard += rates
        return out, errors


def _clipped(v, abs_tol, errors):
    """``v`` with each row that has a coordinate below zero (or not a
    number) replaced by its :func:`_eval_state` view; a row that left
    the orthant joins ``errors``."""
    state = v.copy()
    for i in np.flatnonzero(~(v >= 0).all(axis=1)).tolist():
        try:
            state[i] = _eval_state(v[i], abs_tol)
        except NegativeRate as exc:
            errors[i] = exc
    return state


def _called(rate_fn, state, errors, jump):
    """``rate_fn`` called on each row of ``state`` not in ``errors``; a
    row whose call raises, or whose jump rate is negative or not
    finite, joins ``errors``."""
    out = np.zeros(len(state))
    for i in range(len(state)):
        if i in errors:
            continue
        try:
            r = rate_fn(state[i])
            if jump and (r < 0 or not math.isfinite(r)):
                raise NegativeRate(f"jump rate evaluated to {r}")
            out[i] = r
        except Exception as exc:
            errors[i] = exc
    return out


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


def run_ensemble_pdmp(system: HybridSystem, v0, t_end: float, seed: int,
                      replicas: int, grid, weights: np.ndarray,
                      labels=None, ode_config: OdeConfig | None = None,
                      quantiles=(0.1, 0.5, 0.9)) -> EnsembleStats:
    """Replicated PDMP runs with the same stream-splitting contract as
    the stochastic engine: replica r draws from ``SeedSequence([seed,
    r])``. With flows every replica is one row of the hybrid kernel, all
    run at once; without, the replicas take the direct method one after
    another. Either way the statistics equal those of the replicas run
    one by one with :func:`simulate_pdmp`, bit for bit. ``weights`` maps
    the state to the observables, one row per observable.
    """
    cfg = ode_config or OdeConfig()
    v = _initial_state(system, v0, t_end)
    grid = ensemble_grid(grid, replicas, t_end)
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    if weights.ndim != 2 or weights.shape[1] != system.dim:
        raise ModelError(f"weights have shape {weights.shape}, "
                         f"expected (observables, {system.dim})")
    if labels is None:
        labels = tuple(f"obs{i}" for i in range(weights.shape[0]))
    paths = [_Path(v.copy(), len(system.jumps), grid, False) for _ in range(replicas)]
    if system.flows:
        _run_rows(system, paths, t_end,
                  [rng_mod.Buffered(rng_mod.stream(seed, r), _ROW_DRAWS)
                   for r in range(replicas)], cfg, grid, _MAX_EVENTS)
    else:
        for r, path in enumerate(paths):
            _simulate_pure_jump(system, path, t_end, rng_mod.Buffered(rng_mod.stream(seed, r)),
                                grid, _MAX_EVENTS)
    samples = np.empty((replicas, weights.shape[0], len(grid)))
    for r, path in enumerate(paths):
        samples[r] = weights @ np.array(path.states).T
    return EnsembleStats.from_samples(grid, labels, samples, quantiles)
