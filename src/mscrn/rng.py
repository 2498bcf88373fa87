"""Seedable random streams with documented replica splitting.

Replica r of an ensemble draws from ``numpy.random.SeedSequence([seed, r])``
so runs are reproducible across platforms and independent of scheduling
order. A seed and a replica index are nonnegative integers: :func:`stream`,
where every stream is made, raises ModelError for anything else, as do
the run configurations through :func:`check_seed`. The
buffered wrapper amortizes generator call overhead in the event loops.

``SeedSequence`` drops trailing zero words of its entropy, so
``stream(seed, 0)`` draws the same numbers as ``stream(seed)``: replica 0
of an ensemble shares its stream with a single run at ``seed`` and with a
Monte Carlo estimate built with ``McConfig(seed=seed)``. The streams are
left as they are, since every recorded result depends on them.

The direct method reads its stream as event draws: event k takes the
pair ``(wait, target)``, wait = -log(1 - U_2k), an Exp(1) variate, and
target = U_2k+1, a uniform, where U_0, U_1, ... are the stream's
uniforms. :func:`waits` is the one home of that formula, with the
rounding of ``math.log``. A fresh run takes its draws from
:meth:`Buffered.events`. A Monte Carlo estimate walks a fixed number of
events, its budget, always on the same stream, so
:func:`cached_events` keeps the ``budget`` waits and targets of the last
``EVENT_CACHE_ENTRIES`` (seed, budget) pairs asked for and hands them out
again. An entry holds two lists of Python floats, about 64 bytes per
event: some 6.4 MB at the default budget of 100 000.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from itertools import chain

import numpy as np

from .errors import ModelError

# (seed, budget) pairs whose event draws cached_events keeps, the least
# recently used dropped first
EVENT_CACHE_ENTRIES = 4
_event_cache: OrderedDict = OrderedDict()


def check_seed(value, what: str = "seed") -> int:
    """A seed or replica index ``value`` as a nonnegative Python int;
    ModelError otherwise."""
    try:
        word = operator.index(value)
    except TypeError:
        word = -1
    if word < 0:
        raise ModelError(f"{what} must be a nonnegative integer, got {value!r}")
    return word


def stream(seed: int, replica: int | None = None) -> np.random.Generator:
    words = [check_seed(seed)]
    if replica is not None:
        words.append(check_seed(replica, "replica index"))
    return np.random.default_rng(np.random.SeedSequence(words))


def waits(uniforms: np.ndarray) -> np.ndarray:
    """The Exp(1) waits -log(1 - U) of an array of uniforms U, by
    ``math.log``, whose rounding ``np.log`` does not always share."""
    # 1 - U lies in (0, 1], so each log is finite
    return -np.fromiter(map(math.log, (1.0 - uniforms).ravel().tolist()), float,
                        uniforms.size).reshape(uniforms.shape)


def cached_events(seed: int, budget: int):
    """An iterator over the first ``budget`` event draws of
    ``stream(seed)``, ``(wait, target)`` pairs, from the cache."""
    key = (check_seed(seed), budget)
    entry = _event_cache.get(key)
    if entry is None:
        uniforms = stream(seed).random(2 * budget)
        entry = _event_cache[key] = (waits(uniforms[0::2]).tolist(), uniforms[1::2].tolist())
        if len(_event_cache) > EVENT_CACHE_ENTRIES:
            _event_cache.popitem(last=False)
    else:
        _event_cache.move_to_end(key)
    return zip(*entry)


class Buffered:
    """Blockwise uniform sampling; ~2x faster than per-event Generator calls.
    Blocks of ``block`` uniforms, the first drawn at once, are handed out
    as Python floats converted 256 at a time (a whole block costs more to
    convert than a short run uses), with their waits for
    ``exponential()``; floats are cheaper than numpy scalars.
    Iterating it chains those lists: the uniforms further ``uniform()``
    calls would give, blocks drawn at the same points, without a method
    call each; :meth:`events` pairs them as event draws. A wrapper once
    iterated is not drawn from otherwise."""

    __slots__ = ("_rng", "_block", "_buf", "_pos", "_floats", "_waits", "_next")

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self._rng, self._block = rng, block
        self._buf, self._pos = rng.random(block), 0
        self._floats, self._waits, self._next = [], [], 0

    def _take(self) -> np.ndarray:
        """The next (up to) 256 uniforms, from a fresh block once one is spent."""
        if self._pos == self._block:
            self._buf, self._pos = self._rng.random(self._block), 0
        uniforms = self._buf[self._pos:self._pos + 256]
        self._pos += len(uniforms)
        return uniforms

    def uniform(self) -> float:
        i = self._next
        if i == len(self._floats):
            uniforms, i = self._take(), 0
            self._floats, self._waits = uniforms.tolist(), waits(uniforms).tolist()
        self._next = i + 1
        return self._floats[i]

    def exponential(self) -> float:
        """The wait of the uniform ``uniform()`` would give."""
        self.uniform()
        return self._waits[self._next - 1]

    def _arrays(self):
        """The uniforms further ``uniform()`` calls would give, as arrays:
        the rest of the current list, then fresh ones."""
        rest = self._floats[self._next:]
        self._floats, self._waits, self._next = [], [], 0
        yield np.array(rest)
        while True:
            yield self._take()

    def __iter__(self):
        return chain.from_iterable(map(np.ndarray.tolist, self._arrays()))

    def events(self):
        """The uniforms iterating would give, as event draws ``(wait,
        target)``, the waits of each array of them computed at once."""
        return chain.from_iterable(self._event_lists())

    def _event_lists(self):
        rest = np.empty(0)
        for uniforms in self._arrays():
            # an array of odd length leaves its last uniform to the next
            if len(rest):
                uniforms = np.concatenate((rest, uniforms))
            even = len(uniforms) & -2
            rest = uniforms[even:]
            yield zip(waits(uniforms[0:even:2]).tolist(), uniforms[1:even:2].tolist())
