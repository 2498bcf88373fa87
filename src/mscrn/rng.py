"""Seedable random streams with documented replica splitting.

Replica r of an ensemble draws from ``numpy.random.SeedSequence([seed, r])``
so runs are reproducible across platforms and independent of scheduling
order. The buffered wrapper amortizes generator call overhead in the
event loops.

``SeedSequence`` drops trailing zero words of its entropy, so
``stream(seed, 0)`` draws the same numbers as ``stream(seed)``: replica 0
of an ensemble shares its stream with a single run at ``seed`` and with a
Monte Carlo estimate built with ``McConfig(seed=seed)``. The streams are
left as they are, since every recorded result depends on them.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np


def stream(seed: int, replica: int | None = None) -> np.random.Generator:
    if replica is None:
        return np.random.default_rng(np.random.SeedSequence([int(seed)]))
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replica)]))


class Buffered:
    """Blockwise uniform sampling; ~2x faster than per-event Generator calls.
    Blocks of ``block`` uniforms, the first drawn at once, are handed out
    as Python floats converted 256 at a time (a whole block costs more to
    convert than a short run uses); floats are cheaper than numpy scalars.
    Iterating it chains those lists: the uniforms further ``uniform()``
    calls would give, blocks drawn at the same points, without a method
    call each. A wrapper once iterated is not drawn from otherwise."""

    __slots__ = ("_rng", "_block", "_buf", "_pos", "_floats", "_next")

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self._rng, self._block = rng, block
        self._buf, self._pos = rng.random(block), 0
        self._floats, self._next = [], 0

    def _take(self) -> list:
        """The next (up to) 256 floats, from a fresh block once one is spent."""
        if self._pos == self._block:
            self._buf, self._pos = self._rng.random(self._block), 0
        floats = self._buf[self._pos:self._pos + 256].tolist()
        self._pos += len(floats)
        return floats

    def uniform(self) -> float:
        i = self._next
        if i == len(self._floats):
            self._floats, i = self._take(), 0
        self._next = i + 1
        return self._floats[i]

    def exponential(self) -> float:
        # 1 - U lies in (0, 1], so the log is finite
        return -math.log(1.0 - self.uniform())

    def __iter__(self):
        rest = self._floats[self._next:]
        self._floats, self._next = [], 0
        return chain(rest, chain.from_iterable(iter(self._take, None)))
