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

import numpy as np


def stream(seed: int, replica: int | None = None) -> np.random.Generator:
    if replica is None:
        return np.random.default_rng(np.random.SeedSequence([int(seed)]))
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replica)]))


class Buffered:
    """Blockwise uniform sampling; ~2x faster than per-event Generator calls."""

    __slots__ = ("_rng", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self._rng = rng
        self._block = block
        self._buf = rng.random(block)
        self._pos = 0

    def uniform(self) -> float:
        if self._pos == self._block:
            self._buf = self._rng.random(self._block)
            self._pos = 0
        out = self._buf[self._pos]
        self._pos += 1
        return out

    def exponential(self) -> float:
        # 1 - U lies in (0, 1], so the log is finite
        return -math.log(1.0 - self.uniform())
