"""Seedable random streams with documented replica splitting.

Replica r of an ensemble draws from ``numpy.random.SeedSequence([seed, r])``
so runs are reproducible across platforms and independent of scheduling
order. A seed and a replica index are nonnegative integers: :func:`stream`,
where every stream is made, raises ModelError for anything else, as do
the run configurations through :func:`check_seed`.

``SeedSequence`` drops trailing zero words of its entropy, so
``stream(seed, 0)`` draws the same numbers as ``stream(seed)``: replica 0
of an ensemble shares its stream with a single run at ``seed`` and with a
Monte Carlo estimate built with ``McConfig(seed=seed)``. The streams are
left as they are, since every recorded result depends on them.

Every engine reads its stream as event draws, and only as those: event
k takes the pair ``(wait, target)``, wait = -log(1 - U_2k), an Exp(1)
variate, and target = U_2k+1, a uniform, where U_0, U_1, ... are the
stream's uniforms. The direct method of the finite-N chain and of a
pure-jump limit divides the wait by the total rate and scales the
target to it; the hybrid kernel of the limit PDMP takes the wait as its
hazard threshold and the target as the choice of the jump that crosses
it. :func:`event_draws` is the one place where uniforms are drawn and
paired, for the SSA lockstep, for :func:`events`, the iterator of a
fresh run, and for the Monte Carlo draw cache. Its waits are one
``np.log`` call on a negative-stride view, which numpy 2.4 runs with
the C library's scalar ``log``, as ``math.log`` does, not a SIMD loop:
the bits are ``math.log``'s on any CPU. This leans on numpy's dispatch;
the bit checks in ``tests/test_rng.py`` fail if an upgrade changes it.
A Monte Carlo estimate walks a fixed number of events, its budget,
always on the same stream, so :func:`cached_events` keeps the ``budget``
waits and targets of the last ``EVENT_CACHE_ENTRIES`` (seed, budget)
pairs asked for, in a ``functools.lru_cache``, and hands them out again.
An entry holds two lists of Python floats, about 64 bytes per event:
some 6.4 MB at the default budget of 100 000.
"""

from __future__ import annotations

import functools
import operator
from itertools import chain

import numpy as np

from .errors import ModelError

# (seed, budget) pairs whose event draws cached_events keeps, the least
# recently used dropped first
EVENT_CACHE_ENTRIES = 4


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


def _waits(uniforms: np.ndarray) -> np.ndarray:
    """The Exp(1) waits -log(1 - U) of an array of uniforms U, with
    ``math.log``'s bits: the negative stride keeps numpy off its SIMD log."""
    # 1 - U lies in (0, 1], so each log is finite
    flat = (1.0 - uniforms).ravel()
    return -np.log(flat[::-1])[::-1].reshape(uniforms.shape)


def event_draws(generators, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``n`` event draws of each of ``generators``: the
    (len(generators), n) arrays of waits and targets, event k on the
    generator's next uniforms 2k and 2k + 1."""
    uniforms = np.empty((len(generators), 2 * n))
    for row, generator in zip(uniforms, generators):
        generator.random(out=row)
    return _waits(uniforms[:, 0::2]), uniforms[:, 1::2]


def events(generator):
    """The event draws of ``generator`` as ``(wait, target)`` floats,
    drawn in blocks of 8 events, doubling up to 256: a short run draws
    little, and a long one few times."""
    return chain.from_iterable(_event_blocks(generator))


def _event_blocks(generator):
    n = 8
    while True:
        waits, targets = event_draws([generator], n)
        yield zip(waits[0].tolist(), targets[0].tolist())
        n = min(2 * n, 256)


def cached_events(seed: int, budget: int):
    """An iterator over the first ``budget`` event draws of
    ``stream(seed)``, ``(wait, target)`` pairs, from the cache."""
    return zip(*_cached_draws(check_seed(seed), budget))


@functools.lru_cache(maxsize=EVENT_CACHE_ENTRIES)
def _cached_draws(seed: int, budget: int) -> tuple[list, list]:
    """The first ``budget`` waits and targets of ``stream(seed)``, as lists."""
    waits, targets = event_draws([stream(seed)], budget)
    return waits[0].tolist(), targets[0].tolist()
