"""The buffered uniform stream: iterating a ``rng.Buffered`` hands out
exactly the uniforms that repeated ``uniform()`` calls would, whether
the wrapper is fresh or already partly drawn, across the boundaries of
its 256-float lists and of its blocks, and leaves the generator drawn to
the same point. Its event draws, and those of the cache, pair the
stream's uniforms as ``(-log(1 - U_2k), U_2k+1)`` bit for bit; the cache
keeps its bound. A seed or replica index that is not a nonnegative
integer raises ModelError."""

import math
from itertools import islice

import numpy as np
import pytest

from mscrn import rng as rng_mod
from mscrn.averaging import McConfig
from mscrn.errors import ModelError
from mscrn.ssa import SimulationConfig

COUNTS = (0, 1, 255, 256, 257, 511, 8191, 8192, 8193, 16385)


@pytest.mark.parametrize("block", [8192, 16])
@pytest.mark.parametrize("drawn", COUNTS)
def test_iterator_yields_what_uniform_yields(block, drawn):
    for taken in COUNTS:
        calls_rng, iter_rng = rng_mod.stream(11), rng_mod.stream(11)
        calls = rng_mod.Buffered(calls_rng, block)
        iterated = rng_mod.Buffered(iter_rng, block)
        before = [calls.uniform() for _ in range(drawn)]
        assert [iterated.uniform() for _ in range(drawn)] == before
        want = [calls.uniform() for _ in range(taken)]
        assert list(islice(iter(iterated), taken)) == want, (drawn, taken)
        # the generator has drawn the same blocks
        assert iter_rng.random() == calls_rng.random(), (drawn, taken)


# ---------------------------------------------------------------------------
# event draws: (wait, target) = (-log(1 - U_2k), U_2k+1)


def _pairs(uniforms: list) -> list:
    """The event draws of ``uniforms``, the formula written out here."""
    return [(-math.log(1.0 - w), u) for w, u in zip(uniforms[0::2], uniforms[1::2])]


class _Capped:
    """The stream of ``seed``, refusing to draw more than ``cap`` uniforms."""

    def __init__(self, seed: int, cap: int):
        self.gen, self.left = rng_mod.stream(seed), cap

    def random(self, size):
        self.left -= size
        assert self.left >= 0, "drew past the uniforms asked for"
        return self.gen.random(size)


@pytest.mark.parametrize("block", [1, 3, 5, 16, 257, 8192])
@pytest.mark.parametrize("drawn", [0, 1, 3, 256, 257])
def test_events_pair_the_uniforms_bit_for_bit(block, drawn):
    # blocks of odd length hand out lists of odd length, and a start after
    # an odd number of uniform() calls pairs across every list boundary
    n = 700
    buffered = rng_mod.Buffered(_Capped(12, drawn + 2 * n + 2 * block), block)
    before = [buffered.uniform() for _ in range(drawn)]
    got = list(islice(buffered.events(), n))
    uniforms = rng_mod.stream(12).random(drawn + 2 * n).tolist()
    assert before == uniforms[:drawn]
    assert got == _pairs(uniforms[drawn:])


@pytest.mark.parametrize("block", [16, 8192])
def test_exponential_is_the_wait_of_the_next_uniform(block):
    buffered = rng_mod.Buffered(rng_mod.stream(4), block)
    got = [buffered.exponential() if k % 3 else buffered.uniform() for k in range(600)]
    uniforms = rng_mod.stream(4).random(600).tolist()
    assert got == [-math.log(1.0 - u) if k % 3 else u for k, u in enumerate(uniforms)]


def test_cached_events_are_the_streams_first_draws():
    rng_mod._event_cache.clear()
    for _ in range(2):   # drawn, then from the cache
        got = list(rng_mod.cached_events(9, 300))
        assert got == _pairs(rng_mod.stream(9).random(600).tolist())
    assert list(rng_mod._event_cache) == [(9, 300)]


def test_event_cache_keeps_its_bound_most_recent_first_out_last():
    rng_mod._event_cache.clear()
    for seed in range(10):
        rng_mod.cached_events(seed, 50)
        rng_mod.cached_events(0, 50)   # seed 0 stays the most recently used
    assert len(rng_mod._event_cache) == rng_mod.EVENT_CACHE_ENTRIES
    assert list(rng_mod._event_cache)[-2:] == [(9, 50), (0, 50)]


# ---------------------------------------------------------------------------
# seeds and replica indices


@pytest.mark.parametrize("seed, replica", [(-1, None), (1.7, None), ("3", None), (None, None),
                                           (2, -1), (2, 0.5)])
def test_bad_seed_or_replica_index_raises_model_error(seed, replica):
    with pytest.raises(ModelError, match="must be a nonnegative integer"):
        rng_mod.stream(seed, replica)
    if replica is None:
        with pytest.raises(ModelError, match="seed must be a nonnegative integer"):
            rng_mod.cached_events(seed, 10)


def test_configs_reject_a_bad_seed_and_numpy_integers_pass():
    with pytest.raises(ModelError, match="seed must be"):
        McConfig(seed=-1)
    with pytest.raises(ModelError, match="seed must be"):
        SimulationConfig(N=10, t_end=1.0, seed=-2)
    assert rng_mod.stream(np.int64(5), np.uint32(2)).random() == rng_mod.stream(5, 2).random()
