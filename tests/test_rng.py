"""Event draws: ``rng.events``, ``rng.event_draws`` and the cache pair
the stream's uniforms as ``(-log(1 - U_2k), U_2k+1)`` bit for bit,
across every block boundary of the iterator, which draws no uniform
past its current block, and from one call to the next of
``event_draws``; every wait has ``math.log``'s bits, in the lockstep's
shape and at the edge uniforms; the cache keeps its bound. A seed or
replica index that is not a nonnegative integer raises ModelError."""

import math
from itertools import islice

import numpy as np
import pytest

from mscrn import rng as rng_mod
from mscrn.averaging import McConfig
from mscrn.errors import ModelError
from mscrn.ssa import SimulationConfig

# counts on both sides of every block boundary of the 8 -> 256 growth
COUNTS = (1, 8, 9, 24, 25, 504, 505, 1000)


def _pairs(uniforms: list) -> list:
    """The event draws of ``uniforms``, the formula written out here."""
    return [(-math.log(1.0 - w), u) for w, u in zip(uniforms[0::2], uniforms[1::2])]


class _Capped:
    """The stream of ``seed``, refusing to draw more than ``cap`` uniforms."""

    def __init__(self, seed: int, cap: int):
        self.gen, self.left = rng_mod.stream(seed), cap

    def random(self, out):
        self.left -= len(out)
        assert self.left >= 0, "drew past the uniforms asked for"
        return self.gen.random(out=out)


def _drawn(n: int) -> int:
    """The uniforms ``events`` has drawn once it has handed out ``n``
    events: whole blocks of 8, 16, ... events, 256 at most."""
    drawn, block = 0, 8
    while drawn < n:
        drawn, block = drawn + block, min(2 * block, 256)
    return 2 * drawn


@pytest.mark.parametrize("n", COUNTS)
def test_events_follow_the_stream_across_blocks(n):
    got = list(islice(rng_mod.events(rng_mod.stream(12)), n))
    assert got == _pairs(rng_mod.stream(12).random(2 * n).tolist())


@pytest.mark.parametrize("block", [1, 3, 5, 16, 257, 8192])
@pytest.mark.parametrize("drawn", [0, 1, 3, 256, 257])
def test_events_pair_the_uniforms_bit_for_bit(block, drawn):
    # event_draws called again on a generator, as the lockstep calls it
    # for each chunk of events, goes on where the last call stopped
    generator = _Capped(12, 2 * (drawn + 2 * block))
    before = rng_mod.event_draws([generator], drawn)
    got = [rng_mod.event_draws([generator], block) for _ in range(2)]
    pairs = _pairs(rng_mod.stream(12).random(2 * (drawn + 2 * block)).tolist())
    for (waits, targets), start in zip([before, *got], (0, drawn, drawn + block)):
        assert list(zip(waits[0].tolist(), targets[0].tolist())) == \
            pairs[start:start + waits.shape[1]]


@pytest.mark.parametrize("n", COUNTS)
def test_events_draw_no_block_past_the_current_one(n):
    # the generator is drawn to the end of the block that holds event n
    # and no further
    capped = _Capped(12, _drawn(n))
    draws = rng_mod.events(capped)
    assert list(islice(draws, n)) == _pairs(rng_mod.stream(12).random(2 * n).tolist())
    assert capped.left == 0
    with pytest.raises(AssertionError, match="drew past"):
        list(islice(draws, _drawn(n) // 2 - n + 1))


@pytest.mark.parametrize("n", [1, 64, 300])
def test_event_draw_rows_are_each_streams_events(n):
    waits, targets = rng_mod.event_draws([rng_mod.stream(3, r) for r in range(5)], n)
    assert waits.shape == targets.shape == (5, n)
    for r in range(5):
        want = list(islice(rng_mod.events(rng_mod.stream(3, r)), n))
        assert list(zip(waits[r].tolist(), targets[r].tolist())) == want


def _cache_counts() -> tuple:
    info = rng_mod._cached_draws.cache_info()
    return info.misses, info.hits, info.currsize


def test_cached_events_are_the_streams_first_draws():
    rng_mod._cached_draws.cache_clear()
    for _ in range(2):   # drawn, then from the cache
        got = list(rng_mod.cached_events(9, 300))
        assert got == _pairs(rng_mod.stream(9).random(600).tolist())
    assert _cache_counts() == (1, 1, 1)


def test_event_cache_keeps_its_bound_most_recent_first_out_last():
    rng_mod._cached_draws.cache_clear()
    for seed in range(10):
        rng_mod.cached_events(seed, 50)
        rng_mod.cached_events(0, 50)   # seed 0 stays the most recently used
    misses, hits, size = _cache_counts()
    assert (misses, hits, size) == (10, 10, rng_mod.EVENT_CACHE_ENTRIES)
    # the four most recently used, seeds 0, 9, 8 and 7, are kept, and
    # seed 6 was dropped
    for seed in (0, 9, 8, 7):
        rng_mod.cached_events(seed, 50)
    assert _cache_counts() == (10, 14, size)
    rng_mod.cached_events(6, 50)
    assert _cache_counts() == (11, 14, size)


def _log_bits(waits) -> list:
    return np.asarray(waits, dtype=float).view(np.int64).tolist()


def test_lockstep_waits_have_math_logs_bits():
    """The waits of ``event_draws`` in the lockstep's shape, 150 streams
    drawn 64 events at a time (the strided ``[:, 0::2]`` view of each
    row of 128 uniforms), equal ``-math.log(1 - U)`` bit for bit over
    1 152 000 waits. On a CPU with AVX-512, numpy's contiguous ``np.log``
    loop rounds about 0.35 % of these one ulp away from ``math.log``, and
    the test fails with plain ``np.log`` in ``rng._waits``; on a CPU
    without it the two agree and the test cannot tell them apart."""
    replicas, chunk, chunks = 150, 64, 120
    generators = [rng_mod.stream(27, r) for r in range(replicas)]
    waits = np.hstack([rng_mod.event_draws(generators, chunk)[0] for _ in range(chunks)])
    for r in range(replicas):
        uniforms = rng_mod.stream(27, r).random(2 * chunk * chunks)[0::2].tolist()
        assert _log_bits(waits[r]) == _log_bits([-math.log(1.0 - u) for u in uniforms])


class _Edges:
    """A stub generator whose uniforms are the edges of [0, 1): 0.0 and
    the largest double below 1, 1 - 2^-53, in turn for the waits."""

    EDGES = (0.0, 1.0 - 2.0 ** -53)

    def random(self, out):
        out[:] = 0.5
        out[0::4], out[2::4] = self.EDGES
        return out


def test_waits_at_the_edge_uniforms_have_math_logs_bits():
    waits, targets = rng_mod.event_draws([_Edges() for _ in range(3)], 64)
    want = [-math.log(1.0 - u) for u in _Edges.EDGES] * 32
    for row in waits:
        assert _log_bits(row) == _log_bits(want)
    assert want[0] == 0.0 and math.isfinite(want[1]) and (targets == 0.5).all()
    assert list(islice(rng_mod.events(_Edges()), 2)) == [(w, 0.5) for w in want[:2]]


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
