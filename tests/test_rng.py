"""The buffered uniform stream: iterating a ``rng.Buffered`` hands out
exactly the uniforms that repeated ``uniform()`` calls would, whether
the wrapper is fresh or already partly drawn, across the boundaries of
its 256-float lists and of its blocks, and leaves the generator drawn to
the same point."""

from itertools import islice

import pytest

from mscrn import rng as rng_mod

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
