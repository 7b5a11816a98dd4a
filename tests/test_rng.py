"""SplitMix64 streams and bounded draws."""

from __future__ import annotations

import pytest

from walkup.rng import SplitMix64

# The first draws of next_below for bounds that fit one 64-bit word,
# as they were before bounds above 2**64 were supported.
PINNED_DRAWS = {
    (2, 0): [1, 0, 1, 0, 1, 0],
    (2, 1): [1, 1, 0, 1, 1, 0],
    (15, 0): [10, 0, 4, 4, 7, 0],
    (15, 1): [5, 4, 0, 5, 6, 8],
    (1 << 64, 0): [16294208416658607535, 7960286522194355700, 487617019471545679,
                   17909611376780542444, 1961750202426094747, 6038094601263162090],
    (1 << 64, 1): [10451216379200822465, 13757245211066428519, 17911839290282890590,
                   8196980753821780235, 8195237237126968761, 14072917602864530048],
}


@pytest.mark.parametrize("n, seed", sorted(PINNED_DRAWS))
def test_next_below_one_word_streams_pinned(n, seed):
    rng = SplitMix64(seed)
    assert [rng.next_below(n) for _ in range(6)] == PINNED_DRAWS[n, seed]


@pytest.mark.parametrize("n", [(1 << 64) + 1, (1 << 128) + 3])
def test_next_below_beyond_one_word(n):
    # the largest multiple of such a bound below 2**64 is 0, so one word
    # a try would reject every draw
    rng = SplitMix64(1)
    draws = [rng.next_below(n) for _ in range(200)]
    assert all(0 <= r < n for r in draws)
    assert max(draws) > n // 2  # the whole range is reached
    assert len(set(draws)) == len(draws)


def test_next_below_refuses_empty_range():
    with pytest.raises(ValueError):
        SplitMix64(0).next_below(0)
