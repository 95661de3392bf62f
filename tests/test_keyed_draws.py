"""Keyed draws: the campaign engine's generator of a key starts in the
state np.random.default_rng(key) starts in and draws the same numbers.
This ties charvar to numpy's SeedSequence and PCG64 seeding (stable since
numpy 1.17); these tests fail if numpy changes it."""

import numpy as np
import pytest

from charvar import campaign

KEYS = (
    [(seed,) for seed in range(300)]
    + [(seed, 9, i) for seed in (0, 5) for i in range(400)]
    + [(3, 8, i, retry) for i in range(300) for retry in (0, 1)]
    + [(0, 0, 0), (0,), (0, 0, 0, 0), (0, 0, 0, 0, 0), (7, 0, 2**32 - 1), (2**32 - 1,), (2**32,)]
    + [(25660265120, 4, i) for i in range(200)]
    + [(2**64 + 7, 13, i, 2**32 - 1) for i in range(200)]
    + [(2**64 + 7,), (25660265120,), (2**96, 0), (1, 2, 3, 4, 5, 6)]
)


def test_states_match_default_rng():
    states = campaign.key_states(KEYS)
    for key, state in zip(KEYS, states):
        assert state == np.random.default_rng(key).bit_generator.state["state"], key


def test_first_draws_match_default_rng():
    for key, rng in zip(KEYS, campaign.keyed_rngs(KEYS)):
        want = np.random.default_rng(key)
        assert rng.standard_normal((4, 3)).tobytes() == want.standard_normal((4, 3)).tobytes(), key
        assert rng.uniform(0.0, 1.0) == want.uniform(0.0, 1.0), key


def test_one_key_generator_is_its_own():
    a, b = campaign.keyed_rng(3, 13, 2), campaign.keyed_rng(3, 13, 2)
    assert a is not b
    want = np.random.default_rng((3, 13, 2))
    for _ in range(3):
        assert a.normal(size=5).tobytes() == want.normal(size=5).tobytes()
    assert a.bit_generator.state == want.bit_generator.state
    assert b.bit_generator.state == np.random.default_rng((3, 13, 2)).bit_generator.state


@pytest.mark.parametrize("key", [(-1,), (0, 4, -2), (5, -(2**40))])
def test_negative_entry_is_refused(key):
    with pytest.raises(ValueError, match="non-negative"):
        campaign.key_states([(0, 1), key])
    with pytest.raises(ValueError, match="non-negative"):
        campaign.keyed_rngs([key])


def test_chunked_draws_from_the_keyed_generators():
    def draws(keys, rngs):
        return [(key, rng.standard_normal(3).tobytes()) for key, rng in zip(keys, rngs)]

    rows = campaign.chunked(11, (6,), campaign.CHUNK + 3, draws)
    assert [key for key, _ in rows] == [(11, 6, i) for i in range(campaign.CHUNK + 3)]
    for key, got in rows:
        assert got == np.random.default_rng(key).standard_normal(3).tobytes()
