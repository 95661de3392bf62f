"""Keyed draws: the campaign engine's generator of a key starts in the
state np.random.default_rng(key) starts in and draws the same numbers.
This ties charvar to numpy's SeedSequence and PCG64 seeding (stable since
numpy 1.17); these tests fail if numpy changes it."""

import numpy as np
import pytest

from charvar import campaign, pcg, ziggurat
from charvar.variety import sample_point, sample_points

KEYS = (
    [(seed,) for seed in range(300)]
    + [(seed, 9, i) for seed in (0, 5) for i in range(400)]
    + [(3, 8, i, retry) for i in range(300) for retry in (0, 1)]
    + [(0, 0, 0), (0,), (0, 0, 0, 0), (0, 0, 0, 0, 0), (7, 0, 2**32 - 1), (2**32 - 1,), (2**32,)]
    + [(25660265120, 4, i) for i in range(200)]
    + [(2**64 + 7, 13, i, 2**32 - 1) for i in range(200)]
    + [(2**64 + 7,), (25660265120,), (2**96, 0), (1, 2, 3, 4, 5, 6)]
)


def _ints(stack: np.ndarray) -> list[int]:
    """The Python ints of an (N, 2) stack of [high, low] words."""
    return [hi << 64 | lo for hi, lo in stack.tolist()]


def test_states_match_default_rng():
    state, inc = map(_ints, campaign.key_states(KEYS))
    for key, s, i in zip(KEYS, state, inc):
        assert {"state": s, "inc": i} == np.random.default_rng(key).bit_generator.state["state"], key


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


# decoded draws: charvar.pcg reads numpy's PCG64 outputs and its ziggurat in
# arrays; these tests tie it to the installed numpy

DECODED_KEYS = [(seed, 8, i) for seed in (0, 2**32 + 5, 25660265120, 2**64 + 7) for i in range(2500)]


def _next_output_is(rng, value):
    """Set rng's PCG64 to the state whose next raw output is ``value`` (below
    2^64): with increment 1, the stepped state ``value`` outputs itself."""
    rng.bit_generator.state = pcg.state_dict((value - 1) * pow(pcg.MULT, -1, 1 << 128) & pcg.M128, 1)
    return value


def test_ziggurat_tables_are_numpys():
    wi, ki = pcg.probe_tables()
    assert wi.tobytes() == ziggurat.WI.tobytes()
    assert ki.tobytes() == ziggurat.KI.tobytes()
    assert (ki[0], ki[1]) == (0xEF33D8025EF6A, 0)


def test_raw_outputs_are_numpys():
    state, inc = campaign.key_states(DECODED_KEYS[::50])
    out, end = pcg.outputs(state, inc, 31)
    for key, row, left in zip(DECODED_KEYS[::50], out, _ints(end)):
        rng = np.random.default_rng(key)
        assert rng.bit_generator.random_raw(31).tobytes() == row.tobytes(), key
        assert rng.bit_generator.state["state"]["state"] == left, key


@pytest.mark.parametrize("k", [3, 4, 6, 8, 12])
def test_decoded_rows_are_default_rng_draws(k):
    # a row's normals are decoded where each takes the ziggurat's fast path,
    # which is where numpy's draws take exactly one output each
    m = 3 * (k - 2) + 1
    state, inc = campaign.key_states(DECODED_KEYS)
    out, end = pcg.outputs(state, inc, m)
    normals, fast = pcg.standard_normal(out[:, :-1])
    phi = 2.0 * np.pi * pcg.next_double(out[:, -1])
    want, one_each = np.empty_like(normals), []
    for row, (key, left) in enumerate(zip(DECODED_KEYS, _ints(end))):
        rng = np.random.default_rng(key)
        want[row] = rng.standard_normal((k - 2, 3)).reshape(-1)
        assert rng.uniform(0.0, 2.0 * np.pi) == phi[row] or not fast[row].all(), key
        one_each.append(rng.bit_generator.state["state"]["state"] == left)
    rows = fast.all(axis=1)
    assert rows.tolist() == one_each
    assert normals[rows].tobytes() == want[rows].tobytes()
    assert 0.5 < rows.mean() < 1.0


def test_every_layer_decodes_as_numpy_draws():
    # chosen outputs through each layer, around its ki: layer 0 is the tail,
    # and layer 1 (ki = 0) is never on the fast path
    rng = np.random.Generator(np.random.PCG64(0))
    assert int(ziggurat.KI[1]) == 0
    for idx in range(256):
        ki = int(ziggurat.KI[idx])
        rabs_values = {0, 1, 2, ki - 1, ki, ki + 1, (1 << 51) + 3, (1 << 52) - 1}
        for rabs in sorted(r for r in rabs_values if 0 <= r < 1 << 52):
            for sign in (0, 1):
                value = _next_output_is(rng, rabs << 9 | sign << 8 | idx)
                x = rng.standard_normal()
                one = rng.bit_generator.state["state"]["state"] == value
                decoded, fast = pcg.standard_normal(np.array([value], dtype=np.uint64))
                assert bool(fast[0]) == one == (rabs < ki), (idx, rabs, sign)
                if one:
                    assert decoded.tobytes() == np.array([x]).tobytes(), (idx, rabs, sign)


def test_uniform_is_two_pi_next_double():
    for key in DECODED_KEYS[::5]:
        rng = np.random.default_rng(key)
        start = rng.bit_generator.state
        raw = rng.bit_generator.random_raw(1)
        rng.bit_generator.state = start
        assert 2.0 * np.pi * pcg.next_double(raw)[0] == rng.uniform(0.0, 2.0 * np.pi), key


@pytest.mark.parametrize("k", [3, 6, 12])
def test_one_row_call_leaves_its_generator_as_before(k):
    # the draws of a generic row: its normals in one call, then its angle;
    # a generator with a cached 32-bit half keeps it
    for i in range(300):
        key = (11, k, i)
        rng, want = np.random.default_rng(key), np.random.default_rng(key)
        if i % 2:
            rng.integers(0, 2**32, dtype=np.uint32), want.integers(0, 2**32, dtype=np.uint32)
        sample_point(k, rng)
        want.standard_normal((k - 2, 3))
        want.uniform(0.0, 2.0 * np.pi)
        assert rng.bit_generator.state == want.bit_generator.state, key


def _bit_generators(seed: int, count: int) -> list[np.random.Generator]:
    """Generators of three bit generators in turn: MT19937, Philox and
    numpy's default PCG64."""
    makers = (np.random.MT19937, np.random.Philox, np.random.PCG64)
    return [np.random.Generator(makers[i % 3]((seed, i))) for i in range(count)]


def _state(value):
    """A bit generator's state with its arrays as lists, so that states
    compare with ==."""
    if isinstance(value, dict):
        return {key: _state(v) for key, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("k", [3, 6, 12])
def test_any_bit_generator_in_a_list(k):
    # a list's generators are drawn, not decoded: each row is its one-row
    # call, and each generator ends where that call leaves it
    rngs, alone = _bit_generators(k, 60), _bit_generators(k, 60)
    rows = sample_points(k, rngs)
    for i, (row, rng, want) in enumerate(zip(rows, rngs, alone)):
        assert row.tobytes() == sample_point(k, want).meridians.tobytes(), i
        assert _state(rng.bit_generator.state) == _state(want.bit_generator.state), i
