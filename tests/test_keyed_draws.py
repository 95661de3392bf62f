"""Keyed draws: the campaign engine's generator of a key starts in the
state np.random.default_rng(key) starts in and draws the same numbers.
This ties charvar to numpy's SeedSequence and PCG64 seeding (stable since
numpy 1.17); these tests fail if numpy changes it."""

import numpy as np
import pytest

from charvar import campaign, cover, quat, variety, ziggurat
from charvar.quat import I, K, ONE, exp_pure, qinv, qmul, random_directions, random_pure, random_unit
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
    streams = campaign.keyed_rngs(KEYS)
    for row, key in enumerate(KEYS):
        rng, want = streams.generator(row), np.random.default_rng(key)
        assert rng.standard_normal((4, 3)).tobytes() == want.standard_normal((4, 3)).tobytes(), key
        assert rng.uniform(0.0, 1.0) == want.uniform(0.0, 1.0), key


def test_one_key_generator_is_its_own():
    # the streams of each keyed_rngs call share one generator of their own
    a, b = (campaign.keyed_rngs([(3, 13, 2)]).generator(0) for _ in range(2))
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


# a head's entries and the indices of family_states: one, two and three
# uint32 words
WIDE_ENTRIES = (0, 2**32 - 1, 2**32, 25660265120, 2**64 + 7)


def _state_rows(keys, rngs):
    """Each key of a stack with its stream's start state and increment."""
    return list(zip(keys, _ints(rngs.state), _ints(rngs.inc)))


def _assert_default_rng_states(rows):
    for key, state, inc in rows:
        assert {"state": state, "inc": inc} == np.random.default_rng(key).bit_generator.state["state"], key


@pytest.mark.parametrize("seed", WIDE_ENTRIES)
def test_family_states_match_default_rng(seed, monkeypatch):
    # the ladder's heads at paths ((), ()): keys (seed, i) beside (seed, b, i)
    # in one stack; in stacks of 4 the family bounds at rows 6, 9, 15, 18
    # and 21 fall inside a stack
    monkeypatch.setattr(campaign, "CHUNK", 4)
    heads = [((seed,), 6)] + [((seed, b), 3) for b in range(2, 8)]
    rows = campaign.families(heads, _state_rows)
    assert [key for key, *_ in rows] == [(*head, i) for head, count in heads for i in range(count)]
    _assert_default_rng_states(rows)


def test_family_states_of_wide_entries():
    # heads of every entry, and index ranges across 2^32, where an index
    # takes a second word, in one call
    segments = [((entry, 9, entry), 0, 2) for entry in WIDE_ENTRIES] + [((), 0, 2), ((7,), 2**32 - 2, 2**32 + 2)]
    segments += [((entry,), index, index + 2) for entry in WIDE_ENTRIES for index in WIDE_ENTRIES[:-1]]
    keys = [(*head, i) for head, lo, hi in segments for i in range(lo, hi)]
    state, inc = campaign.family_states(segments)
    assert [s.tobytes() for s in campaign.key_states(keys)] == [state.tobytes(), inc.tobytes()]
    _assert_default_rng_states(zip(keys, _ints(state), _ints(inc)))


@pytest.mark.parametrize("head", [(-1,), (0, 4, -2), (5, -(2**40))])
def test_negative_head_entry_names_its_first_key(head):
    # as key_states names the first key of a stack with a negative entry
    want = f"key {(*head, 0)}: entries must be non-negative, got {min(head)}"
    with pytest.raises(ValueError) as families:
        campaign.families([((0, 1), 2), (head, 3)], _state_rows)
    with pytest.raises(ValueError) as keys:
        campaign.run([(0, 1, 0), (0, 1, 1), *((*head, i) for i in range(3))], _state_rows)
    assert str(families.value) == str(keys.value) == want


def test_streams_are_not_iterable():
    for streams in (campaign.keyed_rngs([(0, i) for i in range(3)]), campaign.Streams.of([np.random.default_rng(0)])):
        with pytest.raises(TypeError, match="generator"):
            list(streams)


def test_chunked_draws_from_the_keyed_generators(monkeypatch):
    def draws(keys, rngs):
        (normals,) = campaign.random_draws(rngs, [("standard_normal", 3)])
        return [(key, row.tobytes()) for key, row in zip(keys, normals)]

    monkeypatch.setattr(campaign, "CHUNK", 16)
    rows = campaign.chunked(11, (6,), campaign.CHUNK + 3, draws)
    assert [key for key, _ in rows] == [(11, 6, i) for i in range(campaign.CHUNK + 3)]
    for key, got in rows:
        assert got == np.random.default_rng(key).standard_normal(3).tobytes()


# decoded draws: charvar.campaign reads numpy's PCG64 outputs and its ziggurat in
# arrays; these tests tie it to the installed numpy

DECODED_KEYS = [(seed, 8, i) for seed in (0, 2**32 + 5, 25660265120, 2**64 + 7) for i in range(2500)]


def _next_output_is(rng, value):
    """Set rng's PCG64 to the state whose next raw output is ``value`` (below
    2^64): with increment 1, the stepped state ``value`` outputs itself."""
    rng.bit_generator.state = campaign.state_dict((value - 1) * pow(campaign.MULT, -1, 1 << 128) & campaign.M128, 1)
    return value


def test_raw_outputs_are_numpys():
    state, inc = campaign.key_states(DECODED_KEYS[::50])
    out, end = campaign.outputs(state, inc, 31)
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
    out, end = campaign.outputs(state, inc, m)
    normals, fast = campaign.standard_normal(out[:, :-1])
    phi = 2.0 * np.pi * campaign.next_double(out[:, -1])
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
                decoded, fast = campaign.standard_normal(np.array([value], dtype=np.uint64))
                assert bool(fast[0]) == one == (rabs < ki), (idx, rabs, sign)
                if one:
                    assert decoded.tobytes() == np.array([x]).tobytes(), (idx, rabs, sign)


def test_uniform_is_two_pi_next_double():
    for key in DECODED_KEYS[::5]:
        rng = np.random.default_rng(key)
        start = rng.bit_generator.state
        raw = rng.bit_generator.random_raw(1)
        rng.bit_generator.state = start
        assert 2.0 * np.pi * campaign.next_double(raw)[0] == rng.uniform(0.0, 2.0 * np.pi), key


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


@pytest.mark.parametrize("k", [3, 4, 6, 12])
def test_keyed_central_rows_are_default_rng_draws(k, monkeypatch):
    # a cutoff above every |im w| makes every row central, and the rows are
    # left as drawn; a central row draws its directions, then one more
    monkeypatch.setattr(variety, "CENTRAL_CUTOFF", 2.0)
    monkeypatch.setattr(variety, "complete_reps", lambda qs: qs)
    keys = [(2**64 + 7, 5, k, i) for i in range(300)]
    listed = [np.random.default_rng(key) for key in keys]
    rows = sample_points(k, campaign.keyed_rngs(keys))
    assert rows.tobytes() == sample_points(k, listed).tobytes()
    for key, row, rng in zip(keys, rows, listed):
        alone = np.random.default_rng(key)
        assert row.tobytes() == sample_points(k, [alone])[0].tobytes(), key
        want = np.random.default_rng(key)
        random_directions(want, k - 2, 3)
        random_pure(want)
        assert rng.bit_generator.state == alone.bit_generator.state == want.bit_generator.state, key


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


# every keyed draw of a certification: the calls each site makes on a row,
# decoded, against the same calls on np.random.default_rng(key)

SITE_KEYS = [(seed, 8, i) for seed in (0, 2**32, 25660265120, 2**64 + 7) for i in range(600)]
TWO_PI = 2.0 * np.pi
# (site, its calls, the one-row draws of a generator); the chart's calls
# draw the real and imaginary parts of m = 2n - 2 coordinates at n = 6
SITE_CALLS = {
    "chart-symmetries": (
        [("normal", 10), ("normal", 10), ("uniform", 1, 0.0, TWO_PI)],
        lambda rng: [rng.normal(size=10), rng.normal(size=10), [rng.uniform(0.0, TWO_PI)]],
    ),
    "bd-torus round trip": ([("uniform", 8, 0.0, TWO_PI)], lambda rng: [rng.uniform(0.0, TWO_PI, size=8)]),
    "bd-torus push, fiber-two-fold": ([("uniform", 4, 0.0, TWO_PI)], lambda rng: [rng.uniform(0.0, TWO_PI, size=4)]),
    "sample_points(6)": (
        [("standard_normal", 12), ("uniform", 1, 0.0, TWO_PI)],
        lambda rng: [rng.standard_normal((4, 3)).reshape(-1), [rng.uniform(0.0, TWO_PI)]],
    ),
    "uniform(0.2, 1.2)": ([("uniform", 2, 0.2, 1.2)], lambda rng: [rng.uniform(0.2, 1.2, size=2)]),
}


def _rows(draw, rngs) -> list[bytes]:
    """The bytes of each generator's one-row draws, call after call."""
    return [b"".join(np.asarray(v, dtype=float).tobytes() for v in draw(rng)) for rng in rngs]


def _joined(values) -> list[bytes]:
    """The bytes of each row of a stacked draw, call after call."""
    return [b"".join(v.tobytes() for v in row) for row in zip(*values)]


@pytest.mark.parametrize("site", SITE_CALLS)
def test_site_draws_are_default_rng_draws(site):
    calls, draw = SITE_CALLS[site]
    streams = campaign.keyed_rngs(SITE_KEYS)
    values = campaign.random_draws(streams, calls)
    assert [v.shape for v in values] == [(len(SITE_KEYS), call[1]) for call in calls]
    assert _joined(values) == _rows(draw, map(np.random.default_rng, SITE_KEYS))
    # and a list's generators are drawn, and left where the one-row draws leave them
    rngs, alone = [[np.random.default_rng(key) for key in SITE_KEYS[::40]] for _ in range(2)]
    assert _joined(campaign.random_draws(rngs, calls)) == _rows(draw, alone)
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in alone]


def _stepped_to(value: int, steps: int) -> int:
    """The PCG64 state, with increment 1, whose ``steps``-th stepped state is
    ``value`` (below 2^64), so that its ``steps``-th raw output is ``value``."""
    inverse = pow(campaign.MULT, -1, 1 << 128)
    for _ in range(steps):
        value = (value - 1) * inverse & campaign.M128
    return value


# raw outputs that pin a normal: rabs << 9 | sign << 8 | idx
SLOW_TAIL = (campaign.M128 >> 76) << 9 | 0  # layer 0 past ki: numpy's tail draw
SLOW_LAYER = 12345 << 9 | 1 << 8 | 1  # layer 1 has ki = 0: never fast
NEGATIVE_ZERO = 0 << 9 | 1 << 8 | 7  # rabs 0 with the sign bit: -0.0


CHOSEN_CALLS = [
    ("uniform", 1, 0.2, 1.2),
    ("standard_normal", 5),
    ("normal", 6),
    ("directions", 1, 3),
    ("uniform", 2, 0.0, TWO_PI),
]


def _chosen_draws(rng):
    return [
        [rng.uniform(0.2, 1.2)],
        rng.standard_normal(5),
        rng.normal(size=6),
        random_directions(rng, 1, 3),
        rng.uniform(0.0, TWO_PI, size=2),
    ]


@pytest.mark.parametrize("position", [2, 6, 7, 12, 14])
@pytest.mark.parametrize("value", [SLOW_TAIL, SLOW_LAYER, NEGATIVE_ZERO])
def test_chosen_outputs_decode_as_numpy_draws(value, position):
    # a row whose raw output ``position`` (from 1; 2..6 are the standard
    # normals, 7..12 the normals, 13..15 the direction's) is chosen, after
    # rows of keys: a slow-path normal sends the row to its generator, and
    # normal() draws 0.0 where standard_normal() draws -0.0, which a
    # direction keeps
    keyed = campaign.keyed_rngs(SITE_KEYS[:3])
    start = _stepped_to(value, position)
    state = np.concatenate([keyed.state, campaign.words([start])])
    streams = campaign.Streams(state, np.concatenate([keyed.inc, campaign.words([1])]))
    out = streams.draw(17)
    assert int(out[-1, position - 1]) == value
    _, exact = campaign.decode(out, [("standard_normal", 3) if call[0] == "directions" else call for call in CHOSEN_CALLS])
    assert exact[-1] or value != NEGATIVE_ZERO
    assert not exact[-1] or value == NEGATIVE_ZERO
    values = campaign.random_draws(streams, CHOSEN_CALLS)
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = campaign.state_dict(start, 1)
    want = _rows(_chosen_draws, [*map(np.random.default_rng, SITE_KEYS[:3]), rng])
    assert _joined(values) == want
    if value == NEGATIVE_ZERO:
        got = np.concatenate([v[-1].reshape(-1) for v in values])[position - 1]
        assert got == 0.0 and np.signbit(got) == (position not in range(7, 13))


def _family_row(branch, rng):
    """The one-row draws and construction of a ladder family on one
    generator: random_pure, random_unit and rng.uniform called in turn."""
    eps = 3.7e-9
    if branch == 2:
        b, c = random_unit(rng), random_unit(rng)
        return ONE, b, c, b
    if branch == 3:
        u = random_pure(rng)
        alpha, beta = rng.uniform(0.2, 1.2, size=2)
        return (*exp_pure(np.array([alpha, beta, np.pi - alpha - beta]), u), random_unit(rng))
    if branch == 4:
        u = random_pure(rng)
        c = exp_pure(rng.uniform(0.2, 1.2), u)
        return random_unit(rng), ONE, c, qinv(c)
    if branch in (5, 6):
        theta = rng.uniform(0.0, TWO_PI)
        gaps = (0.0, -eps, -2.0 * eps, -eps) if branch == 5 else (0.0, eps, 0.0, -eps)
        return tuple(qmul(exp_pure(theta + np.array(gaps), K), I))
    u = random_pure(rng)
    return tuple(exp_pure(rng.uniform(0.0, TWO_PI, size=4), u))


def _family_bytes(quads) -> list[bytes]:
    return [np.stack(q).tobytes() for q in zip(*quads)]


BRANCH_KEYS = SITE_KEYS[:2400:2]


@pytest.mark.parametrize("cutoff", [quat.DRAW_CUTOFF, 0.9])
def test_algebra_and_family_rows_are_default_rng_draws(cutoff, monkeypatch):
    # under a cutoff of 0.9 about one unit 3-vector direction in six and one
    # 4-vector in sixteen is rejected, and the row replays on its generator
    monkeypatch.setattr(quat, "DRAW_CUTOFF", cutoff)
    streams = campaign.keyed_rngs(SITE_KEYS)
    (normals,) = campaign.random_draws(streams, [("standard_normal", 12)])
    rejected = np.any(quat.norm(normals.reshape(-1, 3, 4)) <= cutoff, axis=1).sum()
    assert (rejected == 0) == (cutoff < 0.5) and rejected < len(SITE_KEYS) // 2
    (triples,) = campaign.random_draws(streams, [("directions", 3, 4)])
    want = [random_directions(np.random.default_rng(key), 3, 4) for key in SITE_KEYS]
    assert triples.tobytes() == np.stack(want).tobytes()
    branches = [2 + i % 6 for i in range(len(BRANCH_KEYS))]
    quads = cover.lemma_branch_inputs(branches, campaign.keyed_rngs(BRANCH_KEYS))
    want = [_family_row(b, np.random.default_rng(key)) for b, key in zip(branches, BRANCH_KEYS)]
    assert _family_bytes(quads) == _family_bytes(zip(*want))
    # lists: each generator ends where its one-row draws leave it
    rngs, alone = [[np.random.default_rng(key) for key in BRANCH_KEYS[:120]] for _ in range(2)]
    quads = cover.lemma_branch_inputs(branches[:120], rngs)
    assert _family_bytes(quads) == _family_bytes(zip(*[_family_row(b, r) for b, r in zip(branches, alone)]))
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in alone]
    (triples,) = campaign.random_draws(rngs, [("directions", 3, 4)])
    assert triples.tobytes() == np.stack([random_directions(rng, 3, 4) for rng in alone]).tobytes()
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in alone]
    # keyed sampler rows, at seeds up to 2^64 + 7: under the cutoff of 0.9
    # 14%, 27% and 51% of them reject a direction at k = 3, 4 and 6
    keys = SITE_KEYS[::4]
    for k in (3, 4, 6):
        want = [sample_point(k, np.random.default_rng(key)).meridians for key in keys]
        assert sample_points(k, campaign.keyed_rngs(keys)).tobytes() == np.stack(want).tobytes(), k


def test_unknown_branch_is_refused():
    with pytest.raises(ValueError, match="no constructed family for branch 8"):
        cover.lemma_branch_inputs([2, 8], [np.random.default_rng(0), np.random.default_rng(1)])
