"""The campaign engine: the one module that turns keys into numpy's draws,
and computes keyed rows in stacks.

A campaign is a sequence of keys, one row each.  :func:`run` computes it in
stacks of at most CHUNK rows, each row drawing what np.random.default_rng(key)
draws, and names a rejected row by its key.  A stack's keys are hashed to
PCG64 states in arrays (:func:`key_states`; tests/test_keyed_draws.py fails
if numpy's seeding changes) and handed on as one :class:`Streams`
(:func:`keyed_rngs`).  Every keyed draw of a campaign is one
:func:`random_draws` call, which decodes the rows from the states in arrays.

PCG64 is the 128-bit LCG s -> M s + inc with the XSL-RR output function
(O'Neill 2014, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation"): each draw steps the state
and outputs rotr64(hi ^ lo, hi >> 58).  After j steps from s the state is
M^j s + (1 + M + ... + M^(j-1)) inc, so the first m outputs of N streams are
one jump ahead on (N, m) arrays; a 128-bit number is a [high, low] pair of
uint64 words, multiplied through 32-bit limbs.

``standard_normal`` is numpy's 256-layer ziggurat (Marsaglia and Tsang
2000, "The Ziggurat Method for Generating Random Variables", J. Stat.
Softw. 5(8)).  Its fast path takes one output: the low 8 bits are the layer
idx, the next bit the sign, the next 52 bits ``rabs``, and x = rabs wi[idx]
is kept when rabs < ki[idx].  Off that path numpy draws more outputs and
calls C's exp and log1p, which arrays need not round alike: such a draw is
left to a real generator.  The tables WI and KI are in
:mod:`charvar.ziggurat`, read from the installed numpy by
:func:`probe_tables` (``python -m charvar.campaign`` writes that module);
the tests probe them again, so a numpy that changes them fails loudly.
"""

from __future__ import annotations

import functools
from itertools import islice
from typing import Callable, Iterable

import numpy as np

from . import quat
from .ziggurat import KI, WI

# PCG64's multiplier M, and 2^128 - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645
M128 = (1 << 128) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_RABS = np.uint64((1 << 52) - 1)


def words(values) -> np.ndarray:
    """Python ints below 2^128 as an (N, 2) uint64 stack of [high, low] words."""
    return np.array([(v >> 64, v & 0xFFFFFFFFFFFFFFFF) for v in values], dtype=np.uint64).reshape(-1, 2)


def state_dict(state: int, inc: int) -> dict:
    """numpy's PCG64 ``bit_generator.state`` of a state and increment."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _mulhi(a0, a1, b):
    """The high word of the 128-bit product of uint64 words a and b, a given
    by its 32-bit limbs a0 and a1."""
    b0, b1 = b & _LOW32, b >> 32
    low = a0 * b0
    cross = a1 * b0
    mid = (low >> 32) + (cross & _LOW32) + a0 * b1
    return a1 * b1 + (cross >> 32) + (mid >> 32)


def _mul(c: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of c v mod 2^128."""
    c_hi, c_lo, v_hi, v_lo = c[..., 0], c[..., 1], v[..., 0], v[..., 1]
    return _mulhi(c_lo & _LOW32, c_lo >> 32, v_lo) + c_lo * v_hi + c_hi * v_lo, c_lo * v_lo


def mul_add(a: np.ndarray, x: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a x + b y mod 2^128 of [high, low] stacks that broadcast against each
    other."""
    (p_hi, p_lo), (q_hi, q_lo) = _mul(a, x), _mul(b, y)
    lo = p_lo + q_lo
    return np.stack([p_hi + q_hi + (lo < p_lo), lo], axis=-1)


@functools.cache
def _jumps(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (m, 2) words of M^j and of 1 + M + ... + M^(j-1), j = 1..m."""
    a, g = [MULT], [1]
    for _ in range(m - 1):
        a.append(a[-1] * MULT & M128)
        g.append((g[-1] * MULT + 1) & M128)
    return words(a), words(g)


def outputs(state: np.ndarray, inc: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The first m >= 1 raw 64-bit outputs of each stream of (N, 2) state
    and increment stacks, (N, m), and the (N, 2) state they leave."""
    a, g = _jumps(m)
    states = mul_add(a, state[:, None], g, inc[:, None])
    hi, lo = states[..., 0], states[..., 1]
    x = hi ^ lo
    rot = hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63)), states[:, -1]


def standard_normal(out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's standard_normal of each raw output, and the mask of those it
    takes on the ziggurat's fast path; the others hold no draw."""
    idx = (out & np.uint64(0xFF)).astype(np.intp)
    rabs = (out >> 9) & _RABS
    x = rabs.astype(float) * WI[idx]
    np.negative(x, out=x, where=((out >> 8) & np.uint64(1)).astype(bool))
    return x, rabs < KI[idx]


def next_double(out: np.ndarray) -> np.ndarray:
    """numpy's next_double of each raw output: its top 53 bits over 2^53.
    ``uniform(0.0, high)`` draws 0.0 + high * next_double."""
    return (out >> 11).astype(float) * (1.0 / 9007199254740992.0)


def decode(out: np.ndarray, calls) -> tuple[list[np.ndarray], np.ndarray]:
    """The values of ``calls``, a row's fixed sequence of numpy draws, read
    from each row of raw outputs ``out``: one (N, size) array per call, and
    the mask of the rows read exactly, those whose normals all take the
    ziggurat's fast path (the others hold no draw).  A call is (name, size,
    *bounds), one of ("standard_normal", size), ("normal", size), which draws
    0.0 + 1.0 x and so turns a -0.0 into 0.0, and ("uniform", size, low,
    high), which draws low + (high - low) next_double.  ``out`` holds at
    least the calls' total size of outputs a row."""
    values, exact, start = [], np.ones(len(out), dtype=bool), 0
    for name, size, *bounds in calls:
        raw = out[:, start : start + size]
        start += size
        if name == "uniform":
            low, high = bounds
            values.append(low + (high - low) * next_double(raw))
        else:
            x, fast = standard_normal(raw)
            exact &= fast.all(axis=1)
            values.append(x if name == "standard_normal" else 0.0 + 1.0 * x)
    return values, exact


def raw_outputs(calls) -> int:
    """The raw outputs a row of ``calls`` (:func:`random_draws`) reads on the
    ziggurat's fast path: a call's size, count * dim for a direction."""
    return sum(call[1] * call[2] if call[0] == "directions" else call[1] for call in calls)


class Streams:
    """A stack of generators' streams, one per row, and the generator that
    draws a row for real (:meth:`generator`).  Indexing takes rows, and
    :func:`random_draws` draws a row's sequence of calls for every row.

    The streams of keys (:func:`keyed_rngs`) are PCG64 start states and
    increments, (N, 2) word stacks whose raw outputs :meth:`draw` reads.
    They share one Generator, set to a row's start state when it is asked
    for, so a row must be drawn before the next is asked for.  The streams
    of a list of generators (:meth:`of`), of any bit generator, are the
    generators themselves with their start states; they are drawn, not
    decoded, and ``state`` is None.
    """

    def __init__(self, state: np.ndarray | None, inc: np.ndarray | None, gens: list | None = None):
        self.state, self.inc = state, inc
        # (generator, start state) of each row of a list; keyed rows share
        # one Generator, made when first asked for
        self._gens = gens
        self._shared: np.random.Generator | None = None

    @classmethod
    def of(cls, rngs) -> Streams:
        """``rngs`` if it is Streams, else the streams of its generators."""
        if isinstance(rngs, Streams):
            return rngs
        gens = list(rngs)
        if len({id(rng) for rng in gens}) != len(gens):
            raise ValueError("each sample needs its own generator")
        return cls(None, None, [(rng, rng.bit_generator.state) for rng in gens])

    def __len__(self) -> int:
        return len(self._gens if self.state is None else self.state)

    def __getitem__(self, rows) -> Streams:
        """The streams of ``rows``, a slice or a sequence of row indices.  A
        single row is refused, so that a Streams is not iterable: a row's
        generator is :meth:`generator`."""
        if isinstance(rows, int):
            raise TypeError("Streams takes a slice or a sequence of rows; a row's generator is generator(row)")
        if self.state is None:
            return Streams(None, None, self._gens[rows] if isinstance(rows, slice) else [self._gens[i] for i in rows])
        return Streams(self.state[rows], self.inc[rows])

    def generator(self, row: int) -> np.random.Generator:
        """The generator of ``row``, set to the row's start state."""
        if self.state is None:
            rng, start = self._gens[row]
            rng.bit_generator.state = start
            return rng
        if self._shared is None:
            self._shared = np.random.Generator(np.random.PCG64(0))
        (s_hi, s_lo), (i_hi, i_lo) = self.state[row].tolist(), self.inc[row].tolist()
        self._shared.bit_generator.state = state_dict(s_hi << 64 | s_lo, i_hi << 64 | i_lo)
        return self._shared

    def draw(self, m: int) -> np.ndarray:
        """The first m raw outputs of each keyed row, (N, m)."""
        return outputs(self.state, self.inc, m)[0]


def random_draws(rngs, calls, out: np.ndarray | None = None) -> list[np.ndarray]:
    """A row's fixed sequence of one-row draws for each row of ``rngs``, a
    :class:`Streams` or distinct generators: one stack per call.  A call
    ("directions", count, dim) is :func:`charvar.quat.random_directions`, an
    (N, count, dim) stack; the others are numpy's calls of :func:`decode`,
    (N, size).  Keyed rows are decoded from their raw outputs, ``out`` if
    given, else one :meth:`Streams.draw` of :func:`raw_outputs`; a keyed
    row with a normal off the ziggurat's fast path, and every row of a
    list, makes the raw calls on its generator, a direction as
    ``standard_normal(count * dim)``.  Every direction is normalised in
    arrays, and a row with one of norm <= quat.DRAW_CUTOFF replays the
    one-row calls from its start state, so a list's generators end where
    those calls leave them."""
    streams = Streams.of(rngs)
    n = len(streams)
    raw = [("standard_normal", call[1] * call[2]) if call[0] == "directions" else call for call in calls]
    if streams.state is None:
        values, slow = [np.empty((n, size)) for _, size, *_ in raw], range(n)
    else:
        values, exact = decode(streams.draw(raw_outputs(calls)) if out is None else out, raw)
        slow = np.flatnonzero(~exact).tolist()
    for row in slow:
        rng = streams.generator(row)
        for value, (name, size, *bounds) in zip(values, raw):
            value[row] = getattr(rng, name)(*bounds, size=size)
    rejected = np.zeros(n, dtype=bool)
    for i, (name, count, *dims) in enumerate(calls):
        if name == "directions":
            v = values[i].reshape(n, count, *dims)
            lengths = quat.norm(v)
            rejected |= np.any(lengths <= quat.DRAW_CUTOFF, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                values[i] = v / lengths[..., None]
    for row in np.flatnonzero(rejected).tolist():
        rng = streams.generator(row)
        for value, (name, size, *rest) in zip(values, calls):
            if name == "directions":
                value[row] = quat.random_directions(rng, size, *rest)
            else:
                value[row] = getattr(rng, name)(*rest, size=size)
    return values


# numpy's seeding of np.random.default_rng(key), stable since numpy 1.17:
# SeedSequence hashes the key's uint32 words into a pool of four words,
# each hash step xoring with one constant of a sequence and multiplying by
# the next; generate_state(4, uint64) hashes the pool into a 128-bit PCG64
# seed and increment, and PCG64 takes two steps of its LCG
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MULT, _MULT_1 = words([MULT, MULT + 1])


def _key_words(key: tuple[int, ...]) -> list[int]:
    """The uint32 words SeedSequence reads from a key: each entry in as
    many little-endian words as it needs, 0 in one word."""
    words = []
    for entry in key:
        if entry < 0:
            raise ValueError(f"key {key}: entries must be non-negative, got {entry}")
        words.append(entry & 0xFFFFFFFF)
        entry >>= 32
        while entry:
            words.append(entry & 0xFFFFFFFF)
            entry >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """The constant of each hash step: init times mult^step mod 2^32."""
    return [init * pow(mult, step, 1 << 32) & 0xFFFFFFFF for step in range(count)]


@functools.cache
def _pool_steps(length: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (xor, multiplier) uint32 vectors of the pool hash of keys of
    ``length`` words, one pair per step of :func:`_seed_words` over the four
    pool words: their first hash, one mixing round per pool word (xor 0 and
    multiplier 1 in its own slot, which the round leaves as it is), and one
    round per key word past the fourth."""
    h = _hash_constants(_INIT_A, _MULT_A, 17 + 4 * max(0, length - 4))
    steps = [(h[0:4], h[1:5])]
    for src in range(4):
        x, m = h[4 + 3 * src : 7 + 3 * src], h[5 + 3 * src : 8 + 3 * src]
        steps.append((x[:src] + [0] + x[src:], m[:src] + [1] + m[src:]))
    for used in range(16, len(h) - 1, 4):
        steps.append((h[used : used + 4], h[used + 1 : used + 5]))
    return [(np.array(x, dtype=np.uint32), np.array(m, dtype=np.uint32)) for x, m in steps]


_OUT_CONSTS = np.array(_hash_constants(_INIT_B, _MULT_B, 9), dtype=np.uint32)


def _seed_words(words: np.ndarray) -> np.ndarray:
    """SeedSequence(key).generate_state(4, uint64) for each row of an (N, L)
    uint32 stack of key words: the (N, 4) uint64 seed, in uint32 arithmetic
    over an (N, 4) pool."""
    n, length = words.shape
    first, *rounds = _pool_steps(length)
    entropy = np.zeros((n, max(4, length)), dtype=np.uint32)
    entropy[:, :length] = words

    def hashmix(value, step):
        value = (value ^ step[0]) * step[1]
        return value ^ (value >> 16)

    pool = hashmix(entropy[:, :4], first)
    for src, step in enumerate(rounds):
        # pool word src, or key word src past the pool, mixes into the pool
        word = (pool if src < 4 else entropy)[:, src : src + 1]
        mixed = _MIX_L * pool - _MIX_R * hashmix(word, step)
        mixed ^= mixed >> 16
        if src < 4:
            mixed[:, src] = pool[:, src]
        pool = mixed
    halves = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _OUT_CONSTS[:-1]) * _OUT_CONSTS[1:]
    halves = (halves ^ (halves >> 16)).astype(np.uint64)
    return halves[:, 0::2] | (halves[:, 1::2] << np.uint64(32))


def key_states(keys: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The PCG64 state and increment np.random.default_rng(key) starts in,
    for each key of non-negative ints: two (N, 2) stacks of [high, low]
    uint64 words.  Keys with the same number of words (:func:`_key_words`)
    are hashed as one stack; seeding PCG64 from its 128-bit seed s and
    increment inc is two steps of its LCG, M (s + inc) + inc = M s +
    (M + 1) inc."""
    words = [_key_words(key) for key in keys]
    seeds = np.empty((len(keys), 4), dtype=np.uint64)
    for length in set(map(len, words)):
        rows = [row for row, w in enumerate(words) if len(w) == length]
        stack = np.array([words[row] for row in rows], dtype=np.uint32).reshape(len(rows), length)
        seeds[rows] = _seed_words(stack)
    # the increment is the seed's second half shifted left by one, plus 1
    inc = np.stack([seeds[:, 2] << 1 | seeds[:, 3] >> 63, seeds[:, 3] << 1 | 1], axis=-1)
    return mul_add(_MULT, seeds[:, :2], _MULT_1, inc), inc


def keyed_rngs(keys: list[tuple[int, ...]]) -> Streams:
    """The streams of ``keys``, as np.random.default_rng(key) starts them.
    The states are computed, and the keys checked, when this is called."""
    return Streams(*key_states(keys))


# rows per stacked pass of a campaign: a campaign's stacks stay a few
# hundred rows long whatever its count, which bounds its memory
CHUNK = 256


def run(keys: Iterable[tuple[int, ...]], fn: Callable[[list, Streams], list]) -> list:
    """The concatenated lists ``fn(chunk, rngs)`` over runs ``chunk`` of CHUNK
    keys of ``keys``, ``rngs`` the streams of :func:`keyed_rngs` of them.
    A stacked rejection (``exc.row``) is named by ``chunk[row]``, where ``fn``
    may have put the key that drew the row in the end."""
    keys, out = iter(keys), []
    while chunk := list(islice(keys, CHUNK)):
        try:
            out += fn(chunk, keyed_rngs(chunk))
        except ValueError as exc:
            if getattr(exc, "row", None) is not None:
                exc.args = (f"sample {chunk[exc.row]}: {exc}",)
            raise
    return out


def chunked(seed: int, path: tuple[int, ...], count: int, fn: Callable[[list, Streams], list]) -> list:
    """:func:`run` over the keys (seed, *path, i) of samples i < count."""
    return run(((seed, *path, i) for i in range(count)), fn)


def _probe(rng: np.random.Generator, first: int) -> tuple[float, bool]:
    """numpy's standard_normal when its next raw output is ``first`` (below
    2^64) and the one after it draws next_double 0, and whether it took the
    fast path (one output).  The LCG step is invertible: the state whose next
    two states are t1 = first and t2 (of the other parity, so that the
    increment t2 - M t1 is odd) is (t1 - inc) / M; both output themselves."""
    t1, t2 = first, 1 - (first & 1)
    inc = (t2 - MULT * t1) & M128
    state = (t1 - inc) * pow(MULT, -1, 1 << 128) & M128
    rng.bit_generator.state = state_dict(state, inc)
    x = rng.standard_normal()
    return x, rng.bit_generator.state["state"]["state"] == t1


def probe_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables wi and ki, read from the installed numpy: in
    layer idx, rabs = 1 draws wi[idx] on either path (the slow path keeps
    it at next_double 0), and ki[idx] is the least rabs off the fast path,
    found by bisection."""
    rng = np.random.Generator(np.random.PCG64(0))
    wi, ki = np.empty(256), np.empty(256, dtype=np.uint64)
    for idx in range(256):
        wi[idx] = _probe(rng, 1 << 9 | idx)[0]
        lo, hi = 0, 1 << 52  # fast below lo, off it at hi
        while lo < hi:
            mid = (lo + hi) // 2
            if _probe(rng, mid << 9 | idx)[1]:
                lo = mid + 1
            else:
                hi = mid
        ki[idx] = lo
    return wi, ki


def _tables_module(wi: np.ndarray, ki: np.ndarray) -> str:
    """The source of :mod:`charvar.ziggurat` for the tables."""
    lines = [
        '"""numpy\'s ziggurat tables for standard_normal, read from numpy by',
        "charvar.campaign.probe_tables and written by ``python -m charvar.campaign``; the",
        'tests read them again."""',
        "",
        "import numpy as np",
        "",
        "# wi[idx]: a fast-path draw of layer idx is rabs * wi[idx]",
        "WI = np.array([",
        *(f"    {', '.join(map(repr, wi[i : i + 4].tolist()))}," for i in range(0, 256, 4)),
        "])",
        "# ki[idx]: the draw is on the fast path when rabs < ki[idx]",
        "KI = np.array([",
        *(f"    {', '.join(f'0x{v:013X}' for v in ki[i : i + 6].tolist())}," for i in range(0, 256, 6)),
        "], dtype=np.uint64)",
    ]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    import sys
    from pathlib import Path

    path = Path(__file__).with_name("ziggurat.py")
    path.write_text(_tables_module(*probe_tables()))
    print(path, file=sys.stderr)
