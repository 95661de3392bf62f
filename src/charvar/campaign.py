"""The campaign engine: keyed rows drawn and computed in stacks.

A campaign is a sequence of keys, one row each.  :func:`run` computes it in
stacks of at most CHUNK rows, each row drawing what np.random.default_rng(key)
draws, and names a rejected row by its key.  A stack's keys are hashed to
PCG64 states in arrays (:func:`key_states`; tests/test_keyed_draws.py fails
if numpy's seeding changes), and :func:`keyed_rngs` hands them on as one
:class:`charvar.pcg.Streams`.  Every keyed draw of a campaign, the
sampler's, the checks' and the ladder's constructed families', is one
:func:`charvar.quat.random_draws` call, which decodes the rows from the
states in arrays; only a row with a normal off the ziggurat's fast path,
or with a rejected direction, is drawn by a generator set to the row's
state.  The record and gate functions of the cover round trip and the
case ladder are the ones the CLI commands and the selftest checks both
call.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import islice
from typing import Callable, Iterable

import numpy as np

from . import cover, pcg

# numpy's seeding of np.random.default_rng(key), stable since numpy 1.17:
# SeedSequence hashes the key's uint32 words into a pool of four words,
# each hash step xoring with one constant of a sequence and multiplying by
# the next; generate_state(4, uint64) hashes the pool into a 128-bit PCG64
# seed and increment, and PCG64 takes two steps of its LCG
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MULT, _MULT_1 = pcg.words([pcg.MULT, pcg.MULT + 1])


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
    uint64 words (:mod:`charvar.pcg`).  Keys with the same number of words
    (:func:`_key_words`) are hashed as one stack; seeding PCG64 from its
    128-bit seed s and increment inc is two steps of its LCG,
    M (s + inc) + inc = M s + (M + 1) inc."""
    words = [_key_words(key) for key in keys]
    seeds = np.empty((len(keys), 4), dtype=np.uint64)
    for length in set(map(len, words)):
        rows = [row for row, w in enumerate(words) if len(w) == length]
        stack = np.array([words[row] for row in rows], dtype=np.uint32).reshape(len(rows), length)
        seeds[rows] = _seed_words(stack)
    # the increment is the seed's second half shifted left by one, plus 1
    inc = np.stack([seeds[:, 2] << 1 | seeds[:, 3] >> 63, seeds[:, 3] << 1 | 1], axis=-1)
    return pcg.mul_add(_MULT, seeds[:, :2], _MULT_1, inc), inc


def keyed_rngs(keys: list[tuple[int, ...]]) -> pcg.Streams:
    """The streams of ``keys``, as np.random.default_rng(key) starts them.
    :func:`charvar.quat.random_draws` decodes their draws from the start
    states; a row that cannot be decoded exactly gets one Generator set to
    the row's start state (:meth:`charvar.pcg.Streams.generator`), so it
    draws what that generator draws.  The states are computed, and the
    keys checked, when this is called."""
    return pcg.Streams(*key_states(keys))


def keyed_rng(*key: int) -> np.random.Generator:
    """np.random.default_rng(key) itself: one key gains nothing from keyed_rngs."""
    return np.random.default_rng(key)


# rows per stacked pass of a campaign: a campaign's stacks stay a few
# hundred rows long whatever its count, which bounds its memory
CHUNK = 256


def run(keys: Iterable[tuple[int, ...]], fn: Callable[[list, pcg.Streams], list]) -> list:
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


def chunked(seed: int, path: tuple[int, ...], count: int, fn: Callable[[list, pcg.Streams], list]) -> list:
    """:func:`run` over the keys (seed, *path, i) of samples i < count."""
    return run(((seed, *path, i) for i in range(count)), fn)


def roundtrip_records(seed: int, path: tuple[int, ...], count: int) -> list[dict]:
    """Round-trip residuals of `count` surface samples, both signs; sample
    i draws from the generator keyed by (seed, *path, i)."""

    def records(keys, rngs):
        residuals = cover.roundtrip_residuals(cover.surface_samples(rngs)).tolist()
        return [
            {"index": key[-1], "seed": seed, "residuals": {"plus": plus, "minus": minus}}
            for key, (plus, minus) in zip(keys, residuals)
        ]

    return chunked(seed, path, count, records)


def ladder_records(seed: int, paths: tuple[tuple[int, ...], ...], count: int, per_branch: int) -> list[dict]:
    """Case-ladder solutions: `count` generic section inputs, sample i drawn
    from (seed, *paths[0], i), then `per_branch` inputs constructed for
    each rung b = 2..7, input i drawn from (seed, *paths[1], b, i).  The
    families share stacks, one :func:`cover.lemma52_stack` call each, and
    a stack's constructed rows are one :func:`cover.lemma_branch_inputs`
    call."""
    generic = (seed, *paths[0])

    def records(keys, rngs):
        # the generic rows lead the campaign, so they lead every stack
        n = sum(key[:-1] == generic for key in keys)
        quads = np.empty((4, len(keys), 4))
        if n:
            quads[:, :n] = cover.section_inputs(cover.surface_samples(rngs[:n]))[:4]
        if n < len(keys):
            quads[:, n:] = cover.lemma_branch_inputs([key[-2] for key in keys[n:]], rngs[n:])
        _, rung, residuals = cover.lemma52_stack(*quads)
        return [
            {"family": "generic" if row < n else f"branch{key[-2]}", "index": key[-1], "branch": b, "max_residual": r}
            for row, (key, b, r) in enumerate(zip(keys, rung.tolist(), residuals.max(axis=1).tolist()))
        ]

    families = [(paths[0], count)] + [((*paths[1], b), per_branch) for b in range(2, 8)]
    return run(((seed, *path, i) for path, n in families for i in range(n)), records)


def ladder_coverage(records: list[dict]) -> str:
    """How many records each rung 1..7 solved, as `1:n1 2:n2 ...`."""
    tally = Counter(r["branch"] for r in records)
    return " ".join(f"{b}:{tally[b]}" for b in range(1, 8))


def ladder_failures(records: list[dict], seed: int, min_needed: int) -> list[str]:
    """Why case-ladder records fail, empty if they pass: constructed inputs
    solved on another rung, residuals over cover.LEMMA_TOL, and rungs
    solved fewer than `min_needed` times.  Records are named by (seed,
    family, index)."""
    named = [(seed, r["family"], r["index"], r["branch"]) for r in records]
    wrong = [w for w in named if w[1] not in ("generic", f"branch{w[3]}")]
    over = [(seed, r["family"], r["index"]) for r in records if r["max_residual"] > cover.LEMMA_TOL]
    tally = Counter(r["branch"] for r in records)
    missing = [b for b in range(1, 8) if tally[b] < min_needed]
    failures = []
    if wrong:
        failures.append(f"constructed inputs solved on another rung, (seed, family, index, rung): {wrong}")
    if over:
        failures.append(f"failing (seed, family, index) over {cover.LEMMA_TOL:g}: {over}")
    if missing:
        failures.append(f"branches below {min_needed}: {missing}")
    return failures
