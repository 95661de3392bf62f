"""Named verification checks over the whole library.

Each check certifies one structural statement (census counts, the cover
round trip, Hessian combinatorics, ...) at a configurable sample count.
The CLI selftest runs all of them at reduced counts; the acceptance test
suite runs the same functions at full counts.  All randomness is drawn
from generators keyed by (seed, check id, sample index), so output is
reproducible byte for byte.

The campaign engine lives here too: :func:`chunked` runs a campaign in
stacks of CHUNK keyed rows.  The generator of a key starts in the state
np.random.default_rng(key) starts in (:func:`key_states`, numpy's
SeedSequence hash run over a chunk's keys as uint32 arrays), and a chunk's
rows draw in turn from one Generator set to each state
(:func:`keyed_rngs`).  This follows numpy's SeedSequence and PCG64 seeding,
stable since numpy 1.17; tests/test_keyed_draws.py fails if it changes.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from . import cover, morse, quat, rep, variety
from .quat import I, J, K, exp_pure, gprod, qconj, qmul
from .variety import ABELIAN, BINARY_DIHEDRAL, GENERIC, LOCUS_NAMES

REDUCED_COUNTS: dict[str, int] = {
    "algebra": 200,
    "census_n_max": 4,
    "k3": 30,
    "k4": 150,
    "submersion": 90,
    "roundtrip": 120,
    "fiber_generic": 60,
    "fiber_bd": 40,
    "lemma_generic": 600,
    "lemma_per_branch": 40,
    "hessian_numeric_n_max": 5,
    "symm_per_n": 40,
    "symm_n_max": 5,
    "bd_roundtrip_per_n": 40,
    "bd_push": 60,
    "link": 300,
    "link_refine": 40,
}

FULL_COUNTS: dict[str, int] = {
    "algebra": 2000,
    "census_n_max": 6,
    "k3": 100,
    "k4": 1000,
    "submersion": 1000,
    "roundtrip": 1000,
    "fiber_generic": 500,
    "fiber_bd": 200,
    "lemma_generic": 9400,
    "lemma_per_branch": 100,
    "hessian_numeric_n_max": 8,
    "symm_per_n": 200,
    "symm_n_max": 6,
    "bd_roundtrip_per_n": 250,
    "bd_push": 500,
    "link": 10000,
    "link_refine": 200,
}


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    detail: str


# numpy's seeding of np.random.default_rng(key), stable since numpy 1.17:
# SeedSequence hashes the key's uint32 words into a pool of four words,
# each hash step xoring with one constant of a sequence and multiplying by
# the next; generate_state(4, uint64) hashes the pool into a 128-bit PCG64
# seed and increment, and PCG64 takes two steps of its LCG
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


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
    """The constant of each hash step: init, then times mult mod 2^32."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return out


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


def key_states(keys: list[tuple[int, ...]]) -> list[dict]:
    """The PCG64 ``state`` dict that np.random.default_rng(key) starts in,
    for each key of non-negative ints.  Keys with the same number of words
    (:func:`_key_words`) are hashed as one stack; seeding PCG64 from its
    128-bit seed s and increment i is two steps of its LCG, on Python ints."""
    words = [_key_words(key) for key in keys]
    states: list = [None] * len(keys)
    for length in set(map(len, words)):
        rows = [row for row, w in enumerate(words) if len(w) == length]
        stack = np.array([words[row] for row in rows], dtype=np.uint32).reshape(len(rows), length)
        for row, (s0, s1, i0, i1) in zip(rows, _seed_words(stack).tolist()):
            inc = (i0 << 65 | i1 << 1 | 1) & _M128
            states[row] = {"state": ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128, "inc": inc}
    return states


def keyed_rngs(keys: list[tuple[int, ...]]) -> Iterator[np.random.Generator]:
    """One pass over the generators of ``keys``: one Generator, set before
    each yield to the state np.random.default_rng(key) starts in, so it
    draws what that generator draws.  Each row must be drawn before the
    next is taken.  The states are computed, and the keys checked, when
    this is called."""
    states = key_states(keys)
    rng = np.random.Generator(np.random.PCG64(0))

    def each():
        for state in states:
            rng.bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
            yield rng

    return each()


def _rng(seed: int, *path: int) -> np.random.Generator:
    """A generator of its own, drawing what np.random.default_rng((seed,
    *path)) draws."""
    return next(keyed_rngs([(seed, *path)]))


# samples per stacked pass of a chunked campaign: a campaign's stacks stay a
# few hundred rows long whatever its count, which bounds its memory
CHUNK = 256


def rows_named(keys: list, stacked, *args):
    """``stacked(*args)``; a rejected row (the exception carries ``row``)
    is named by its key."""
    try:
        return stacked(*args)
    except ValueError as exc:
        if getattr(exc, "row", None) is not None:
            exc.args = (f"sample {keys[exc.row]}: {exc}",)
        raise


def chunked(seed: int, path: tuple[int, ...], count: int, fn: Callable[[list, Iterator], list]) -> list:
    """The concatenated lists ``fn(keys, rngs)`` over runs of CHUNK samples
    i < count, sample i keyed (seed, *path, i) and drawing from the
    generator of that key: ``rngs`` is the one pass of :func:`keyed_rngs`.
    A stacked rejection names its sample's key (:func:`rows_named`)."""
    out = []
    for start in range(0, count, CHUNK):
        keys = [(seed, *path, i) for i in range(start, min(start + CHUNK, count))]
        out += rows_named(keys, fn, keys, keyed_rngs(keys))
    return out


ALGEBRA_TOL = 1e-12


def check_quaternion_algebra(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """Group algebra on random units: associativity, norms, conjugation,
    the rotation homomorphism, and the axis-angle round trip."""
    def draw(keys, rngs):
        return [quat.random_directions(rng, 3, 4) for rng in rngs]

    triples = np.array(chunked(seed, (1,), counts["algebra"], draw)).reshape(-1, 3, 4)
    a, b, c = np.moveaxis(triples, 1, 0)
    ab = qmul(a, b)
    aa = quat.axis_angle(a)
    deviations = [
        quat.norm(qmul(ab, c) - qmul(a, qmul(b, c))),
        abs(quat.norm(ab) - 1.0),
        quat.norm(qconj(ab) - qmul(qconj(b), qconj(a))),
        np.abs(quat.rotation_matrix(ab) - quat.rotation_matrix(a) @ quat.rotation_matrix(b)),
        quat.norm(exp_pure(aa.angle, aa.axis) - a),
    ]
    worst = max(float(d.max(initial=0.0)) for d in deviations)
    ok = worst <= ALGEBRA_TOL
    return CheckResult(ok, f"max algebraic deviation {worst:.3e} over {counts['algebra']} triples")


def check_abelian_census(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """For each even k = 2n the abelian classes number exactly 2^(k-2),
    all classify as abelian, and are pairwise distinct; the sign-flip
    action on (i, ..., i) reproduces the same class set."""
    details = []
    for n in range(2, counts["census_n_max"] + 1):
        k = 2 * n
        meridians = variety.enumerate_abelian(k)
        if len(meridians) != 2 ** (k - 2):
            return CheckResult(False, f"k={k}: {len(meridians)} classes, expected {2 ** (k - 2)}")
        labels = {LOCUS_NAMES[rank] for rank in variety.locus_ranks(meridians).tolist()}
        if labels != {ABELIAN}:
            return CheckResult(False, f"k={k}: non-abelian labels {labels}")
        values = rep.fingerprint_batch(meridians)
        distinct = np.unique(np.round(values, 6), axis=0).shape[0]
        if distinct != len(meridians):
            return CheckResult(False, f"k={k}: only {distinct} distinct fingerprints")
        details.append(f"k={k}:{len(meridians)}")
    for n in (2, 3):
        k = 2 * n
        # row b flips the sign of meridian p + 2 where bit p of b is set
        signs = np.where((np.arange(2 ** (k - 2))[:, None] >> np.arange(k - 2)) & 1, -1.0, 1.0)
        flipped = variety.sign_transport(np.broadcast_to(I, (*signs.shape, 4)), signs)
        reps = rep.complete_reps(np.concatenate([np.broadcast_to(I, (len(signs), 1, 4)), flipped], axis=1))
        seen = {rep.fingerprint_digest(v) for v in rep.fingerprint_batch(reps)}
        if len(seen) != 2 ** (k - 2):
            return CheckResult(False, f"k={k}: sign action reached {len(seen)} classes")
    return CheckResult(True, "counts " + " ".join(details) + ", all distinct")


RIGIDITY_TOL = 1e-9


def check_small_k_rigidity(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """k = 3 has a single class (the fingerprint of (i, j, -k)); k = 4
    sees only the abelian and binary dihedral loci."""
    ref = rep.fingerprint_batch(rep.make_reps(np.array([[I, J, -K]])))[0]

    def spreads(keys, rngs):
        return rep.fingerprint_distances(rep.fingerprint_batch(variety.sample_points(3, rngs)), ref).tolist()

    worst = max([0.0, *chunked(seed, (2,), counts["k3"], spreads)])
    if worst > RIGIDITY_TOL:
        return CheckResult(False, f"k=3 fingerprint spread {worst:.3e}")

    def loci(keys, rngs):
        ranks = variety.locus_ranks(variety.sample_points(4, rngs)).tolist()
        return [LOCUS_NAMES[rank] for rank in ranks]

    tally = Counter(chunked(seed, (3,), counts["k4"], loci))
    bad = set(tally) - {ABELIAN, BINARY_DIHEDRAL}
    ok = not bad
    detail = (
        f"k=3 spread {worst:.3e}; k=4 loci "
        + " ".join(f"{name}:{tally[name]}" for name in sorted(tally))
    )
    if bad:
        detail = f"k=4 produced loci {sorted(bad)}; " + detail
    return CheckResult(ok, detail)


SUBMERSION_STEP = 1e-5
MIN_DERIVATIVE = 1e-8
SUBMERSION_FD_TOL = 1e-6


def check_submersion(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """Non-abelian points carry a certificate with nonzero derivative that
    matches a finite difference, a rank-1 constraint Jacobian, a rank-3
    conjugation action, and local dimension 2k-6.  A failure names the key
    (seed, 4, i, retry) that drew its sample, or the worst sample."""
    ks = (4, 6, 8)
    count = counts["submersion"]
    jac, conj = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    deriv, fd_err = np.zeros(count), np.zeros(count)
    drawn: list = [None] * count
    for first, k in enumerate(ks):
        group = range(first, count, len(ks))
        for start in range(0, len(group), CHUNK):
            # sample i has k = ks[i % 3] and draws from (seed, 4, i, retry),
            # retry counting up from 0 while its draw is abelian
            indices = group[start : start + CHUNK]
            rows = np.empty((len(indices), k, 4))
            retries = np.zeros(len(indices), dtype=int)
            redraw, retry = np.arange(len(indices)), 0
            while redraw.size:
                keys = [(seed, 4, indices[j], retry) for j in redraw.tolist()]
                rows[redraw] = variety.sample_points(k, keyed_rngs(keys))
                redraw, retry = redraw[variety.locus_ranks(rows[redraw]) <= 1], retry + 1
                retries[redraw] = retry
            parts = rows[:, :-1]
            keys = [(seed, 4, i, r) for i, r in zip(indices, retries.tolist())]
            cert = rows_named(keys, variety.submersion_certificates, parts)
            fd = (
                gprod(variety.deform(parts, cert, SUBMERSION_STEP))[:, 0]
                - gprod(variety.deform(parts, cert, -SUBMERSION_STEP))[:, 0]
            ) / (2.0 * SUBMERSION_STEP)
            deriv[indices] = np.abs(cert.derivative)
            fd_err[indices] = np.abs(fd - cert.derivative)
            jac[indices] = cert.jacobian_rank
            conj[indices] = variety.conjugation_ranks(parts)
            for i, key in zip(indices, keys):
                drawn[i] = key
    # with df of rank 1 and conjugation of rank 3 the local dimension, 2(k - 1)
    # minus these two ranks, is 2k - 6
    for i in np.flatnonzero((jac != 1) | (conj != 3))[:1]:
        detail = f"df rank {jac[i]}" if jac[i] != 1 else "conjugation rank != 3"
        return CheckResult(False, f"sample {drawn[i]}: {detail}")
    min_deriv, worst_fd = float(deriv.min(initial=np.inf)), float(fd_err.max(initial=0.0))
    detail = f"min |derivative| {min_deriv:.3e}, max fd mismatch {worst_fd:.3e} over {count} samples"
    over = []
    if min_deriv <= MIN_DERIVATIVE:
        over.append(drawn[np.argmin(deriv)])
    if worst_fd > SUBMERSION_FD_TOL:
        over.append(drawn[np.argmax(fd_err)])
    if over:
        detail += f"; worst samples {over}"
    return CheckResult(not over, detail)


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


def check_cover_roundtrip(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """pushforward(extend(s, sign)) returns s generator-wise, both signs."""
    records = roundtrip_records(seed, (5,), counts["roundtrip"])
    worst = max(max(r["residuals"].values()) for r in records)
    ok = worst <= cover.ROUNDTRIP_TOL
    return CheckResult(ok, f"max generator residual {worst:.3e} over {counts['roundtrip']}x2 lifts")


def check_fiber_two_fold(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """Fibers over generic classes hold exactly the two classes rho and
    alpha*(rho); fibers over abelian-image classes hold one binary
    dihedral class.  A failure names the key of its sample."""

    def generic(keys, rngs):
        rho = variety.sample_points(6, rngs)
        _, got, _, on_branch = cover.fibers(cover.pushforwards(rho))
        want = np.stack([rep.fingerprint_batch(rho), rep.fingerprint_batch(rep.make_reps(-rho))], axis=1)
        direct = rep.fingerprint_distances(got, want).max(axis=1)
        crossed = rep.fingerprint_distances(got, want[:, ::-1]).max(axis=1)
        return list(zip(keys, on_branch.tolist(), np.minimum(direct, crossed).tolist()))

    keys, on_branch, match = zip(*chunked(seed, (6,), counts["fiber_generic"], generic))
    bad = np.flatnonzero(np.array(on_branch) | (np.array(match) > cover.FIBER_TOL))
    if bad.size:
        i = bad[0]
        why = "1 class(es)" if on_branch[i] else f"fiber mismatch {match[i]:.3e}"
        return CheckResult(False, f"generic sample {keys[i]}: {why}")

    def dihedral(keys, rngs):
        thetas = np.stack([rng.uniform(0.0, 2.0 * np.pi, size=4) for rng in rngs])
        sheets, _, _, on_branch = cover.fibers(cover.pushforwards(rep.bd_from_angles(thetas)))
        generic = np.take(LOCUS_NAMES, variety.locus_ranks(sheets[:, 0])) == GENERIC
        return list(zip(keys, on_branch.tolist(), generic.tolist()))

    keys, on_branch, generic = zip(*chunked(seed, (7,), counts["fiber_bd"], dihedral))
    bad = np.flatnonzero(~np.array(on_branch) | np.array(generic))
    if bad.size:
        i = bad[0]
        why = "generic witness" if on_branch[i] else "not a single class"
        return CheckResult(False, f"dihedral sample {keys[i]}: {why}")
    return CheckResult(
        True,
        f"{counts['fiber_generic']} generic fibers match {{rho, alpha*rho}} (worst {max(match):.3e}); "
        f"{counts['fiber_bd']} dihedral fibers collapse to one class",
    )


def ladder_records(
    seed: int, paths: tuple[tuple[int, ...], tuple[int, ...]], count: int, per_branch: int
) -> list[dict]:
    """Case-ladder solutions: `count` generic section inputs, sample i drawn
    from (seed, *paths[0], i), then `per_branch` inputs constructed for
    each rung b = 2..7, input i drawn from (seed, *paths[1], b, i)."""
    generic_path, branch_path = paths

    def records(family, keys, quads):
        _, rung, residuals = cover.lemma52_stack(*quads)
        return [
            {"family": family, "index": key[-1], "branch": b, "max_residual": largest}
            for key, b, largest in zip(keys, rung.tolist(), residuals.max(axis=1).tolist())
        ]

    def generic(keys, rngs):
        return records("generic", keys, cover.section_inputs(cover.surface_samples(rngs))[:4])

    out = chunked(seed, generic_path, count, generic)
    for branch in (2, 3, 4, 5, 6, 7):

        def constructed(keys, rngs, branch=branch):
            quads = [cover.lemma_branch_inputs(branch, rng) for rng in rngs]
            return records(f"branch{branch}", keys, [np.stack(inputs) for inputs in zip(*quads)])

        out += chunked(seed, (*branch_path, branch), per_branch, constructed)
    return out


def ladder_coverage(records: list[dict]) -> str:
    """How many records each rung 1..7 solved, as `1:n1 2:n2 ...`."""
    tally = Counter(r["branch"] for r in records)
    return " ".join(f"{b}:{tally[b]}" for b in range(1, 8))


def ladder_failures(records: list[dict], seed: int, min_needed: int) -> list[str]:
    """Why case-ladder records fail, empty if they pass: constructed inputs
    solved on another rung, residuals over cover.LEMMA_TOL, and rungs
    solved fewer than `min_needed` times.  Records are named by (seed,
    family, index)."""
    wrong = [
        (seed, r["family"], r["index"], r["branch"])
        for r in records
        if r["family"] not in ("generic", f"branch{r['branch']}")
    ]
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


def check_lemma52_branches(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """Residuals of the case-ladder solver stay below cover.LEMMA_TOL on
    valid inputs, constructed inputs land on their rung, and every rung
    of the ladder is exercised."""
    min_needed = counts["lemma_per_branch"]
    records = ladder_records(seed, ((8,), (9,)), counts["lemma_generic"], min_needed)
    failures = ladder_failures(records, seed, min_needed)
    worst = max(r["max_residual"] for r in records)
    detail = "; ".join([f"max residual {worst:.3e}", f"branch coverage {ladder_coverage(records)}", *failures])
    return CheckResult(not failures, detail)


def check_hessian_exact(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """det(A) odd, Pf(A)^2 = det(A), and B^2 = I over F2, in exact
    integer arithmetic."""
    dets = []
    for n in range(2, morse.N_MAX + 1):
        report = morse.certify_hessian_combinatorics(n)
        if not report.exact_ok():
            detail = f"n={n}: det {report.det_A}, Pf {report.pfaffian}, B^2=I {report.b_squared_identity_mod2}"
            return CheckResult(False, detail)
        dets.append(report.det_A)
    if dets[0] != 1 or dets[1] != 1:
        return CheckResult(False, f"anchor determinants {dets[:2]} != [1, 1]")
    return CheckResult(True, f"n=2..{morse.N_MAX}: det odd, Pf^2 = det, B^2 = I; dets {dets}")


def check_hessian_numeric(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """Finite-difference Hessians match the exact block pairing and have
    signature zero."""
    worst = 0.0
    for n in range(2, counts["hessian_numeric_n_max"] + 1):
        report = morse.certify_hessian_numeric(n)
        if not report.numeric_ok():
            eigs = f"eig counts ({report.eig_positive}, {report.eig_negative})"
            return CheckResult(False, f"n={n}: fd error {report.fd_max_error:.3e}, {eigs}")
        worst = max(worst, float(report.fd_max_error))
    return CheckResult(
        True,
        f"n=2..{counts['hessian_numeric_n_max']}: max fd error {worst:.3e} <= {morse.FD_TOL:g}, signature 0",
    )


SYMMETRY_TOL = 1e-12
CUBIC_BOUND = 10.0


def check_chart_symmetries(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """The chart function changes sign under coordinate conjugation, is
    constant on circle orbits, and agrees with its quadratic term to
    third order."""
    worst_tau = 0.0
    worst_orbit = 0.0
    worst_cubic = 0.0
    steps = (1e-1, 1e-2, 1e-3)
    count = counts["symm_per_n"]
    for n in range(2, counts["symm_n_max"] + 1):
        m = 2 * n - 2

        def draw(keys, rngs, m=m):
            # m coordinates, then an orbit angle
            return [
                (0.5 * (rng.normal(size=m) + 1j * rng.normal(size=m)), [rng.uniform(0.0, 2.0 * np.pi)])
                for rng in rngs
            ]

        zs, thetas = map(np.array, zip(*chunked(seed, (10, n), count, draw)))
        # the first 20 samples on the unit sphere (np.linalg.norm of a
        # complex vector, row by row), scaled by each step
        z = zs[:20]
        u = z / np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]
        stack = np.concatenate([zs, morse.tau(zs), morse.s1_orbit(zs, thetas), *(t * u for t in steps)])
        val, conj, orbit, *scaled = np.split(morse.eval_chart_g(n, stack), np.cumsum([count] * 3 + [len(u)] * 2))
        worst_tau = max(worst_tau, float(np.abs(conj + val).max(initial=0.0)))
        worst_orbit = max(worst_orbit, float(np.abs(orbit - val).max(initial=0.0)))
        qu = morse.quadratic_form(n, u)
        for t, g in zip(steps, scaled):
            worst_cubic = max(worst_cubic, float((np.abs(g - t * t * qu) / t**3).max(initial=0.0)))
    ok = worst_tau <= SYMMETRY_TOL and worst_orbit <= SYMMETRY_TOL and worst_cubic <= CUBIC_BOUND
    return CheckResult(
        ok,
        f"conjugation defect {worst_tau:.3e}, orbit defect {worst_orbit:.3e}, "
        f"cubic remainder coefficient {worst_cubic:.2f} <= {CUBIC_BOUND:g}",
    )


def _circle_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The largest distance on the circle between the angles of each row of
    two (N, m) stacks."""
    d = np.abs(np.mod(a, 2.0 * np.pi) - np.mod(b, 2.0 * np.pi))
    return np.max(np.minimum(d, 2.0 * np.pi - d), axis=-1)


TORUS_TOL = 1e-9


def check_bd_torus(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """Torus coordinates survive the round trip through a binary dihedral
    representation up to the mirror identification, and such
    representations push forward to commuting surface generators.  A
    failure names the key of its sample, or of the worst sample."""
    gaps = []
    for n in range(2, 6):

        def round_trip(keys, rngs, n=n):
            # a generic image has no torus angles: its gap is nan
            thetas = np.stack([rng.uniform(0.0, 2.0 * np.pi, size=2 * n - 2) for rng in rngs])
            bd = rep.bd_from_angles(thetas)
            planar = variety.locus_ranks(bd) < 3
            gap = np.full(len(keys), np.nan)
            rec, t = rep.angles_from_bd(bd[planar]), thetas[planar]
            gap[planar] = np.minimum(_circle_gaps(rec, t), _circle_gaps(rec, -t))
            return list(zip(keys, gap.tolist()))

        gaps += chunked(seed, (11, n), counts["bd_roundtrip_per_n"], round_trip)
    rt_keys, gap = zip(*gaps)
    generic = np.flatnonzero(np.isnan(gap))
    if generic.size:
        return CheckResult(False, f"sample {rt_keys[generic[0]]}: generic image")

    def push_defects(keys, rngs):
        # the largest commutator norm over the six generator pairs of each row
        thetas = np.stack([rng.uniform(0.0, 2.0 * np.pi, size=4) for rng in rngs])
        gens = np.moveaxis(cover.pushforwards(rep.bd_from_angles(thetas)), 1, 0)
        d = np.stack([qmul(gens[p], gens[q]) - qmul(gens[q], gens[p]) for p in range(4) for q in range(p + 1, 4)])
        return list(zip(keys, quat.norm(d).max(axis=0).tolist()))

    push_keys, defect = zip(*chunked(seed, (12,), counts["bd_push"], push_defects))
    worst_rt, worst_comm = max(gap), max(defect)
    detail = f"round-trip gap {worst_rt:.3e} (n=2..5); pushforward commutator defect {worst_comm:.3e}"
    over = [keys[int(np.argmax(v))] for keys, v in ((rt_keys, gap), (push_keys, defect)) if max(v) > TORUS_TOL]
    if over:
        detail += f"; worst samples {over}"
    return CheckResult(not over, detail)


def check_link_sampler(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """Link samples sit on the unit sphere and the Hessian quadric with
    the gauge fixed; refined samples (n = 3) land on the exact cutout.
    Each sample stack is checked as one stack."""
    worst_unit = 0.0
    worst_quad = 0.0
    real_tagged = 0
    total = 0
    for n, count in ((2, counts["link"] // 4), (3, counts["link"]), (4, counts["link"] // 4)):
        points = morse.sample_link(n, max(count, 1), _rng(seed, 13, n))
        zs = np.stack([pt.zs for pt in points])
        total += len(points)
        sphere, quad = morse.link_defects(n, zs)
        worst_unit = max(worst_unit, float(sphere.max()))
        worst_quad = max(worst_quad, float(quad.max()))
        lead = np.take_along_axis(zs, np.argmax(np.abs(zs), axis=-1)[:, None], axis=-1)
        if np.any((lead.imag != 0.0) | (lead.real < 0.0)):
            return CheckResult(False, f"n={n}: gauge not fixed")
        real_tagged += sum(pt.is_real for pt in points)
    refined = np.stack([pt.zs for pt in morse.sample_link(3, counts["link_refine"], _rng(seed, 14), refine=True)])
    worst_refined = float(np.abs(morse.eval_chart_g(3, refined)).max())
    worst_unit = max(worst_unit, float(morse.link_defects(3, refined)[0].max()))
    ok = (
        worst_unit <= morse.LINK_TOL
        and worst_quad <= morse.LINK_TOL
        and worst_refined <= morse.REFINE_TOL
        and real_tagged <= max(1, total // 1000)
    )
    return CheckResult(
        ok,
        f"sphere defect {worst_unit:.3e}, quadric defect {worst_quad:.3e}, "
        f"refined cutout residual {worst_refined:.3e}, {real_tagged}/{total} real-tagged",
    )


CHECKS: tuple[tuple[str, Callable[[Mapping[str, int], int], CheckResult]], ...] = (
    ("quaternion-algebra", check_quaternion_algebra),
    ("abelian-census", check_abelian_census),
    ("small-k-rigidity", check_small_k_rigidity),
    ("submersion-certificates", check_submersion),
    ("cover-roundtrip", check_cover_roundtrip),
    ("fiber-two-fold", check_fiber_two_fold),
    ("lemma52-branches", check_lemma52_branches),
    ("hessian-exact", check_hessian_exact),
    ("hessian-numeric", check_hessian_numeric),
    ("chart-symmetries", check_chart_symmetries),
    ("bd-torus", check_bd_torus),
    ("link-sampler", check_link_sampler),
)


def run_selftest(counts: Mapping[str, int] | None = None, seed: int = 0) -> tuple[bool, list[str]]:
    """Run every check; returns overall success and one verdict line per
    check.  Lines are deterministic for a fixed seed and counts."""
    counts = dict(REDUCED_COUNTS if counts is None else counts)
    lines = []
    all_ok = True
    for name, fn in CHECKS:
        try:
            result = fn(counts, seed)
        except Exception as exc:  # a crashed check is a failed check
            result = CheckResult(False, f"raised {type(exc).__name__}: {exc}")
        all_ok = all_ok and result.ok
        lines.append(f"{'PASS' if result.ok else 'FAIL'} {name}: {result.detail}")
    return all_ok, lines
