"""Named verification checks over the whole library.

Each check certifies one structural statement (census counts, the cover
round trip, Hessian combinatorics, ...) at a configurable sample count.
The CLI selftest runs all of them at reduced counts; the acceptance test
suite runs the same functions at full counts.  All randomness is drawn
from generators keyed by (seed, check id, sample index) through
:mod:`charvar.campaign`, so output is reproducible byte for byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import campaign, cover, morse, quat, rep, variety
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


def _verdict(detail: str, over: list) -> CheckResult:
    """Passes when ``over``, the keys of the worst samples of the bounds
    they break, is empty; a failure names them after ``detail``."""
    return CheckResult(not over, detail + (f"; worst samples {over}" if over else ""))


ALGEBRA_TOL = 1e-12


def check_quaternion_algebra(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """Group algebra on random units: associativity, norms, conjugation,
    the rotation homomorphism, and the axis-angle round trip."""
    def draw(keys, rngs):
        return campaign.random_draws(rngs, [("directions", 3, 4)])

    count = counts["algebra"]
    a, b, c = np.moveaxis(np.concatenate(campaign.chunked(seed, (1,), count, draw)), 1, 0)
    ab = qmul(a, b)
    aa = quat.axis_angle(a)
    deviations = [
        quat.norm(qmul(ab, c) - qmul(a, qmul(b, c))),
        abs(quat.norm(ab) - 1.0),
        quat.norm(qconj(ab) - qmul(qconj(b), qconj(a))),
        np.abs(quat.rotation_matrix(ab) - quat.rotation_matrix(a) @ quat.rotation_matrix(b)),
        quat.norm(exp_pure(aa.angle, aa.axis) - a),
    ]
    per_triple = np.max([d.reshape(count, -1).max(axis=1) for d in deviations], axis=0)
    worst = float(per_triple.max())
    over = [(seed, 1, int(np.argmax(per_triple)))] if worst > ALGEBRA_TOL else []
    return _verdict(f"max algebraic deviation {worst:.3e} over {count} triples", over)


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
        values = rep.fingerprint_batch(variety.sample_points(3, rngs))
        return list(zip(keys, rep.fingerprint_distances(values, ref).tolist()))

    keys, spread = zip(*campaign.chunked(seed, (2,), counts["k3"], spreads))
    worst = max([0.0, *spread])
    if worst > RIGIDITY_TOL:
        return _verdict(f"k=3 fingerprint spread {worst:.3e}", [keys[np.argmax(spread)]])

    def loci(keys, rngs):
        ranks = variety.locus_ranks(variety.sample_points(4, rngs)).tolist()
        return [(key, LOCUS_NAMES[rank]) for key, rank in zip(keys, ranks)]

    keys, names = zip(*campaign.chunked(seed, (3,), counts["k4"], loci))
    tally = Counter(names)
    bad = set(tally) - {ABELIAN, BINARY_DIHEDRAL}
    detail = f"k=3 spread {worst:.3e}; k=4 loci " + " ".join(f"{name}:{tally[name]}" for name in sorted(tally))
    if bad:
        first = next(key for key, name in zip(keys, names) if name in bad)
        return CheckResult(False, f"k=4 produced loci {sorted(bad)} (first sample {first}); " + detail)
    return CheckResult(True, detail)


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
    rows = []
    for first, k in enumerate(ks):

        def certify(keys, rngs, k=k):
            # sample i has k = ks[i % 3] and draws from (seed, 4, i, retry),
            # retry counting up from 0 while its draw is abelian; keys[j]
            # ends up the key that drew row j, which names it if rejected
            meridians = variety.sample_points(k, rngs)
            redraw = np.flatnonzero(variety.locus_ranks(meridians) <= 1)
            while redraw.size:
                for j in redraw.tolist():
                    keys[j] = (*keys[j][:3], keys[j][3] + 1)
                meridians[redraw] = variety.sample_points(k, campaign.keyed_rngs([keys[j] for j in redraw]))
                redraw = redraw[variety.locus_ranks(meridians[redraw]) <= 1]
            parts = meridians[:, :-1]
            cert = variety.submersion_certificates(parts)
            fd = (
                gprod(variety.deform(parts, cert, SUBMERSION_STEP))[:, 0]
                - gprod(variety.deform(parts, cert, -SUBMERSION_STEP))[:, 0]
            ) / (2.0 * SUBMERSION_STEP)
            measured = (np.abs(cert.derivative), np.abs(fd - cert.derivative), cert.jacobian_rank)
            return list(zip(keys, *(v.tolist() for v in (*measured, variety.conjugation_ranks(parts)))))

        rows += campaign.run(((seed, 4, i, 0) for i in range(first, count, len(ks))), certify)
    drawn, *columns = zip(*sorted(rows, key=lambda row: row[0][2]))
    deriv, fd_err, jac, conj = map(np.array, columns)
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
    return _verdict(detail, over)


def check_cover_roundtrip(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """pushforward(extend(s, sign)) returns s generator-wise, both signs."""
    records = cover.roundtrip_records(seed, (5,), counts["roundtrip"])
    worst_record = max(records, key=lambda r: max(r["residuals"].values()))
    worst = max(worst_record["residuals"].values())
    over = [(seed, 5, worst_record["index"])] if worst > cover.ROUNDTRIP_TOL else []
    return _verdict(f"max generator residual {worst:.3e} over {counts['roundtrip']}x2 lifts", over)


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

    keys, on_branch, match = zip(*campaign.chunked(seed, (6,), counts["fiber_generic"], generic))
    bad = np.flatnonzero(np.array(on_branch) | (np.array(match) > cover.FIBER_TOL))
    if bad.size:
        i = bad[0]
        why = "1 class(es)" if on_branch[i] else f"fiber mismatch {match[i]:.3e}"
        return CheckResult(False, f"generic sample {keys[i]}: {why}")

    def dihedral(keys, rngs):
        (thetas,) = campaign.random_draws(rngs, [("uniform", 4, 0.0, 2.0 * np.pi)])
        sheets, _, _, on_branch = cover.fibers(cover.pushforwards(rep.bd_from_angles(thetas)))
        generic = np.take(LOCUS_NAMES, variety.locus_ranks(sheets[:, 0])) == GENERIC
        return list(zip(keys, on_branch.tolist(), generic.tolist()))

    keys, on_branch, generic = zip(*campaign.chunked(seed, (7,), counts["fiber_bd"], dihedral))
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


def check_lemma52_branches(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """Residuals of the case-ladder solver stay below cover.LEMMA_TOL on
    valid inputs, constructed inputs land on their rung, and every rung
    of the ladder is exercised."""
    min_needed = counts["lemma_per_branch"]
    records = cover.ladder_records(seed, ((8,), (9,)), counts["lemma_generic"], min_needed)
    failures = cover.ladder_failures(records, seed, min_needed)
    worst = max(r["max_residual"] for r in records)
    detail = "; ".join([f"max residual {worst:.3e}", f"branch coverage {cover.ladder_coverage(records)}", *failures])
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
    third order.  A failure names the key (seed, 10, n, i) of the worst
    sample of each bound it breaks."""
    # the worst conjugation, orbit and cubic defects, and their keys
    worst = [(-np.inf, None)] * 3
    steps = (1e-1, 1e-2, 1e-3)
    count = counts["symm_per_n"]
    for n in range(2, counts["symm_n_max"] + 1):
        m = 2 * n - 2

        def draw(keys, rngs, m=m):
            # the real and imaginary parts of m coordinates, then an orbit angle
            x, y, theta = campaign.random_draws(rngs, [("normal", m), ("normal", m), ("uniform", 1, 0.0, 2.0 * np.pi)])
            return [(0.5 * (x + 1j * y), theta)]

        zs, thetas = map(np.concatenate, zip(*campaign.chunked(seed, (10, n), count, draw)))
        # the first 20 samples on the unit sphere (np.linalg.norm of a
        # complex vector, row by row), scaled by each step
        z = zs[:20]
        u = z / np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]
        stack = np.concatenate([zs, morse.tau(zs), morse.s1_orbit(zs, thetas), *(t * u for t in steps)])
        val, conj, orbit, *scaled = np.split(morse.eval_chart_g(n, stack), np.cumsum([count] * 3 + [len(u)] * 2))
        qu = morse.quadratic_form(n, u)
        cubic = np.max([np.abs(g - t * t * qu) / t**3 for t, g in zip(steps, scaled)], axis=0)
        for b, defect in enumerate((np.abs(conj + val), np.abs(orbit - val), cubic)):
            i = int(np.argmax(defect))
            if defect[i] > worst[b][0]:
                worst[b] = (float(defect[i]), (seed, 10, n, i))
    (worst_tau, _), (worst_orbit, _), (worst_cubic, _) = worst
    bounds = (SYMMETRY_TOL, SYMMETRY_TOL, CUBIC_BOUND)
    return _verdict(
        f"conjugation defect {worst_tau:.3e}, orbit defect {worst_orbit:.3e}, "
        f"cubic remainder coefficient {worst_cubic:.2f} <= {CUBIC_BOUND:g}",
        [key for (value, key), bound in zip(worst, bounds) if value > bound],
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
            (thetas,) = campaign.random_draws(rngs, [("uniform", 2 * n - 2, 0.0, 2.0 * np.pi)])
            bd = rep.bd_from_angles(thetas)
            planar = variety.locus_ranks(bd) < 3
            gap = np.full(len(keys), np.nan)
            rec, t = rep.angles_from_bd(bd[planar]), thetas[planar]
            gap[planar] = np.minimum(_circle_gaps(rec, t), _circle_gaps(rec, -t))
            return list(zip(keys, gap.tolist()))

        gaps += campaign.chunked(seed, (11, n), counts["bd_roundtrip_per_n"], round_trip)
    rt_keys, gap = zip(*gaps)
    generic = np.flatnonzero(np.isnan(gap))
    if generic.size:
        return CheckResult(False, f"sample {rt_keys[generic[0]]}: generic image")

    def push_defects(keys, rngs):
        # the largest commutator norm over the six generator pairs of each row
        (thetas,) = campaign.random_draws(rngs, [("uniform", 4, 0.0, 2.0 * np.pi)])
        gens = np.moveaxis(cover.pushforwards(rep.bd_from_angles(thetas)), 1, 0)
        d = np.stack([qmul(gens[p], gens[q]) - qmul(gens[q], gens[p]) for p in range(4) for q in range(p + 1, 4)])
        return list(zip(keys, quat.norm(d).max(axis=0).tolist()))

    push_keys, defect = zip(*campaign.chunked(seed, (12,), counts["bd_push"], push_defects))
    worst_rt, worst_comm = max(gap), max(defect)
    detail = f"round-trip gap {worst_rt:.3e} (n=2..5); pushforward commutator defect {worst_comm:.3e}"
    over = [keys[int(np.argmax(v))] for keys, v in ((rt_keys, gap), (push_keys, defect)) if max(v) > TORUS_TOL]
    return _verdict(detail, over)


def check_link_sampler(counts: Mapping[str, int], seed: int = 0) -> CheckResult:
    """Link samples sit on the unit sphere and the Hessian quadric with
    the gauge fixed; refined samples (n = 3) land on the exact cutout.
    Each sample stack is checked as one stack, and at most one point in a
    thousand, or one, is real-tagged.  A failure names the key of its
    stack, (seed, 13, n) or (seed, 14) for the refined one, and the index
    of the point: point i replays with ``count = i + 1``.  Too many
    real-tagged points are named by the first of them, enough to break the
    bound alone."""
    # the worst sphere, quadric and refined-cutout defects, each with the
    # (stack key, point index) that drew it
    worst = [(-np.inf, None)] * 3

    def note(bound, key, defect):
        i = int(np.argmax(defect))
        if defect[i] > worst[bound][0]:
            worst[bound] = (float(defect[i]), (key, i))

    # the (stack key, point index) of each real-tagged point
    real_tagged = []
    total = 0
    for n, count in ((2, counts["link"] // 4), (3, counts["link"]), (4, counts["link"] // 4)):
        key = (seed, 13, n)
        zs = morse.link_samples(n, max(count, 1), np.random.default_rng(key))
        total += len(zs)
        for bound, defect in enumerate(morse.link_defects(n, zs)):
            note(bound, key, defect)
        lead = np.take_along_axis(zs, np.argmax(np.abs(zs), axis=-1)[:, None], axis=-1)[:, 0]
        loose = np.flatnonzero((lead.imag != 0.0) | (lead.real < 0.0))
        if loose.size:
            return _verdict(f"n={n}: gauge not fixed", [(key, int(loose[0]))])
        real_tagged += [(key, i) for i in np.flatnonzero(np.all(zs.imag == 0.0, axis=-1)).tolist()]
    key = (seed, 14)
    refined = morse.link_samples(3, counts["link_refine"], np.random.default_rng(key), refine=True)
    note(2, key, np.abs(morse.eval_chart_g(3, refined)))
    note(0, key, morse.link_defects(3, refined)[0])
    (worst_unit, _), (worst_quad, _), (worst_refined, _) = worst
    bounds = (morse.LINK_TOL, morse.LINK_TOL, morse.REFINE_TOL)
    over = [at for (value, at), bound in zip(worst, bounds) if value > bound]
    detail = (
        f"sphere defect {worst_unit:.3e}, quadric defect {worst_quad:.3e}, "
        f"refined cutout residual {worst_refined:.3e}, {len(real_tagged)}/{total} real-tagged"
    )
    # at most this many real-tagged points; the first limit + 1 break it
    limit = max(1, total // 1000)
    if len(real_tagged) > limit:
        detail += f" > {limit}"
        over += real_tagged[: limit + 1]
    return _verdict(detail, over)


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
