"""The 2-fold branched cover from the 6-punctured sphere variety to the
genus-2 surface variety.

Pushforward evaluates the surface generators as words in the meridians,
r1 = x1 x2, s1 = x3^-1 x2^-1, r2 = x4 x5, s2 = x6^-1 x5^-1, under the
central character that is +1 on r_i, s_i and -1 on every meridian; with
that convention the explicit section below inverts it exactly.  The
section reconstructs the meridians from a solution x of a six-condition
tracelessness system (the case-ladder solver), and the two choices of
sign for x give the two sheets.

Every operation is implemented once, on stacks of samples:
:func:`pushforwards`, :func:`surface_samples`, :func:`section_inputs`,
:func:`lemma_branch_inputs`, :func:`lemma52_stack`, :func:`lifts`,
:func:`roundtrip_residuals` and :func:`fibers`.  The one-sample functions :func:`pushforward`,
:func:`lemma52_detailed`, :func:`extend` and :func:`fiber` are one-row
calls of them; the stacked forms return arrays,
and only :func:`fiber` builds a :class:`FiberReport`.  A row is independent
of the others in its stack: the kernels of :mod:`charvar.quat` give the
same bits whatever the stack shape.  A stack with a rejected row raises for
the first such row, with the exception's ``row`` naming it; a one-sample
function raises the same exception without ``row``.  The keyed campaigns
of the round trip and the case ladder, which the CLI and the selftest both
run, are here too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import campaign
from .errors import ConstraintViolated, RelationViolated
from .quat import (
    I,
    J,
    K,
    ONE,
    axis_angle,
    commutator_defect,
    conjugate,
    exp_pure,
    gprod,
    norm,
    qinv,
    qmul,
    rotor_between,
)
from .rep import (
    Fingerprint,
    PuncturedSphereRep,
    SurfaceRep,
    TOL_REL,
    fingerprint_batch,
    fingerprint_distances,
    make_surface_reps,
    normalize_reps,
    one_row,
    raise_first,
    sphere_names,
    word_labels,
)
from .variety import sample_points

COMM_TOL = 1e-8
LEMMA_TOL = 1e-10
ROUNDTRIP_TOL = 1e-9
FIBER_TOL = 1e-6


@dataclass(frozen=True)
class FiberReport:
    """Both preimages of a surface class, deduplicated up to conjugacy."""

    classes: tuple[Fingerprint, ...]
    on_branch: bool
    witnesses: tuple[PuncturedSphereRep, PuncturedSphereRep]
    separation: float


@dataclass(frozen=True)
class Lemma52Solution:
    x: np.ndarray
    branch: int
    residuals: np.ndarray


def _surface_words(x1, x2, x3, x4, x5, x6) -> tuple[np.ndarray, ...]:
    """The generator words (r1, s1, r2, s2) in the meridians."""
    return qmul(x1, x2), qmul(qinv(x3), qinv(x2)), qmul(x4, x5), qmul(qinv(x6), qinv(x5))


def pushforwards(meridians: np.ndarray) -> np.ndarray:
    """Image of an (N, 6, 4) stack of meridians under the branched cover: the
    (N, 4, 4) stack of generators (r1, s1, r2, s2), validated by
    make_surface_reps."""
    m = np.asarray(meridians, dtype=float)
    if m.ndim != 3 or m.shape[1:] != (6, 4):
        raise ValueError(f"the cover is defined for (N, 6, 4) meridian stacks, got {m.shape}")
    return make_surface_reps(np.stack(_surface_words(*np.moveaxis(m, 1, 0)), axis=1))


def pushforward(rep: PuncturedSphereRep) -> SurfaceRep:
    """Image of a 6-punctured sphere class under the branched cover."""
    if rep.k != 6:
        raise ValueError(f"the cover is defined for k = 6, got k = {rep.k}")
    return SurfaceRep(*one_row(pushforwards, rep.meridians[None])[0])


def surface_samples(rngs) -> np.ndarray:
    """Sample the surface variety through the cover, which is onto: one
    (N, 4, 4) stack of generators, a row per distinct generator in ``rngs``."""
    return pushforwards(sample_points(6, rngs))


def _lemma52_residuals(x, a, b, c, d, abcd) -> np.ndarray:
    parts = [x[..., 0], *(qmul(x, v)[..., 0] for v in (a, b, c, d, qinv(abcd)))]
    return np.abs(np.array(parts).T)


def _ladder_pairs(a, b, c, d) -> tuple:
    """The ordered pairs the case ladder tries on rungs 1 to 6."""
    return ((a, b), (b, c), (c, d), (d, a), (a, c), (b, d))


def _common_axes(a, b, c, d) -> np.ndarray:
    """x on rung 7, for (N, 4) stacks where all pairs commute: each row's
    inputs lie in a common one-parameter subgroup {e^{theta Q}}.  Recover Q
    from the first input whose angle is bounded away from 0 and pi, then
    take the image of j under the rotation carrying i to Q; where Q is
    within 1e-6 of +-i, or every input is within 1e-6 of +-1, take j."""
    aa = axis_angle(np.stack([a, b, c, d], axis=1))
    away = np.minimum(aa.angle, np.pi - aa.angle) >= 1e-6
    axis = np.take_along_axis(aa.axis, np.argmax(away, axis=1)[:, None, None], axis=1)[:, 0]
    near_i = np.minimum(norm(axis - I), norm(axis + I)) <= 1e-6
    return np.where((near_i | ~away.any(axis=1))[:, None], J, conjugate(rotor_between(I, axis), J))


def _ladder(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """The case ladder on (N, 4) stacks: x and the rung.  Each pair's
    commutator defect is computed on the rows no earlier pair solved."""
    x = np.zeros(a.shape)
    rung = np.full(a.shape[0], 7)
    for idx, (u, v) in enumerate(_ladder_pairs(a, b, c, d)):
        rows = np.flatnonzero(rung == 7)
        if rows.size == 0:
            break
        w = commutator_defect(u[rows], v[rows])
        norms = norm(w)
        hit = norms > COMM_TOL
        x[rows[hit]] = w[hit] / norms[hit, None]
        rung[rows[hit]] = idx + 1
    seven = np.flatnonzero(rung == 7)
    if seven.size:
        x[seven] = _common_axes(a[seven], b[seven], c[seven], d[seven])
    return x, rung


def _defect_check(abcd: np.ndarray, dcba: np.ndarray) -> tuple:
    """The ladder's input check: abcd = dcba within TOL_REL."""
    defect = norm(abcd - dcba)
    return defect > TOL_REL, lambda row: ConstraintViolated(
        f"abcd and dcba differ by {defect[row]:.3e} > {TOL_REL:.1e}"
    )


def lemma52_stack(a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Case-ladder solver for the six tracelessness conditions on (N, 4)
    stacks of inputs: x (N, 4), the rung (N,) and the residuals (N, 6).

    Given units with abcd = dcba, produces a pure unit x with re(x),
    re(xa), re(xb), re(xc), re(xd), re(x(abcd)^-1) all zero.  The ladder
    tries the ordered pairs (a,b), (b,c), (c,d), (d,a), (a,c), (b,d): the
    first with commutator defect |uv - vu| > COMM_TOL yields
    x = (uv - vu)/|uv - vu|.  If all commute, the inputs share an axis Q
    and x is a fixed pure unit orthogonal to Q (rung 7).  A row with
    abcd != dcba raises ConstraintViolated.
    """
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    abcd = gprod(a, b, c, d)
    x, rung = _ladder(a, b, c, d)
    raise_first(_defect_check(abcd, gprod(d, c, b, a)))
    return x, rung, _lemma52_residuals(x, a, b, c, d, abcd)


def lemma52_detailed(a, b, c, d) -> Lemma52Solution:
    """:func:`lemma52_stack` on one quadruple of units."""
    x, rung, residuals = one_row(lemma52_stack, *(np.asarray(v, dtype=float)[None] for v in (a, b, c, d)))
    return Lemma52Solution(x[0], int(rung[0]), residuals[0])


def _coset_point(theta) -> np.ndarray:
    return qmul(exp_pure(theta, K), I)


# the draws of a row of each constructed family, in order (campaign.random_draws)
_PURE, _UNIT = ("directions", 1, 3), ("directions", 1, 4)
_BRANCH_DRAWS = {
    2: (_UNIT, _UNIT),
    3: (_PURE, ("uniform", 2, 0.2, 1.2), _UNIT),
    4: (_PURE, ("uniform", 1, 0.2, 1.2), _UNIT),
    5: (("uniform", 1, 0.0, 2.0 * np.pi),),
    6: (("uniform", 1, 0.0, 2.0 * np.pi),),
    7: (_PURE, ("uniform", 4, 0.0, 2.0 * np.pi)),
}
# the most raw outputs a row decodes its draws from
_BRANCH_OUTPUTS = max(map(campaign.raw_outputs, _BRANCH_DRAWS.values()))


def _pure(directions: np.ndarray) -> np.ndarray:
    """The pure quaternions of an (N, 1, 3) stack of directions."""
    out = np.zeros((len(directions), 4))
    out[:, 1:] = directions[:, 0]
    return out


def _branch_family(branch: int, draws: list[np.ndarray]) -> tuple:
    """(a, b, c, d) of a constructed family, (N, 4) stacks or ONE, from the
    stacks of its rows' draws."""
    eps = 3.7e-9
    if branch == 2:
        b, c = (v[:, 0] for v in draws)
        return ONE, b, c, b
    if branch == 3:
        u, (alpha, beta), d = _pure(draws[0]), draws[1].T, draws[2][:, 0]
        gamma = np.pi - alpha - beta
        return (*np.moveaxis(exp_pure(np.stack([alpha, beta, gamma], axis=1), u[:, None]), 1, 0), d)
    if branch == 4:
        u, theta, a = _pure(draws[0]), draws[1][:, 0], draws[2][:, 0]
        c = exp_pure(theta, u)
        return a, ONE, c, qinv(c)
    if branch in (5, 6):
        gaps = (0.0, -eps, -2.0 * eps, -eps) if branch == 5 else (0.0, eps, 0.0, -eps)
        return tuple(np.moveaxis(_coset_point(draws[0] + np.array(gaps)), 1, 0))
    # branch 7: four angles about one axis
    return tuple(np.moveaxis(exp_pure(draws[1], _pure(draws[0])[:, None]), 1, 0))


def lemma_branch_inputs(branches, rngs) -> np.ndarray:
    """Deterministic input families that land on each rung of the case
    ladder: the (4, N, 4) stack of (a, b, c, d), row i constructed for
    rung ``branches[i]`` from ``rngs[i]``, a :class:`campaign.Streams` or
    distinct generators.  Branches 5 and 6 need commutator defects
    straddling the commutation cutoff, realized by binary dihedral
    quadruples with angle gaps eps and 2*eps around it; both satisfy abcd =
    dcba exactly.  The dihedral quadruples stay in the i,j coordinate
    plane: the structural zeros keep the tiny defect pointing exactly along
    k, which a random conjugation would smear by roundoff/defect ~ 1e-8.

    Each family's rows are one stack of :func:`campaign.random_draws`;
    keyed rows of every family decode from one draw of their streams,
    handed to it as ``out``.  A row draws what the one-row calls draw in
    turn: random_pure for u, random_unit for a unit, ``rng.uniform`` for
    its angles."""
    streams = campaign.Streams.of(rngs)
    branches = np.asarray(branches)
    out = None if streams.state is None else streams.draw(_BRANCH_OUTPUTS)
    quads = np.empty((4, len(streams), 4))
    for branch in sorted(set(branches.tolist())):
        if branch not in _BRANCH_DRAWS:
            raise ValueError(f"no constructed family for branch {branch}")
        rows = np.flatnonzero(branches == branch)
        draws = campaign.random_draws(streams[rows], _BRANCH_DRAWS[branch], None if out is None else out[rows])
        for slot, value in enumerate(_branch_family(branch, draws)):
            quads[slot, rows] = value
    return quads


def section_inputs(generators: np.ndarray):
    """The five words (a, b, c, d, e) fed to the case-ladder solver by the
    section, from a (..., 4, 4) stack of generators (r1, s1, r2, s2); each
    word is a (..., 4) stack.  They satisfy e^-1 = abcd = dcba whenever the
    surface relation holds."""
    r1, s1, r2, s2 = np.moveaxis(generators, -2, 0)
    a = r1
    b = qmul(qinv(s1), qinv(r1))
    c = qmul(s2, s1)
    d = gprod(qinv(s1), r2, qinv(s2))
    e = qmul(qinv(r2), s1)
    return a, b, c, d, e


def _meridian_words(x1, r1, s1, r2, s2) -> list[np.ndarray]:
    """The six meridians the section reads off the generator words, given
    x1: x2 = x1^-1 r1 and so on."""
    return [
        x1,
        qmul(qinv(x1), r1),
        gprod(qinv(r1), x1, qinv(s1)),
        gprod(s1, qinv(x1), s2),
        gprod(qinv(s2), x1, qinv(s1), r2),
        gprod(qinv(r2), s1, qinv(x1)),
    ]


def lifts(generators: np.ndarray) -> np.ndarray:
    """The explicit section of the cover on both sheets of an (N, 4, 4) stack
    of generators: the (N, 2, 6, 4) meridians of the sheets of sign +1 and
    -1, in that order.

    Solves for the first meridian x1 = sign * x via the case ladder, then
    reads the rest off the generator words: x2 = x1^-1 r1 and so on.  Each
    word contains one factor of x1, so the two sheets differ by negating
    every meridian, and the pushforward of the result telescopes back to
    the input exactly.  A row is checked for the section relation
    (RelationViolated), the ladder's input (ConstraintViolated) and then
    each sheet as make_reps checks it; the first rejected row raises.
    """
    g = np.asarray(generators, dtype=float)
    a, b, c, d, e = section_inputs(g)
    abcd, dcba, einv = gprod(a, b, c, d), gprod(d, c, b, a), qinv(e)
    # how far e^-1 = abcd = dcba fails
    residual = np.maximum(norm(einv - abcd), norm(einv - dcba))
    x, _ = _ladder(a, b, c, d)
    words = [np.stack(_meridian_words(float(sign) * x, *np.moveaxis(g, 1, 0)), axis=1) for sign in (1, -1)]
    sheets, checks = zip(*(normalize_reps(w) for w in words))
    raise_first(
        (residual > TOL_REL, lambda row: RelationViolated(float(residual[row]))),
        _defect_check(abcd, dcba),
        *checks[0],
        *checks[1],
    )
    return np.stack(sheets, axis=1)


def extend(surface: SurfaceRep, sign: int = 1) -> PuncturedSphereRep:
    """The sheet of sign ``sign`` of :func:`lifts` over one surface class."""
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    return PuncturedSphereRep(one_row(lifts, np.stack(surface.generators())[None])[0, (1 - sign) // 2])


def roundtrip_residuals(generators: np.ndarray) -> np.ndarray:
    """Largest generator-wise distance between each surface of an (N, 4, 4)
    stack and the pushforward of its lift, zero up to roundoff: (N, 2), the
    sheets of sign +1 and -1 in that order."""
    g = np.asarray(generators, dtype=float)
    sheets = lifts(g)
    back = np.stack([pushforwards(sheets[:, sheet]) for sheet in (0, 1)], axis=1)
    return norm(g[:, None] - back).max(axis=-1)


def fibers(generators: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both sheets over each surface of an (N, 4, 4) stack of generators: the
    (N, 2, 6, 4) sheets of :func:`lifts`, their (N, 2, L) fingerprint values,
    the (N,) separation of the two, and the (N,) mask ``on_branch`` where it
    is at most FIBER_TOL and the sheets are one class.

    The sheets coincide exactly over classes with abelian image, where the
    single preimage is binary dihedral; elsewhere the two fingerprints are
    macroscopically separated.
    """
    sheets = lifts(generators)
    values = np.stack([fingerprint_batch(sheets[:, sheet]) for sheet in (0, 1)], axis=1)
    separation = fingerprint_distances(values[:, 0], values[:, 1])
    return sheets, values, separation, separation <= FIBER_TOL


def fiber(surface: SurfaceRep) -> FiberReport:
    """:func:`fibers` over one surface class: one class on the branch locus,
    two elsewhere."""
    sheets, values, separation, on_branch = (v[0] for v in one_row(fibers, np.stack(surface.generators())[None]))
    labels = word_labels(sphere_names(6))
    classes = tuple(Fingerprint(labels, v) for v in values[: 1 if on_branch else 2])
    return FiberReport(classes, bool(on_branch), tuple(map(PuncturedSphereRep, sheets)), float(separation))


def fiber_records(sheets, values, separation, on_branch) -> list[dict]:
    """The JSON record of each row of :func:`fibers`: its fingerprints, one
    per class, and both sheets as witnesses."""
    labels = list(word_labels(sphere_names(6)))
    return [
        {
            "on_branch": branch,
            "class_count": 1 if branch else 2,
            "separation": sep,
            "fingerprints": [{"labels": labels, "values": v} for v in vals[: 1 if branch else 2]],
            "witnesses": witnesses,
        }
        for witnesses, vals, sep, branch in zip(*(v.tolist() for v in (sheets, values, separation, on_branch)))
    ]


def roundtrip_records(seed: int, path: tuple[int, ...], count: int) -> list[dict]:
    """Round-trip residuals of `count` surface samples, both signs; sample
    i draws from the generator keyed by (seed, *path, i)."""

    def records(keys, rngs):
        residuals = roundtrip_residuals(surface_samples(rngs)).tolist()
        return [
            {"index": key[-1], "seed": seed, "residuals": {"plus": plus, "minus": minus}}
            for key, (plus, minus) in zip(keys, residuals)
        ]

    return campaign.chunked(seed, path, count, records)


def ladder_records(seed: int, paths: tuple[tuple[int, ...], ...], count: int, per_branch: int) -> list[dict]:
    """Case-ladder solutions: `count` generic section inputs, sample i drawn
    from (seed, *paths[0], i), then `per_branch` inputs constructed for
    each rung b = 2..7, input i drawn from (seed, *paths[1], b, i).  The
    families share stacks, one :func:`lemma52_stack` call each, and a
    stack's constructed rows are one :func:`lemma_branch_inputs` call."""
    generic = (seed, *paths[0])

    def records(keys, rngs):
        # the generic rows lead the campaign, so they lead every stack
        n = sum(key[:-1] == generic for key in keys)
        quads = np.empty((4, len(keys), 4))
        if n:
            quads[:, :n] = section_inputs(surface_samples(rngs[:n]))[:4]
        if n < len(keys):
            quads[:, n:] = lemma_branch_inputs([key[-2] for key in keys[n:]], rngs[n:])
        _, rung, residuals = lemma52_stack(*quads)
        return [
            {"family": "generic" if row < n else f"branch{key[-2]}", "index": key[-1], "branch": b, "max_residual": r}
            for row, (key, b, r) in enumerate(zip(keys, rung.tolist(), residuals.max(axis=1).tolist()))
        ]

    families = [(paths[0], count)] + [((*paths[1], b), per_branch) for b in range(2, 8)]
    return campaign.run(((seed, *path, i) for path, n in families for i in range(n)), records)


def ladder_coverage(records: list[dict]) -> str:
    """How many records each rung 1..7 solved, as `1:n1 2:n2 ...`."""
    tally = Counter(r["branch"] for r in records)
    return " ".join(f"{b}:{tally[b]}" for b in range(1, 8))


def ladder_failures(records: list[dict], seed: int, min_needed: int) -> list[str]:
    """Why case-ladder records fail, empty if they pass: constructed inputs
    solved on another rung, residuals over LEMMA_TOL, and rungs solved
    fewer than `min_needed` times.  Records are named by (seed, family,
    index)."""
    named = [(seed, r["family"], r["index"], r["branch"]) for r in records]
    wrong = [w for w in named if w[1] not in ("generic", f"branch{w[3]}")]
    over = [(seed, r["family"], r["index"]) for r in records if r["max_residual"] > LEMMA_TOL]
    tally = Counter(r["branch"] for r in records)
    missing = [b for b in range(1, 8) if tally[b] < min_needed]
    failures = []
    if wrong:
        failures.append(f"constructed inputs solved on another rung, (seed, family, index, rung): {wrong}")
    if over:
        failures.append(f"failing (seed, family, index) over {LEMMA_TOL:g}: {over}")
    if missing:
        failures.append(f"branches below {min_needed}: {missing}")
    return failures
