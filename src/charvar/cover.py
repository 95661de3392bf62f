"""The 2-fold branched cover from the 6-punctured sphere variety to the
genus-2 surface variety.

Pushforward evaluates the surface generators as words in the meridians,
r1 = x1 x2, s1 = x3^-1 x2^-1, r2 = x4 x5, s2 = x6^-1 x5^-1, under the
central character that is +1 on r_i, s_i and -1 on every meridian; with
that convention the explicit section below inverts it exactly.  The
section reconstructs the meridians from a solution x of a six-condition
tracelessness system (the case-ladder solver), and the two choices of
sign for x give the two sheets.

Every operation has a stacked form for campaigns: :func:`surface_samples`,
:func:`pushforwards`, :func:`section_inputs` on a generator stack,
:func:`lemma52_stack`, :func:`lifts`, :func:`roundtrip_residuals` and
:func:`fibers`.  Each row is bit for bit what the one-sample function
gives: both run the same word expressions through the kernels of
:mod:`charvar.quat`, which give the same bits whatever the stack shape.
A row the stacked validation rejects raises the exception the one-sample
function raises on it (see :func:`charvar.rep.raise_first_rejected`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    qinv,
    qmul,
    random_pure,
    random_unit,
    rotor_between,
)
from .rep import (
    Fingerprint,
    PuncturedSphereRep,
    SurfaceRep,
    TOL_REL,
    fingerprint,
    fingerprint_batch,
    make_rep,
    make_surface_rep,
    make_surface_reps,
    normalize_reps,
    raise_first_rejected,
    sphere_names,
    word_labels,
)
from .variety import sample_point, sample_points

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
    commutator_norms: np.ndarray = field(repr=False)


def _norms(q: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(q, q))


def _surface_words(x1, x2, x3, x4, x5, x6) -> tuple[np.ndarray, ...]:
    """The generator words (r1, s1, r2, s2) in the meridians."""
    return qmul(x1, x2), qmul(qinv(x3), qinv(x2)), qmul(x4, x5), qmul(qinv(x6), qinv(x5))


def pushforward(rep: PuncturedSphereRep) -> SurfaceRep:
    """Image of a 6-punctured sphere class under the branched cover."""
    if rep.k != 6:
        raise ValueError(f"the cover is defined for k = 6, got k = {rep.k}")
    return make_surface_rep(*_surface_words(*rep.meridians))


def pushforwards(meridians: np.ndarray) -> np.ndarray:
    """:func:`pushforward` on an (N, 6, 4) stack of meridians: the (N, 4, 4)
    stack of generators (r1, s1, r2, s2), validated as make_surface_rep
    validates them."""
    m = np.asarray(meridians, dtype=float)
    if m.ndim != 3 or m.shape[1:] != (6, 4):
        raise ValueError(f"the cover is defined for (N, 6, 4) meridian stacks, got {m.shape}")
    return make_surface_reps(np.stack(_surface_words(*np.moveaxis(m, 1, 0)), axis=1))


def surface_samples(rngs) -> np.ndarray:
    """:func:`surface_sample` for each of the distinct generators ``rngs``, as
    one (N, 4, 4) stack of generators."""
    return pushforwards(sample_points(6, rngs))


def _lemma52_residuals(x, a, b, c, d) -> np.ndarray:
    w = gprod(a, b, c, d)
    parts = [x[..., 0], *(qmul(x, v)[..., 0] for v in (a, b, c, d, qinv(w)))]
    return np.abs(np.array(parts).T)


def _ladder_pairs(a, b, c, d) -> tuple:
    """The ordered pairs the case ladder tries on rungs 1 to 6."""
    return ((a, b), (b, c), (c, d), (d, a), (a, c), (b, d))


def lemma52_detailed(a, b, c, d) -> Lemma52Solution:
    """Case-ladder solver for the six tracelessness conditions.

    Given units with abcd = dcba, produces a pure unit x with re(x),
    re(xa), re(xb), re(xc), re(xd), re(x(abcd)^-1) all zero.  The ladder
    tries the ordered pairs (a,b), (b,c), (c,d), (d,a), (a,c), (b,d): the
    first with commutator defect |uv - vu| > COMM_TOL yields
    x = (uv - vu)/|uv - vu|.  If all commute, the inputs share an axis Q
    and x is a fixed pure unit orthogonal to Q.
    """
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    defect = float(np.linalg.norm(gprod(a, b, c, d) - gprod(d, c, b, a)))
    if defect > TOL_REL:
        raise ConstraintViolated(f"abcd and dcba differ by {defect:.3e} > {TOL_REL:.1e}")
    norms = np.empty(6)
    for idx, (u, v) in enumerate(_ladder_pairs(a, b, c, d)):
        w = commutator_defect(u, v)
        norms[idx] = np.linalg.norm(w)
        if norms[idx] > COMM_TOL:
            x = w / norms[idx]
            return Lemma52Solution(x, idx + 1, _lemma52_residuals(x, a, b, c, d), norms)
    # All pairs commute: the inputs lie in a common one-parameter subgroup
    # {e^{theta Q}}.  Recover Q from the first input whose angle is bounded
    # away from 0 and pi, then take the image of j under any rotation
    # carrying i to Q; if Q is within 1e-6 of +-i, take j itself.
    axis = None
    for g in (a, b, c, d):
        aa = axis_angle(g)
        if min(aa.angle, np.pi - aa.angle) >= 1e-6:
            axis = aa.axis
            break
    if axis is None or min(np.linalg.norm(axis - I), np.linalg.norm(axis + I)) <= 1e-6:
        x = J.copy()
    else:
        x = conjugate(rotor_between(I, axis), J)
    return Lemma52Solution(x, 7, _lemma52_residuals(x, a, b, c, d), norms)


def lemma52_solve(a, b, c, d) -> np.ndarray:
    return lemma52_detailed(a, b, c, d).x


def _ladder(a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The case ladder on (N, 4) stacks: x, the rung, and the rows whose
    inputs lemma52_detailed rejects.  Each pair's defect is computed on the
    rows no earlier pair solved; rows that reach rung 7 take x from the
    scalar solver."""
    rejected = _norms(gprod(a, b, c, d) - gprod(d, c, b, a)) > TOL_REL
    x = np.zeros(a.shape)
    rung = np.full(a.shape[0], 7)
    for idx, (u, v) in enumerate(_ladder_pairs(a, b, c, d)):
        rows = np.flatnonzero(rung == 7)
        if rows.size == 0:
            break
        w = commutator_defect(u[rows], v[rows])
        norms = _norms(w)
        hit = norms > COMM_TOL
        x[rows[hit]] = w[hit] / norms[hit, None]
        rung[rows[hit]] = idx + 1
    for row in np.flatnonzero((rung == 7) & ~rejected):
        x[row] = lemma52_detailed(a[row], b[row], c[row], d[row]).x
    return x, rung, rejected


def lemma52_stack(a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`lemma52_detailed` on (N, 4) stacks of inputs: x (N, 4), the rung
    (N,) and the residuals (N, 6), each row bit for bit the scalar
    solution's."""
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    x, rung, rejected = _ladder(a, b, c, d)
    raise_first_rejected(rejected, lambda row: lemma52_detailed(a[row], b[row], c[row], d[row]))
    return x, rung, _lemma52_residuals(x, a, b, c, d)


def _coset_point(theta: float) -> np.ndarray:
    return qmul(exp_pure(theta, K), I)


def lemma_branch_inputs(branch: int, rng: np.random.Generator):
    """Deterministic input families that land on each rung of the case
    ladder.  Branches 5 and 6 need commutator defects straddling the
    commutation cutoff, realized by binary dihedral quadruples with angle
    gaps eps and 2*eps around it; both satisfy abcd = dcba exactly.  The
    dihedral quadruples stay in the i,j coordinate plane: the structural
    zeros keep the tiny defect pointing exactly along k, which a random
    conjugation would smear by roundoff/defect ~ 1e-8."""
    eps = 3.7e-9
    if branch == 2:
        b, c = random_unit(rng), random_unit(rng)
        return ONE, b, c, b
    if branch == 3:
        u = random_pure(rng)
        alpha, beta = rng.uniform(0.2, 1.2, size=2)
        gamma = np.pi - alpha - beta
        return exp_pure(alpha, u), exp_pure(beta, u), exp_pure(gamma, u), random_unit(rng)
    if branch == 4:
        u = random_pure(rng)
        c = exp_pure(rng.uniform(0.2, 1.2), u)
        return random_unit(rng), ONE, c, qinv(c)
    if branch in (5, 6):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        if branch == 5:
            gaps = (0.0, -eps, -2.0 * eps, -eps)
        else:
            gaps = (0.0, eps, 0.0, -eps)
        return tuple(_coset_point(theta + d) for d in gaps)
    if branch == 7:
        u = random_pure(rng)
        return tuple(exp_pure(t, u) for t in rng.uniform(0.0, 2.0 * np.pi, size=4))
    raise ValueError(f"no constructed family for branch {branch}")


def section_inputs(surface):
    """The five words (a, b, c, d, e) fed to the case-ladder solver by the
    section; they satisfy e^-1 = abcd = dcba whenever the surface relation
    holds.  On an (N, 4, 4) stack of generators (r1, s1, r2, s2) each word
    is an (N, 4) stack."""
    if isinstance(surface, SurfaceRep):
        r1, s1, r2, s2 = surface.generators()
    else:
        r1, s1, r2, s2 = np.moveaxis(surface, -2, 0)
    a = r1
    b = qmul(qinv(s1), qinv(r1))
    c = qmul(s2, s1)
    d = gprod(qinv(s1), r2, qinv(s2))
    e = qmul(qinv(r2), s1)
    return a, b, c, d, e


def _section_residual(a, b, c, d, e) -> np.ndarray:
    """How far e^-1 = abcd = dcba fails."""
    einv = qinv(e)
    return np.maximum(_norms(einv - gprod(a, b, c, d)), _norms(einv - gprod(d, c, b, a)))


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


def extend(surface: SurfaceRep, sign: int = 1) -> PuncturedSphereRep:
    """The explicit section of the cover on the sheet chosen by ``sign``.

    Solves for the first meridian x1 = sign * x via the case ladder, then
    reads the rest off the generator words: x2 = x1^-1 r1 and so on.  Each
    word contains one factor of x1, so the two sheets differ by negating
    every meridian, and the pushforward of the result telescopes back to
    the input exactly.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    a, b, c, d, e = section_inputs(surface)
    res = float(_section_residual(a, b, c, d, e))
    if res > TOL_REL:
        raise RelationViolated(res)
    x1 = float(sign) * lemma52_solve(a, b, c, d)
    return make_rep(_meridian_words(x1, *surface.generators()))


def lifts(generators: np.ndarray) -> np.ndarray:
    """:func:`extend` on both sheets of an (N, 4, 4) stack of generators: the
    (N, 2, 6, 4) meridians of extend(surface, 1) and extend(surface, -1).
    The ladder runs once; the sheets differ in the sign of x1.  A row that
    extend rejects on either sheet raises extend's exception."""
    g = np.asarray(generators, dtype=float)
    a, b, c, d, e = section_inputs(g)
    x, _, rejected = _ladder(a, b, c, d)
    rejected |= _section_residual(a, b, c, d, e) > TOL_REL
    sheets = []
    for sign in (1, -1):
        m, bad = normalize_reps(np.stack(_meridian_words(float(sign) * x, *np.moveaxis(g, 1, 0)), axis=1))
        sheets.append(m)
        rejected |= bad
    raise_first_rejected(rejected, lambda row: [extend(SurfaceRep(*g[row]), sign) for sign in (1, -1)])
    return np.stack(sheets, axis=1)


def roundtrip_residual(surface: SurfaceRep, sign: int) -> float:
    """Largest generator-wise distance between ``surface`` and
    pushforward(extend(surface, sign)); zero up to roundoff."""
    back = pushforward(extend(surface, sign))
    return max(
        float(np.linalg.norm(g1 - g2)) for g1, g2 in zip(surface.generators(), back.generators())
    )


def roundtrip_residuals(generators: np.ndarray) -> np.ndarray:
    """:func:`roundtrip_residual` on an (N, 4, 4) stack of generators: (N, 2),
    the sheets of sign +1 and -1 in that order."""
    g = np.asarray(generators, dtype=float)
    sheets = lifts(g)
    back = np.stack([pushforwards(sheets[:, sheet]) for sheet in (0, 1)], axis=1)
    return _norms(g[:, None] - back).max(axis=-1)


def fiber(surface: SurfaceRep) -> FiberReport:
    """Both sheets over a surface class, merged when they are conjugate.

    The sheets coincide exactly over classes with abelian image, where the
    single preimage is binary dihedral; elsewhere the two fingerprints are
    macroscopically separated.
    """
    plus = extend(surface, 1)
    minus = extend(surface, -1)
    fp_plus = fingerprint(plus)
    fp_minus = fingerprint(minus)
    sep = fp_plus.distance(fp_minus)
    on_branch = sep <= FIBER_TOL
    classes = (fp_plus,) if on_branch else (fp_plus, fp_minus)
    return FiberReport(classes=classes, on_branch=on_branch, witnesses=(plus, minus), separation=sep)


def fibers(generators: np.ndarray) -> list[FiberReport]:
    """:func:`fiber` over each surface of an (N, 4, 4) stack of generators."""
    sheets = lifts(generators)
    plus, minus = (fingerprint_batch(sheets[:, sheet]) for sheet in (0, 1))
    separation = np.max(np.abs(plus - minus), axis=1)
    labels = word_labels(sphere_names(6))
    reports = []
    for row, sep in enumerate(separation.tolist()):
        on_branch = sep <= FIBER_TOL
        classes = (Fingerprint(labels, plus[row]),)
        if not on_branch:
            classes += (Fingerprint(labels, minus[row]),)
        witnesses = (PuncturedSphereRep(sheets[row, 0]), PuncturedSphereRep(sheets[row, 1]))
        reports.append(FiberReport(classes=classes, on_branch=on_branch, witnesses=witnesses, separation=sep))
    return reports


def surface_sample(rng: np.random.Generator) -> SurfaceRep:
    """Sample the surface variety through the cover, which is onto."""
    return pushforward(sample_point(6, rng))


def fiber_to_json(report: FiberReport) -> dict:
    return {
        "on_branch": bool(report.on_branch),
        "class_count": len(report.classes),
        "separation": float(report.separation),
        "fingerprints": [
            {"labels": list(fp.labels), "values": [float(v) for v in fp.values]}
            for fp in report.classes
        ],
        "witnesses": [
            [[float(c) for c in q] for q in w.meridians] for w in report.witnesses
        ],
    }
