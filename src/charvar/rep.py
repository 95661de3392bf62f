"""Representations of punctured-sphere and genus-2 surface groups in SU(2).

A representation of the k-punctured sphere group with traceless boundary
holonomy is stored as its tuple of meridian images: k pure unit quaternions
whose ordered product is 1.  A genus-2 surface representation is stored by
the images of the four standard generators r1, s1, r2, s2, subject to
[r1,s1][r2,s2] = 1.

Validation is implemented once, on stacks: :func:`make_reps`,
:func:`complete_reps`, :func:`make_surface_reps`, :func:`bd_from_angles` and
its inverse :func:`angles_from_bd`; :func:`make_rep`, :func:`complete_rep`
and :func:`make_surface_rep` are one-row calls of them (:func:`one_row`).
The sign involution alpha* of even k is ``make_reps(-meridians)``.  A stack raises for its first
rejected row with ``exc.row`` naming it (:func:`raise_first`); a one-row
call raises the same without ``row``.

The fingerprint of a representation collects the real parts (half-traces)
of all words of length at most three in the generators, in a fixed order.
These are conjugation invariants and separate conjugacy classes at the
scales this package works at; the closed-form conjugator in
:mod:`charvar.variety` (an SVD alignment of the meridian directions)
backstops that claim in the test suite.

One kernel computes fingerprints: :func:`fingerprint` runs it on one
representation, :func:`fingerprint_batch` on a stack, whose rows
:func:`fingerprint_digest` hashes.  For each k it caches the two factors of
every pair word, and for every triple word the position of its leading
pair and its last index.  All pair products come from one
stacked :func:`~charvar.quat.qmul`; a triple's half-trace is the real part
of its pair product times its last factor, summed in the order of the
Hamilton product, so every value is the same bits whatever the stack shape.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quat
from .errors import (
    ConstraintViolated,
    NotBinaryDihedral,
    NotTraceless,
    ProductNotIdentity,
    RelationViolated,
)
from .quat import I, K, ONE, gprod, qinv, qmul

TOL_REL = 1e-10
# a meridian or generator whose norm is farther than this from 1 is rejected
UNIT_TOL = 1e-6
FP_TOL = 1e-9
DIGEST_DECIMALS = 9
# the rank cutoff: a singular value at most this times the largest counts as
# zero, here in angles_from_bd and in the ranks of charvar.variety
RANK_TOL_FACTOR = 1e-8
FP_CHUNK = 64

GENERATOR_NAMES = ("r1", "s1", "r2", "s2")


@dataclass(frozen=True)
class PuncturedSphereRep:
    """Meridian images of a k-punctured sphere representation, shape (k, 4)."""

    meridians: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.meridians, dtype=float)
        if m.ndim != 2 or m.shape[1] != 4 or m.shape[0] < 3:
            raise ValueError(f"meridians must have shape (k, 4) with k >= 3, got {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "meridians", m)

    @property
    def k(self) -> int:
        return self.meridians.shape[0]


@dataclass(frozen=True)
class SurfaceRep:
    """Images of the genus-2 generators, each a unit quaternion."""

    r1: np.ndarray
    s1: np.ndarray
    r2: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        for name in GENERATOR_NAMES:
            g = np.asarray(getattr(self, name), dtype=float)
            if g.shape != (4,):
                raise ValueError(f"generator {name} must have shape (4,), got {g.shape}")
            g = g.copy()
            g.flags.writeable = False
            object.__setattr__(self, name, g)

    def generators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.r1, self.s1, self.r2, self.s2)


def raise_first(*checks) -> None:
    """Raise for the first row of a stack that a check rejects, with
    ``exc.row`` naming it.  ``checks`` are (mask, error) pairs in the order
    one sample meets them; ``error(row)`` builds the exception."""
    rejected = np.logical_or.reduce([mask for mask, _ in checks])
    if not rejected.any():
        return
    row = int(np.argmax(rejected))
    exc = next(error for mask, error in checks if mask[row])(row)
    exc.row = row
    raise exc


def one_row(stacked, *args):
    """``stacked(*args)`` on one-row stacks.  A rejection raises without
    ``row``: the caller's one sample is not a row of a stack it can name."""
    try:
        return stacked(*args)
    except (ValueError, ArithmeticError) as exc:
        if hasattr(exc, "row"):
            del exc.row
        raise


def _unit_check(norms: np.ndarray, name) -> tuple:
    """The check that each row of an (N, m) stack of norms is within UNIT_TOL
    of 1; the error names the first element that is not as ``name(index)``."""
    off = np.abs(norms - 1.0) > UNIT_TOL

    def error(row):
        idx = int(np.argmax(off[row]))
        return ValueError(f"{name(idx)} is not a unit quaternion: |q| = {norms[row, idx]:.6f}")

    return off.any(axis=-1), error


def product_residuals(meridians: np.ndarray) -> np.ndarray:
    """|q_1 ... q_k - 1| for each representation in an (N, k, 4) stack."""
    return quat.norm(gprod(meridians) - ONE)


def relation_residuals(generators: np.ndarray) -> np.ndarray:
    """|[r1,s1][r2,s2] - 1| for each quadruple (r1, s1, r2, s2) in an
    (N, 4, 4) stack."""
    r1, s1, r2, s2 = np.moveaxis(generators, -2, 0)
    return quat.norm(gprod(quat.commutator(r1, s1), quat.commutator(r2, s2)) - ONE)


def normalize_reps(meridians: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The renormalized (N, k, 4) stack and the checks of :func:`make_reps`
    as (mask, error) pairs for :func:`raise_first`, in the order a row meets
    them: every meridian a unit, then traceless, then the product 1."""
    m = np.asarray(meridians, dtype=float)
    n = quat.norm(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = m / n[..., None]
        traced = np.abs(m[..., 0]) > TOL_REL
        residual = product_residuals(m)

    def not_traceless(row):
        idx = int(np.argmax(traced[row]))
        return NotTraceless(idx, float(m[row, idx, 0]))

    checks = (
        _unit_check(n, lambda idx: f"meridian {idx}"),
        (traced.any(axis=-1), not_traceless),
        (residual > TOL_REL, lambda row: ProductNotIdentity(float(residual[row]))),
    )
    return m, checks


def make_reps(meridians: np.ndarray) -> np.ndarray:
    """Validating constructor on an (N, k, 4) stack: renormalizes unit norms,
    then checks that every meridian is traceless and each ordered product
    is 1.  Nothing is repaired: the first rejected row raises."""
    m, checks = normalize_reps(meridians)
    raise_first(*checks)
    return m


def make_rep(meridians) -> PuncturedSphereRep:
    """:func:`make_reps` on one (k, 4) tuple of meridians."""
    m = np.array(meridians, dtype=float)
    if m.ndim != 2 or m.shape[1] != 4:
        raise ValueError(f"expected (k, 4) meridian array, got {m.shape}")
    return PuncturedSphereRep(one_row(make_reps, m[None])[0])


def complete_reps(partial: np.ndarray) -> np.ndarray:
    """Append the forced last meridian (q1...q_{k-1})^-1 to each partial tuple
    of an (N, k-1, 4) stack, and validate the (N, k, 4) result as
    :func:`make_reps` does.  Requires |re(q1...q_{k-1})| <= TOL_REL, exactly
    the condition for the appended inverse to be traceless; a row that
    fails it raises ConstraintViolated before any check of make_reps."""
    part = np.asarray(partial, dtype=float)
    p = gprod(part)
    m, checks = normalize_reps(np.concatenate([part, qinv(p)[:, None, :]], axis=1))

    def off_variety(row):
        return ConstraintViolated(f"partial product has re = {p[row, 0]:.3e}, not on the variety")

    raise_first((np.abs(p[:, 0]) > TOL_REL, off_variety), *checks)
    return m


def complete_rep(partial) -> PuncturedSphereRep:
    """:func:`complete_reps` on one partial tuple; an empty one is (0, 4)."""
    part = np.array(partial, dtype=float)
    return PuncturedSphereRep(one_row(complete_reps, part.reshape(1, len(part), 4))[0])


def make_surface_reps(generators: np.ndarray) -> np.ndarray:
    """Validating constructor on an (N, 4, 4) stack of (r1, s1, r2, s2):
    renormalizes unit norms and checks the relation [r1,s1][r2,s2] = 1.
    Returns the renormalized stack; the first rejected row raises."""
    gens = np.asarray(generators, dtype=float)
    n = quat.norm(gens)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = gens / n[..., None]
        residual = relation_residuals(g)
    units = _unit_check(n, lambda idx: f"generator {GENERATOR_NAMES[idx]}")
    raise_first(units, (residual > TOL_REL, lambda row: RelationViolated(float(residual[row]))))
    return g


def make_surface_rep(r1, s1, r2, s2) -> SurfaceRep:
    """:func:`make_surface_reps` on one quadruple of generators."""
    gens = np.stack(SurfaceRep(r1, s1, r2, s2).generators())
    return SurfaceRep(*one_row(make_surface_reps, gens[None])[0])


def conjugate_rep(g: np.ndarray, rep: PuncturedSphereRep) -> PuncturedSphereRep:
    """Apply a global conjugation g . g^-1 to every meridian."""
    return make_rep([quat.conjugate(g, m) for m in rep.meridians])


# ---------------------------------------------------------------------------
# fingerprints


@dataclass(frozen=True)
class Fingerprint:
    """Half-traces of all words of length <= 3, with their labels."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.labels),):
            raise ValueError("labels and values disagree in length")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def distance(self, other: "Fingerprint") -> float:
        if self.labels != other.labels:
            raise ValueError("fingerprints over different word lists are not comparable")
        return float(fingerprint_distances(self.values, other.values))

    def close(self, other: "Fingerprint") -> bool:
        return self.distance(other) <= FP_TOL


def word_indices(k: int) -> list[tuple[int, ...]]:
    """Index words: singles, then pairs i<j, then triples i<j<l, lexicographic."""
    singles = [(i,) for i in range(k)]
    pairs = list(itertools.combinations(range(k), 2))
    triples = list(itertools.combinations(range(k), 3))
    return singles + pairs + triples


@lru_cache(maxsize=None)
def word_labels(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple("*".join(names[i] for i in w) for w in word_indices(len(names)))


@lru_cache(maxsize=None)
def _word_index_arrays(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factors (i, j) of each pair word; leading-pair position and last index
    of each triple word."""
    pairs = list(itertools.combinations(range(k), 2))
    position = {pair: n for n, pair in enumerate(pairs)}
    triples = list(itertools.combinations(range(k), 3))
    arrays = (
        np.array([i for i, _ in pairs], dtype=np.intp),
        np.array([j for _, j in pairs], dtype=np.intp),
        np.array([position[(i, j)] for i, j, _ in triples], dtype=np.intp),
        np.array([l for _, _, l in triples], dtype=np.intp),
    )
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _fingerprint_values(elements: np.ndarray) -> np.ndarray:
    """Half-traces of all words of length <= 3, shape (..., k, 4) -> (..., L),
    in the order of :func:`word_indices`."""
    first, second, lead, last = _word_index_arrays(elements.shape[-2])
    pair = qmul(elements[..., first, :], elements[..., second, :])
    # only the real part of each triple's pair product times its last
    # factor is needed: p0 q0 - p1 q1 - p2 q2 - p3 q3, summed left to right
    # one component at a time, so no (..., triples, 4) array is built
    triple = pair[..., lead, 0] * elements[..., last, 0]
    for c in (1, 2, 3):
        triple -= pair[..., lead, c] * elements[..., last, c]
    return np.concatenate([elements[..., 0], pair[..., 0], triple], axis=-1)


def sphere_names(k: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(k))


def fingerprint(rep: "PuncturedSphereRep | SurfaceRep") -> Fingerprint:
    """Conjugation-invariant coordinates of a representation."""
    if isinstance(rep, SurfaceRep):
        elements = np.stack(rep.generators())
        names = GENERATOR_NAMES
    else:
        elements = rep.meridians
        names = sphere_names(rep.k)
    return Fingerprint(word_labels(names), _fingerprint_values(elements))


def fingerprint_batch(meridians: np.ndarray) -> np.ndarray:
    """Fingerprint values for a stack of representations, shape (N, k, 4) ->
    (N, L).  Same word order and values as :func:`fingerprint`.

    The kernel runs on FP_CHUNK representations at a time, so its
    temporaries (a few times FP_CHUNK x L values) stay small next to the
    N x L result.
    """
    mers = np.asarray(meridians, dtype=float)
    first, _, lead, _ = _word_index_arrays(mers.shape[1])
    out = np.empty((mers.shape[0], mers.shape[1] + first.size + lead.size))
    for start in range(0, mers.shape[0], FP_CHUNK):
        out[start : start + FP_CHUNK] = _fingerprint_values(mers[start : start + FP_CHUNK])
    return out


def fingerprint_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |a - b| over the words, row by row of broadcast (..., L) stacks of
    fingerprint values: the distance of :meth:`Fingerprint.distance`."""
    return np.max(np.abs(a - b), axis=-1)


def fingerprint_digest(values) -> str:
    """Short hex identifier of a row of fingerprint values rounded to
    DIGEST_DECIMALS places.

    A grouping hint, not a class test: the rounding absorbs floating-point
    noise, but a value within noise of a rounding boundary can give two
    conjugate representations different digests.  Decide class equality
    with `Fingerprint.close` or `variety.conjugator_search`.  Adding 0.0
    normalizes negative zeros before hashing.
    """
    vals = np.round(np.asarray(values, dtype=float), DIGEST_DECIMALS) + 0.0
    return hashlib.sha256(vals.tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the binary dihedral torus


def bd_from_angles(thetas: np.ndarray) -> np.ndarray:
    """Binary dihedral representations of an (N, 2n-2) stack of torus angles
    (theta_2, ..., theta_{2n-1}), taken mod 2 pi: the (N, 2n, 4) meridians.

    x_1 = i, x_l = e^{theta_l k} i for 2 <= l <= 2n-1, and the last meridian
    is e^{(n pi - theta_2 + theta_3 - ... + theta_{2n-1}) k} i, which makes
    the product relation hold on the nose.
    """
    t = np.asarray(thetas, dtype=float)
    if t.ndim != 2 or t.shape[1] < 2 or t.shape[1] % 2:
        raise ValueError(f"expected an (N, 2n-2) angle stack with n >= 2, got shape {t.shape}")
    t = np.mod(t, 2.0 * np.pi)
    n = t.shape[1] // 2 + 1
    signs = np.array([(-1.0) ** (idx + 1) for idx in range(2 * n - 2)])
    t = np.concatenate([t, (n * np.pi + np.vecdot(t, signs))[:, None]], axis=1)
    rotors = np.sin(t)[..., None] * K
    rotors[..., 0] = np.cos(t)
    return make_reps(np.concatenate([np.broadcast_to(I, (t.shape[0], 1, 4)), qmul(rotors, I)], axis=1))


def angles_from_bd(meridians: np.ndarray) -> np.ndarray:
    """Torus angles of an (N, k, 4) stack of binary dihedral representations:
    the (N, k - 2) stack (theta_2, ..., theta_{k-1}) mod 2 pi, the inverse of
    :func:`bd_from_angles` up to conjugation.

    Fits the plane spanned by each row's meridian directions, rotates it to
    the i-j plane with x_1 going to i, and reads the angles off.  Each row
    is canonicalized to the lexicographically smaller of (theta, -theta) mod
    2 pi, reflecting the residual conjugation freedom.  A stack of odd k or
    k < 4 raises NotBinaryDihedral, as does the first row whose directions
    span rank 3.
    """
    m = np.asarray(meridians, dtype=float)
    k = m.shape[1]
    if k % 2 != 0 or k < 4:
        raise NotBinaryDihedral(f"binary dihedral locus needs even k >= 4, got k = {k}")
    V = m[..., 1:]
    svals = np.linalg.svd(V, compute_uv=False)
    rank3 = svals[:, 2] > RANK_TOL_FACTOR * svals[:, 0]
    raise_first((rank3, lambda row: NotBinaryDihedral("meridian directions span rank 3, not a planar family")))
    e1 = V[:, 0] / quat.norm(V[:, 0])[:, None]
    resid = V - (V @ e1[..., None]) * e1[:, None]
    _, s, vt = np.linalg.svd(resid, full_matrices=False)
    # abelian rows: the plane is underdetermined, any completion works
    e2 = np.where((s[:, 0] > RANK_TOL_FACTOR * svals[:, 0])[:, None], vt[:, 0], quat.perpendicular(e1))
    e2 = e2 - np.vecdot(e2, e1)[:, None] * e1
    e2 /= quat.norm(e2)[:, None]
    W = V @ np.stack([e1, e2, np.cross(e1, e2)], axis=1).transpose(0, 2, 1)
    cand = np.mod(np.arctan2(W[:, 1 : k - 1, 1], W[:, 1 : k - 1, 0]), 2.0 * np.pi)
    mirrored = np.mod(-cand, 2.0 * np.pi)
    # the lexicographically smaller: the first angle where the two differ
    # decides, and equal rows keep cand
    first = np.argmax(cand != mirrored, axis=1)[:, None]
    mirror = np.take_along_axis(mirrored < cand, first, axis=1)
    return np.mod(np.where(mirror, mirrored, cand), 2.0 * np.pi)


# ---------------------------------------------------------------------------
# serialization


def surface_to_json(generators: np.ndarray) -> dict:
    """The JSON record of one (4, 4) array of generators (r1, s1, r2, s2)."""
    return {"kind": "surface", "generators": dict(zip(GENERATOR_NAMES, np.asarray(generators, dtype=float).tolist()))}
