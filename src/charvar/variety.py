"""Sampling and local structure of the traceless character variety.

The variety for k punctures is f^{-1}(0) / conjugation, where
f(q_1, ..., q_{k-1}) = re(q_1 ... q_{k-1}) on the product of k-1 traceless
unit spheres; the last meridian is the inverse of the product.  This module
samples f^{-1}(0) exactly, classifies points into the abelian, binary
dihedral, and generic loci by the rank of the meridian directions, and
produces explicit submersion certificates away from the abelian points.
The sampler and the certificate layer are implemented once, on stacks;
:func:`sample_point`, :func:`submersion_certificate` and
:func:`local_dimension` are one-row calls of their stacked forms.
Stacked forms return arrays; LOCUS_NAMES names the locus of each rank of
:func:`locus_ranks`, and only :func:`classify_locus` builds a LocusLabel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import campaign, quat
from .errors import AbelianInput, ConstraintViolated
from .quat import I, J, K, axis_angle, gprod, qmul
from .rep import RANK_TOL_FACTOR, PuncturedSphereRep, TOL_REL, complete_reps, one_row, raise_first

CONJUGATOR_TOL = 1e-7
# the sampler takes w = q_1 ... q_{k-2} as central (+-1) when |im w| is at
# most this
CENTRAL_CUTOFF = 1e-12

ABELIAN = "abelian"
BINARY_DIHEDRAL = "binary_dihedral"
GENERIC = "generic"
# the locus of each rank of the meridian directions, 0 to 3
LOCUS_NAMES = (ABELIAN, ABELIAN, BINARY_DIHEDRAL, GENERIC)


@dataclass(frozen=True)
class LocusLabel:
    label: str
    rank: int


@dataclass(frozen=True)
class SubmersionCertificate:
    """Witness that f is a submersion at a non-abelian point.

    ``pair_index`` is the 0-based position l with q_l not proportional to
    q_{l+1}; ``moved`` is the coordinate carried along the great circle
    toward ``axis``; the derivative of f along that circle is -sin(alpha)
    where the relevant cyclic product is e^{alpha axis}.
    """

    pair_index: int
    moved: int
    axis: np.ndarray
    derivative: float
    jacobian_rank: int


def _real_part(p: np.ndarray):
    """re of a product: a float on one quaternion, an array on a stack."""
    return float(p[0]) if p.ndim == 1 else p[..., 0]


def eval_f(partial):
    """re of the ordered product of the first k-1 meridians, on one
    (k-1, 4) tuple or on each row of a (..., k-1, 4) stack."""
    return _real_part(gprod(*np.moveaxis(np.asarray(partial, dtype=float), -2, 0)))


def eval_g(partial):
    """re(i q_2 ... q_{2n-1}): the cut-down constraint with x_1 = i fixed,
    on one (2n-2, 4) tuple or on each row of a (..., 2n-2, 4) stack."""
    return _real_part(gprod(I, *np.moveaxis(np.asarray(partial, dtype=float), -2, 0)))


def _orthonormal_pair(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors u and axis x u orthogonal to each unit 3-vector of a
    stack: u is axis x e_c, normalized, for the coordinate c of smallest
    |axis_c|."""
    u = np.cross(axis, np.eye(3)[np.argmin(np.abs(axis), axis=-1)])
    u /= quat.norm(u)[..., None]
    return u, np.cross(axis, u)


def sample_points(k: int, rngs) -> np.ndarray:
    """Draw a point of f^{-1}(0) exactly from each generator of ``rngs``: one
    (N, k, 4) stack of meridians.

    q_1 ... q_{k-2} are uniform on the traceless sphere.  Writing w for their
    product, the two conditions on q_{k-1} (traceless, and w q_{k-1} traceless)
    cut out the great circle orthogonal to im(w), which is sampled uniformly;
    when w = +-1 the constraint is vacuous and the whole sphere is used.

    A row draws what one-row calls draw in turn: its ``k - 2`` directions in
    one :func:`quat.random_directions` call, then the angle or, when w is
    central, one more direction.  ``rngs`` is a :class:`campaign.Streams`,
    such as :func:`campaign.keyed_rngs`, or distinct generators of any bit
    generator; :func:`campaign.random_draws` draws the directions and the
    angle of every row, and a row with a central w is drawn again from its
    start state.  A list's generators are left where one-row calls leave
    them, and a row is the same bits in any stack (see :mod:`charvar.quat`
    on dot products).
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got k = {k}")
    streams = campaign.Streams.of(rngs)
    directions, phi = campaign.random_draws(streams, [("directions", k - 2, 3), ("uniform", 1, 0.0, 2.0 * np.pi)])
    qs = np.zeros((len(streams), k - 1, 4))
    qs[:, : k - 2, 1:] = directions
    phi = phi[:, 0]
    w = gprod(qs[:, : k - 2])
    for row in np.flatnonzero(quat.norm(w[:, 1:]) <= CENTRAL_CUTOFF).tolist():
        # the row's directions again, only to advance its generator past them
        rng = streams.generator(row)
        quat.random_directions(rng, k - 2, 3)
        qs[row, k - 2] = quat.random_pure(rng)
    wv = w[:, 1:]
    nw = quat.norm(wv)
    turning = nw > CENTRAL_CUTOFF
    u, v = _orthonormal_pair(wv[turning] / nw[turning, None])
    qs[turning, k - 2, 1:] = np.cos(phi[turning])[:, None] * u + np.sin(phi[turning])[:, None] * v
    return complete_reps(qs)


def sample_point(k: int, rng: np.random.Generator) -> PuncturedSphereRep:
    """:func:`sample_points` for one generator."""
    return PuncturedSphereRep(one_row(sample_points, k, [rng])[0])


def locus_ranks(meridians: np.ndarray) -> np.ndarray:
    """Rank of the 3 x k matrix of meridian directions, for one (k, 4) tuple
    or each tuple of a (..., k, 4) stack: singular values above
    RANK_TOL_FACTOR times the largest."""
    svals = np.linalg.svd(np.asarray(meridians)[..., 1:], compute_uv=False)
    return np.sum(svals > RANK_TOL_FACTOR * svals[..., :1], axis=-1)


def classify_locus(rep: PuncturedSphereRep) -> LocusLabel:
    """Locus of a point by the rank of the 3 x k matrix of meridian directions:
    rank <= 1 abelian, rank 2 binary dihedral, rank 3 generic."""
    rank = int(locus_ranks(rep.meridians))
    return LocusLabel(LOCUS_NAMES[rank], rank)


def _df_ranks(parts: np.ndarray) -> np.ndarray:
    """Rank (0 or 1) of df at each row of an (N, m, 4) stack, from its
    analytic gradient over the tangent directions of each sphere factor.

    The tangent space at q is spanned by q V for pure V orthogonal to q; the
    derivative along it is re(prefix * qV * suffix).
    """
    n, m = parts.shape[:2]
    pre, suf = np.empty((2, n, m + 1, 4))
    pre[:, 0] = suf[:, m] = quat.ONE
    for a in range(m):
        pre[:, a + 1] = qmul(pre[:, a], parts[:, a])
        suf[:, m - 1 - a] = qmul(parts[:, m - 1 - a], suf[:, m - a])
    V = np.zeros((n, m, 2, 4))
    V[..., 1:] = np.stack(_orthonormal_pair(parts[..., 1:]), axis=-2)
    grads = qmul(qmul(pre[:, :m, None], qmul(parts[:, :, None], V)), suf[:, 1:, None])[..., 0]
    return (np.max(np.abs(grads), axis=(1, 2)) > RANK_TOL_FACTOR).astype(int)


def submersion_certificates(parts) -> SubmersionCertificate:
    """Explicit first-order certificates that f submerses at the non-abelian
    tuples of an (N, m, 4) stack: one certificate whose fields hold a row each.

    Picks adjacent non-proportional coordinates q_l, q_{l+1}, forms the cyclic
    complement x, and deforms whichever of q_{l+1}, q_l pairs with the factor
    (x q_l or q_{l+1} x) farther from +-1.  The deformation is the great circle
    from the moved coordinate toward the axis, which stays on the sphere because
    the two are orthogonal on the constraint set.
    """
    parts = np.asarray(parts, dtype=float)
    n, m = parts.shape[:2]
    raise_first((np.full(n, m < 2), lambda row: ValueError("need at least two meridians to certify")))
    seps = np.minimum(quat.norm(parts[:, :-1] - parts[:, 1:]), quat.norm(parts[:, :-1] + parts[:, 1:]))
    p = np.argmax(seps, axis=1)
    rows = np.arange(n)
    x = gprod(parts[rows[:, None], (p[:, None] + 2 + np.arange(m - 2)) % m])
    u1 = qmul(x, parts[rows, p])
    u2 = qmul(parts[rows, p + 1], x)
    s1, s2 = quat.norm(u1[:, 1:]), quat.norm(u2[:, 1:])
    central = np.maximum(s1, s2) <= 1e-12
    raise_first(
        (seps[rows, p] <= 1e-9, lambda row: AbelianInput("all meridians proportional: f is not a submersion here")),
        (central, lambda row: ConstraintViolated("both cyclic factors are central, certificate degenerates")),
    )
    first = s1 >= s2
    aa = axis_angle(np.where(first[:, None], u1, u2))
    return SubmersionCertificate(
        pair_index=p,
        moved=np.where(first, p + 1, p),
        axis=aa.axis,
        derivative=-np.sin(aa.angle),
        jacobian_rank=_df_ranks(parts),
    )


def submersion_certificate(partial) -> SubmersionCertificate:
    """:func:`submersion_certificates` on one tuple: its row of each field."""
    stack = one_row(submersion_certificates, [partial])
    return SubmersionCertificate(*(v[0] if v.ndim > 1 else v[0].item() for v in vars(stack).values()))


def deform(partial, cert: SubmersionCertificate, t: float) -> np.ndarray:
    """The certificate's deformation path at parameter t; on an (N, m, 4)
    stack with stacked certificates, each row along its own path."""
    part = np.asarray(partial, dtype=float)
    moving = np.arange(part.shape[-2])[:, None] == np.asarray(cert.moved)[..., None, None]
    return np.where(moving, np.cos(t) * part + np.sin(t) * cert.axis[..., None, :], part)


def conjugation_ranks(parts) -> np.ndarray:
    """Rank of the infinitesimal conjugation action on each tuple of an
    (N, m, 4) stack: rows are the brackets [u, q_a] over u in {i, j, k}.
    3 exactly when the action is locally free (non-abelian tuple)."""
    parts = np.asarray(parts, dtype=float)
    u = np.stack([I, J, K])[:, None]
    brackets = qmul(u, parts[:, None]) - qmul(parts[:, None], u)
    svals = np.linalg.svd(brackets[..., 1:].reshape(len(parts), 3, 3 * parts.shape[1]), compute_uv=False)
    return np.sum(svals > RANK_TOL_FACTOR * svals[:, :1], axis=-1)


def local_dimensions(meridians) -> np.ndarray:
    """dim at each non-abelian class of an (N, k, 4) stack: ambient 2(k-1),
    minus the rank of df (1), minus the rank of the conjugation action (3).
    Both ranks are measured, not assumed."""
    abelian = locus_ranks(meridians) <= 1
    raise_first((abelian, lambda row: AbelianInput("local dimension is undefined at abelian points")))
    parts = np.asarray(meridians, dtype=float)[:, :-1]
    return 2 * parts.shape[1] - _df_ranks(parts) - conjugation_ranks(parts)


def local_dimension(rep: PuncturedSphereRep) -> int:
    """:func:`local_dimensions` at one point."""
    return int(one_row(local_dimensions, rep.meridians[None])[0])


def sign_transport(partial, signs) -> np.ndarray:
    """Flip meridian signs on a tuple in g^{-1}(0), or on each tuple of a
    (..., m, 4) stack by its row of a (..., m) sign stack; the image stays in
    g^{-1}(0) since the constraint changes only by the product of the signs.
    The first tuple off g^{-1}(0) raises ConstraintViolated, with ``row``
    its flat index on a stack."""
    part = np.asarray(partial, dtype=float)
    sg = np.asarray(signs, dtype=float)
    if sg.shape != part.shape[:-1] or not np.all(np.abs(sg) == 1.0):
        raise ValueError("signs must be +-1, one per meridian")
    off = (np.abs(eval_g(part)) > TOL_REL).reshape(-1)
    check = (off, lambda row: ConstraintViolated("input tuple is not in g^{-1}(0)"))
    if part.ndim == 2:
        one_row(raise_first, check)
    else:
        raise_first(check)
    return part * sg[..., None]


def enumerate_abelian(k: int) -> np.ndarray:
    """All abelian classes for even k, one (2^(k-2), k, 4) stack: sign vectors
    on (i, ..., i) with the first sign +1 and the last meridian forced by the
    product, bit b of the row index flipping the sign of meridian b + 2."""
    if k % 2 != 0:
        raise ValueError(f"abelian points exist only for even k, got k = {k}")
    bits = np.arange(2 ** (k - 2))[:, None] >> np.arange(k - 2)
    signs = np.concatenate([np.ones((bits.shape[0], 1)), np.where(bits & 1, -1.0, 1.0)], axis=1)
    return complete_reps(signs[..., None] * I)


# ---------------------------------------------------------------------------
# conjugator search


def conjugator_search(a: PuncturedSphereRep, b: PuncturedSphereRep) -> np.ndarray | None:
    """Find g with g a_i g^-1 = b_i for all meridians, or None.

    Conjugation by g rotates pure parts by R = rotation_matrix(g), so the
    best R is the orthogonal Procrustes solution (Kabsch 1976, Horn 1987):
    with U S V^T the SVD of sum_i a_i b_i^T, R = V diag(1, 1, d) U^T, where
    d = det(U V^T) = +-1 keeps R a rotation.  On abelian and binary dihedral
    tuples the SVD is not unique, but d then acts on a null singular
    direction and R is still exact.  Returns g if the worst meridian
    residual is at most CONJUGATOR_TOL, else None.
    """
    if a.k != b.k:
        raise ValueError("representations have different numbers of punctures")
    U, _, Vt = np.linalg.svd(a.meridians[:, 1:].T @ b.meridians[:, 1:])
    d = np.sign(np.linalg.det(U @ Vt))
    g = quat.from_rotation_matrix(Vt.T @ np.diag([1.0, 1.0, d]) @ U.T)
    diff = quat.conjugate(g, a.meridians) - b.meridians
    return g if np.sqrt(np.vecdot(diff, diff)).max() <= CONJUGATOR_TOL else None
