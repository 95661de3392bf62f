"""Unit quaternion arithmetic.

Quaternions are numpy arrays in the order [w, x, y, z] on the last axis, so
``q = w + x i + y j + z k``.  Unit quaternions model SU(2); the real part
``re`` is half the trace of the corresponding SU(2) matrix, and the pure
unit quaternions (re = 0) form the 2-sphere of traceless elements.

All group-element constructors renormalize; chained group products go
through :func:`gprod`, which renormalizes once the accumulated norm drift
exceeds ``RENORM_DRIFT``.

Every operation has one implementation, on (..., 4) stacks; one
quaternion is a stack of one.  Every dot is ``np.vecdot`` and every norm
:func:`norm`, its square root: on 3- and 4-vectors ``vecdot`` calls the
BLAS kernel ``np.dot`` calls, as stacked ``matmul`` does, while a
sequential sum, ``einsum`` and ``np.linalg.norm(..., axis=-1)`` differ
from it in the last bit on a sizeable share of rows.  It imports no other
module of the package; stacked draws are :mod:`charvar.campaign`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL_UNIT = 1e-12
TOL_PURE = 1e-12
RENORM_DRIFT = 1e-14
# a Gaussian draw of norm at most this is rejected and drawn again, after
# the rest of its stack (:func:`random_directions`)
DRAW_CUTOFF = 1e-12

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])
for _q in (ONE, I, J, K):
    _q.flags.writeable = False


def quat(w: float, x: float, y: float, z: float) -> np.ndarray:
    return np.array([w, x, y, z], dtype=float)


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of broadcastable stacks.  |ab| = |a||b|; no
    renormalization happens here (see gprod for group products)."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def re(q: np.ndarray) -> float:
    """Real part; equals half the SU(2) trace.  A scalar on one quaternion."""
    return np.take(q, 0, axis=-1)


def qconj(q: np.ndarray) -> np.ndarray:
    out = np.array(q, dtype=float)
    out[..., 1:] = -out[..., 1:]
    return out


def qinv(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion (= conjugate)."""
    return qconj(q)


def norm(q: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(q, q))


def gprod(*qs: np.ndarray) -> np.ndarray:
    """Product of unit quaternions, renormalized if drift exceeds RENORM_DRIFT.

    Takes the factors as arguments, or one (N, m, 4) stack: then each of
    the N rows is the product of its m factors.  Factors may be (..., 4)
    stacks; each row of the product is renormalized on its own.  Factors
    with two or more leading axes are multiplied as one (-1, 4) stack.
    """
    p = ONE
    if len(qs) == 1 and np.ndim(qs[0]) == 3:
        # N rows of no factors are N identities
        p = np.broadcast_to(ONE, (qs[0].shape[0], 4))
        qs = tuple(np.moveaxis(qs[0], 1, 0))
    shape = None
    if max(map(np.ndim, qs), default=0) > 2:
        shape = np.broadcast(*qs).shape
        qs = tuple(q if q.ndim == 1 else (q if q.shape == shape else np.broadcast_to(q, shape)).reshape(-1, 4) for q in qs)
    for q in qs:
        p = qmul(p, q)
    sq = np.vecdot(p, p)
    drifted = np.abs(sq - 1.0) > RENORM_DRIFT
    out = np.where(drifted[..., None], p / np.sqrt(sq)[..., None], p)
    return out if shape is None else out.reshape(shape)


def conjugate(g: np.ndarray, q: np.ndarray) -> np.ndarray:
    """g q g^-1 for unit g."""
    return qmul(qmul(g, q), qconj(g))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Group commutator a b a^-1 b^-1 of unit quaternions."""
    return gprod(a, b, qconj(a), qconj(b))


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _split_products(a, b, c, d):
    """(p, ep, q, eq) with p = fl(a*b), q = fl(c*d) and ep, eq their rounding
    errors, exact by Dekker splitting: each factor is split into high and
    low halves so the partial products are exact.  Safe for magnitudes far
    from overflow, which unit quaternions are.  Elementwise on arrays."""
    ah = _SPLITTER * a - (_SPLITTER * a - a)
    al = a - ah
    bh = _SPLITTER * b - (_SPLITTER * b - b)
    bl = b - bh
    ch = _SPLITTER * c - (_SPLITTER * c - c)
    cl = c - ch
    dh = _SPLITTER * d - (_SPLITTER * d - d)
    dl = d - dh
    p, q = a * b, c * d
    ep = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    eq = ((ch * dh - q) + ch * dl + cl * dh) + cl * dl
    return p, ep, q, eq


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and the error e with a + b = s + e exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _product_diffs(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """a*b - c*d elementwise, with the rounding error of each product
    compensated: the correctly rounded sum of the split products, which is
    what ``math.fsum`` returns.

    fsum returns S = p + ep - q - eq correctly rounded.  Four error-free
    TwoSum steps give S = r + rho + e + k exactly, with r = fl(s + m) for
    p - q = s + t, ep - eq = h + k and t + h = m + e.  If |rho + e + k| is
    below half the gap from |r| down to the next float, S lies strictly
    inside the reals that round to r, so fsum returns r whatever its tie
    rule.  The float sum of |rho|, |e| and |k| rounds twice; scaling it by
    1 + 2^-50 covers both roundings, and rounding is monotone, so the float
    comparison implies the exact one.  Elements it cannot certify (near a
    rounding tie) and zero results (fsum fixes the sign of a zero) are
    recomputed with fsum.
    """
    p, ep, q, eq = _split_products(a, b, c, d)
    s, t = _two_sum(p, -q)
    h, k = _two_sum(ep, -eq)
    m, e = _two_sum(t, h)
    r, rho = _two_sum(s, m)
    slack = (np.abs(rho) + np.abs(e)) + np.abs(k)
    half_gap = 0.5 * (np.abs(r) - np.nextafter(np.abs(r), 0.0))
    unsure = (r == 0.0) | (slack * (1.0 + 2.0**-50) >= half_gap)
    for idx in zip(*np.nonzero(unsure)):
        r[idx] = math.fsum((p[idx], ep[idx], -q[idx], -eq[idx]))
    return r


# component i of a x b is a[next i] b[prev i] - a[prev i] b[next i], cyclically in 1, 2, 3
_NEXT = np.array([2, 3, 1])
_PREV = np.array([3, 1, 2])


def commutator_defect(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """uv - vu, computed as 2 im(u) x im(v) with compensated products.

    The real parts cancel identically, so the defect is the pure quaternion
    whose vector part is twice the cross product of the imaginary parts.
    Compensation matters when u and v nearly commute: the naive difference
    of products loses all significant digits exactly where downstream code
    normalizes the defect into a direction.  Each component is rounded
    once, as ``math.fsum`` of the split products rounds it.
    """
    out = np.zeros(np.broadcast_shapes(u.shape, v.shape))
    out[..., 1:] = 2.0 * _product_diffs(u[..., _NEXT], v[..., _PREV], u[..., _PREV], v[..., _NEXT])
    return out


def is_pure_unit(q: np.ndarray, tol: float = TOL_PURE) -> bool:
    return (abs(norm(q) - 1.0) <= tol) & (abs(q[..., 0]) <= tol)


def exp_pure(angle, axis: np.ndarray) -> np.ndarray:
    """e^{angle * axis} = cos(angle) + sin(angle) * axis for pure unit axes:
    angles of shape (...) against (..., 4) axes, broadcast."""
    axis = np.asarray(axis, dtype=float)
    if axis.ndim == 0 or axis.shape[-1] != 4:
        raise ValueError(f"axis must be a quaternion of shape (4,), got {axis.shape}")
    if not np.all(is_pure_unit(axis, tol=1e-9)):
        raise ValueError("axis must be a pure unit quaternion")
    angle = np.asarray(angle, dtype=float)
    out = np.sin(angle)[..., None] * axis
    out[..., 0] = np.cos(angle)
    return out


@dataclass(frozen=True)
class AxisAngle:
    """Polar form q = cos(angle) + sin(angle) * axis, angle in [0, pi]."""

    angle: float
    axis: np.ndarray


def axis_angle(q: np.ndarray) -> AxisAngle:
    """Polar decomposition of a unit quaternion or of each of a (..., 4) stack.

    For q within TOL_UNIT of +-1 the axis is conventionally I (the angle
    still carries all the information there).
    """
    v = q[..., 1:]
    s = norm(v)
    angle = np.arctan2(s, q[..., 0])
    central = s <= TOL_UNIT
    axis = np.zeros(q.shape)
    axis[..., 1:] = v / np.where(central, 1.0, s)[..., None]
    axis[central] = I
    return AxisAngle(float(angle) if q.ndim == 1 else angle, axis)


def exp_chart(zs: np.ndarray) -> np.ndarray:
    """Map complex coordinates to pure unit quaternions, one per entry.

    z = x + y i goes to i * e^{x j + y k}.  Each image is traceless exactly:
    i e^{v} has real part -<i, sin(r) v/r> = 0 for v in the span of j, k.
    Takes (..., m) coordinates and returns (..., m, 4); z = 0 goes to
    i * 1 exactly.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    x, y = zs.real, zs.imag
    r = np.hypot(x, y)
    # at r = 0 the factor is [1, 0, +-0, +-0], which i times maps to i exactly
    s = np.sin(r) / np.where(r == 0.0, 1.0, r)
    return qmul(I, np.stack([np.cos(r), np.zeros_like(r), s * x, s * y], axis=-1))


def random_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` uniform unit ``dim``-vectors, (count, dim), drawn as ``count``
    one-row calls draw them: one ``standard_normal((count, dim))``, and a
    row of norm <= DRAW_CUTOFF is dropped and drawn again after the rest."""
    v = rng.standard_normal((count, dim))
    n = norm(v)
    keep = n > DRAW_CUTOFF
    if keep.all():
        return v / n[:, None]
    kept = v[keep] / n[keep, None]
    return np.concatenate([kept, random_directions(rng, count - len(kept), dim)])


def random_pure(rng: np.random.Generator) -> np.ndarray:
    """Uniform point of the traceless unit sphere."""
    out = np.zeros(4)
    out[1:] = random_directions(rng, 1, 3)[0]
    return out


def random_unit(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit quaternion."""
    return random_directions(rng, 1, 4)[0]


def rotation_matrix(g: np.ndarray) -> np.ndarray:
    """The SO(3) matrix by which conjugation by unit g rotates imaginary
    parts; (..., 3, 3) on a (..., 4) stack."""
    w, x, y, z = np.moveaxis(np.asarray(g), -1, 0)
    rows = (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def from_rotation_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion g with rotation_matrix(g) = R, for R in SO(3).

    Shepperd's method: pick the largest of the four squared components to
    divide by, which keeps the reconstruction stable.
    """
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    cands = [t, R[0, 0], R[1, 1], R[2, 2]]
    case = int(np.argmax(cands))
    if case == 0:
        s = np.sqrt(t + 1.0) * 2.0
        g = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif case == 1:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        g = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif case == 2:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        g = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        g = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    return g / np.sqrt(np.dot(g, g))


def perpendicular(a: np.ndarray) -> np.ndarray:
    """A nonzero vector orthogonal to each unit 3-vector of a (..., 3) stack,
    not normalized: a x e1, or a x e2 where a x e1 is near zero."""
    w = np.cross(a, (1.0, 0.0, 0.0))
    return np.where((np.vecdot(w, w) < 1e-12)[..., None], np.cross(a, (0.0, 1.0, 0.0)), w)


def rotor_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unit g with g u g^-1 = v for pure unit quaternions u, v, or for each
    pair of broadcast (..., 4) stacks.

    Rotates about the axis u x v by the angle between them.  Where u = v
    that is 1; where u = -v the axis is ambiguous and the rotation by pi
    about :func:`perpendicular` of u is taken.
    """
    a, b = np.asarray(u, dtype=float)[..., 1:], np.asarray(v, dtype=float)[..., 1:]
    c = np.cross(a, b)
    d = np.vecdot(a, b)
    s = norm(c)
    half = 0.5 * np.arctan2(s, d)
    w = perpendicular(a)
    rotor, flip = np.zeros((2, *np.broadcast_shapes(a.shape, b.shape)[:-1], 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        rotor[..., 1:] = np.sin(half)[..., None] * (c / s[..., None])
        flip[..., 1:] = w / norm(w)[..., None]
    rotor[..., 0] = np.cos(half)
    parallel = (s <= 1e-14)[..., None]
    return np.where(parallel, np.where((d > 0)[..., None], ONE, flip), rotor)
