"""Local analysis at the abelian singular points of the even-k varieties.

Around the abelian point (i, ..., i) with k = 2n the variety is cut out,
in an equivariant complex chart z on the remaining 2n-2 meridians, by a
single real function g(z) = re(i * prod_l i e^{x_l j + y_l k}) with
z_l = x_l + i y_l.  Its Hessian at 0 is the block pairing of an exact
integer antisymmetric matrix A; certifying det(A) odd (and signature
zero) certifies the cone-on-(S^{2n-3} x S^{2n-3})/S^1 local model.  The
integer work here is exact (arbitrary precision); the finite-difference
and sampling routines provide the numeric cross-checks.  The chart
function is evaluated on stacks of points: the Hessian stencil is one
stack, and the refinement runs one Newton loop over a stack of points,
each step one stack of the points still moving and their stencils.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np

from . import quat
from .quat import exp_chart, norm
from .rep import one_row, raise_first
from .variety import eval_g

FD_STEP = 1e-4
FD_TOL = 1e-6
LINK_TOL = 1e-12
REFINE_TOL = 1e-10
# refine_chart_zero stops at this residual or after REFINE_STEPS Newton steps
REFINE_TARGET = 1e-12
REFINE_STEPS = 60
# the largest n the command line takes and the hessian-exact check certifies
N_MAX = 12


@dataclass(frozen=True)
class HessianReport:
    """Exact and numeric certification data for one value of n.

    The numeric fields are None until ``certify_hessian_numeric`` fills
    them.  ``fd_max_error`` compares the finite-difference Hessian, with
    derivative coordinates ordered (y_1..y_m, x_1..x_m), against
    (-1)^(n-1) [[0, A], [A^T, 0]]; in the opposite (x, y) ordering the
    same data matches the block matrix with sign (-1)^n.
    """

    n: int
    A: np.ndarray
    det_A: int
    pfaffian: int
    b_squared_identity_mod2: bool
    eig_positive: int | None = None
    eig_negative: int | None = None
    fd_max_error: float | None = None
    step: float | None = None
    link: str | None = None
    quotient_link: str | None = None
    bd_sublink: str | None = None

    def exact_ok(self) -> bool:
        return (
            self.det_A % 2 != 0
            and self.b_squared_identity_mod2
            and self.pfaffian**2 == self.det_A
        )

    def numeric_ok(self) -> bool:
        if self.fd_max_error is None or self.eig_positive is None:
            return False
        m = 2 * self.n - 2
        return self.fd_max_error <= FD_TOL and self.eig_positive == m and self.eig_negative == m


@dataclass(frozen=True)
class LinkPoint:
    zs: np.ndarray
    is_real: bool


def eval_chart_g(n: int, zs):
    """g(z) = re(i * prod_l (i e^{x_l j + y_l k})), the chart cutout function:
    a float on one point, an array on a (..., 2n-2) stack of points."""
    z = np.asarray(zs, dtype=complex)
    if n < 2 or z.ndim == 0 or z.shape[-1] != 2 * n - 2:
        raise ValueError(f"expected 2n-2 = {2 * n - 2} coordinates for n = {n}")
    return eval_g(exp_chart(z))


def s1_orbit(zs, theta: float) -> np.ndarray:
    """The weight-2 circle action z -> e^{2 i theta} z; g is constant along it."""
    return np.asarray(zs, dtype=complex) * np.exp(2j * theta)


def tau(zs) -> np.ndarray:
    """Coordinate-wise conjugation; g is anti-symmetric under it and the
    fixed set is the binary dihedral slice."""
    return np.conj(np.asarray(zs, dtype=complex))


@lru_cache(maxsize=None)
def matrix_A(n: int) -> np.ndarray:
    """The exact pairing matrix: zero diagonal, (-1)^(i+j) above it, and
    (-1)^(i+j+1) below (1-based indices); antisymmetric by construction.
    One read-only array per n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n = {n}")
    idx = np.arange(2 * n - 2)
    A = np.sign(idx - idx[:, None]) * (-1) ** np.add.outer(idx, idx)
    A.flags.writeable = False
    return A


def bareiss_determinant(matrix) -> int:
    """Exact integer determinant by fraction-free elimination."""
    M = [[int(x) for x in row] for row in np.asarray(matrix)]
    size = len(M)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(size - 1):
        if M[i][i] == 0:
            pivot = next((r for r in range(i + 1, size) if M[r][i] != 0), None)
            if pivot is None:
                return 0
            M[i], M[pivot] = M[pivot], M[i]
            sign = -sign
        for j in range(i + 1, size):
            for l in range(i + 1, size):
                M[j][l] = (M[j][l] * M[i][i] - M[j][i] * M[i][l]) // prev
            M[j][i] = 0
        prev = M[i][i]
    return sign * M[size - 1][size - 1]


def pfaffian_exact(matrix) -> int:
    """Exact Pfaffian of an antisymmetric integer matrix by fraction-free
    skew elimination on Python ints, in the style of bareiss_determinant.

    Each step eliminates a row pair with pivot a and divides by the
    previous pivot, which keeps every entry a Pfaffian minor, so an integer;
    the Pfaffian is the last pivot up to the sign of the row swaps.  Each
    division is checked: a nonzero remainder raises ArithmeticError.
    """
    M = [[int(x) for x in row] for row in np.asarray(matrix)]
    size = len(M)
    for r in range(size):
        for c in range(r, size):
            if M[r][c] != -M[c][r]:
                raise ValueError(f"matrix is not antisymmetric at ({r}, {c})")
    if size % 2 != 0:
        return 0
    sign = 1
    prev = 1
    for i in range(0, size, 2):
        pivot = next((j for j in range(i + 1, size) if M[i][j] != 0), None)
        if pivot is None:
            return 0
        if pivot != i + 1:
            M[pivot], M[i + 1] = M[i + 1], M[pivot]
            for row in M:
                row[pivot], row[i + 1] = row[i + 1], row[pivot]
            sign = -sign
        a = M[i][i + 1]
        for r in range(i + 2, size):
            for c in range(i + 2, size):
                q, rem = divmod(a * M[r][c] - (M[i][r] * M[i + 1][c] - M[i + 1][r] * M[i][c]), prev)
                if rem:
                    raise ArithmeticError("fraction-free Pfaffian step left a remainder")
                M[r][c] = q
        prev = a
    return sign * prev


def certify_hessian_combinatorics(n: int) -> HessianReport:
    """Exact part: det(A), the Pfaffian cross-check, and B^2 = I over F2
    (B = A mod 2).  No floating point is involved."""
    A = matrix_A(n)
    det = bareiss_determinant(A)
    pf = pfaffian_exact(A)
    m = A.shape[0]
    B = np.abs(A) % 2
    b_ok = bool(np.array_equal((B @ B) % 2, np.eye(m, dtype=np.int64)))
    return HessianReport(n=n, A=A, det_A=det, pfaffian=pf, b_squared_identity_mod2=b_ok)


def fd_hessian(n: int) -> np.ndarray:
    """Central finite-difference Hessian of the chart function at 0, step
    FD_STEP, over the 2(2n-2) derivative coordinates (y_1..y_m, x_1..x_m).
    The whole stencil, 1 + 2d + 4 C(d, 2) points in d = 2(2n-2) dimensions,
    is one stack."""
    m = 2 * n - 2
    dim = 2 * m
    e = FD_STEP * np.eye(dim)
    p, q = np.triu_indices(dim, 1)
    u = np.concatenate([np.zeros((1, dim)), e, -e, e[p] + e[q], e[p] - e[q], -e[p] + e[q], -e[p] - e[q]])
    f0, fp, fm, fpp, fpm, fmp, fmm = np.split(
        eval_chart_g(n, u[:, m:] + 1j * u[:, :m]), np.cumsum([1, dim, dim] + [p.size] * 3)
    )
    H = np.empty((dim, dim))
    H[np.diag_indices(dim)] = (fp - 2.0 * f0 + fm) / FD_STEP**2
    H[p, q] = H[q, p] = (fpp - fpm - fmp + fmm) / (4.0 * FD_STEP**2)
    return H


def hessian_block(n: int) -> np.ndarray:
    """(-1)^(n-1) [[0, A], [A^T, 0]]: the exact Hessian in the (y, x)
    derivative ordering used by ``fd_hessian``."""
    A = matrix_A(n).astype(float)
    m = A.shape[0]
    Z = np.zeros((m, m))
    return float((-1) ** (n - 1)) * np.block([[Z, A], [A.T, Z]])


def certify_hessian_numeric(n: int) -> HessianReport:
    """Numeric part: finite-difference agreement with the exact block
    Hessian and the (2n-2, 2n-2) eigenvalue split (signature zero)."""
    report = certify_hessian_combinatorics(n)
    H = fd_hessian(n)
    err = float(np.max(np.abs(H - hessian_block(n))))
    eig = np.linalg.eigvalsh((H + H.T) / 2.0)
    cut = 1e-6 * float(np.max(np.abs(eig)))
    d = 2 * n - 3
    return replace(
        report,
        eig_positive=int(np.sum(eig > cut)),
        eig_negative=int(np.sum(eig < -cut)),
        fd_max_error=err,
        step=FD_STEP,
        link=f"S^{d} x S^{d}",
        quotient_link=f"(S^{d} x S^{d})/S^1",
        bd_sublink=f"RP^{d}",
    )


def quadratic_form(n: int, zs):
    """The exact second-order term of the chart function: (-1)^n x^T A y
    with x = re(z), y = im(z); a float on one point, an array on a stack."""
    z = np.asarray(zs, dtype=complex)
    A = matrix_A(n).astype(float)
    q = float((-1) ** n) * np.vecdot(z.real, (A @ z.imag[..., None])[..., 0])
    return float(q) if q.ndim == 0 else q


def link_defects(n: int, zs) -> tuple[np.ndarray, np.ndarray]:
    """The sphere defect ||z| - 1| and the quadric defect |q(z)| of each
    point of an (N, 2n-2) stack; each |z| is bit for bit np.linalg.norm of
    its row."""
    z = np.asarray(zs, dtype=complex)
    sphere = np.abs(np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag)) - 1.0)
    return sphere, np.abs(quadratic_form(n, z))


def gauge_fix(zs) -> np.ndarray:
    """Rotate each point of a (..., m) stack by a common phase so its first
    coordinate of maximal modulus is real and nonnegative (a slice of the
    circle action); an all-zero point is returned as it is."""
    z = np.array(zs, dtype=complex)
    amax = np.argmax(np.abs(z), axis=-1)[..., None]
    top = np.take_along_axis(z, amax, axis=-1)
    # np.abs of a complex array may round otherwise than abs of one number
    r = np.hypot(top.real, top.imag)
    zero = r == 0.0
    z = np.where(zero, z, z * np.conj(top / np.where(zero, 1.0, r)))
    np.put_along_axis(z, amax, np.where(zero, top, r), axis=-1)
    return z


def refine_chart_zero(n: int, zs) -> np.ndarray:
    """Newton-project each point of a (..., m) stack on the unit sphere onto
    the exact cutout g^{-1}(0), staying on the sphere; central-difference
    gradients.  Each step evaluates the points still moving and their 4m
    stencil points as one stack; a point stops at residual REFINE_TARGET or
    after REFINE_STEPS steps, so a stack takes as many steps as its slowest
    point.  The lowest row that stalls above REFINE_TOL, or whose gradient
    vanishes, raises ArithmeticError (``row`` names it on a stack)."""
    z = np.array(zs, dtype=complex)
    m = z.shape[-1]
    out = z.reshape(-1, m).copy()
    residual = np.zeros(out.shape[0])
    vanished = np.zeros(out.shape[0], dtype=bool)
    h = 1e-6
    d = np.zeros((m, m), dtype=complex)
    d[np.diag_indices(m)] = h
    rows = np.arange(out.shape[0])
    v = out
    for step in range(REFINE_STEPS + 1):
        w = v[:, None]
        vals = eval_chart_g(n, np.concatenate([w, w + d, w - d, w + 1j * d, w - 1j * d], axis=1))
        val = vals[:, 0]
        plus_re, minus_re, plus_im, minus_im = vals[:, 1:].reshape(-1, 4, m).transpose(1, 0, 2)
        grad = (plus_re - minus_re) / (2 * h) + 1j * ((plus_im - minus_im) / (2 * h))
        nsq = np.sum(np.abs(grad) ** 2, axis=-1)
        done = (np.abs(val) <= REFINE_TARGET) | (step == REFINE_STEPS)
        stop = done | (nsq == 0.0)
        if stop.any():
            out[rows[stop]] = v[stop]
            residual[rows[done]] = np.abs(val[done])
            vanished[rows[stop & ~done]] = True
            go = ~stop
            rows, v, val, grad, nsq = rows[go], v[go], val[go], grad[go], nsq[go]
            if not rows.size:
                break
        v = v - val[:, None] * grad / nsq[:, None]
        v = v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[:, None]
    checks = (
        (vanished, lambda row: ArithmeticError("vanishing gradient during refinement")),
        (residual > REFINE_TOL, lambda row: ArithmeticError(f"refinement stalled at residual {residual[row]:.3e}")),
    )
    if z.ndim == 1:
        one_row(raise_first, *checks)
    else:
        raise_first(*checks)
    return out.reshape(z.shape)


def _project(A: np.ndarray, ys: np.ndarray, xs: np.ndarray):
    """The unit y, and the unit x orthogonal to w = Ay/|Ay|, of each row of
    (N, m) stacks of Gaussian draws, with the keep masks |y| > DRAW_CUTOFF
    and |x| > 1e-6 after projection.  A row is the same bits in any stack."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ny = norm(ys)
        y = ys / ny[:, None]
        w = np.matmul(A, y[:, :, None])[..., 0]
        w /= norm(w)[:, None]
        x = xs - np.vecdot(xs, w)[:, None] * w
        nx = norm(x)
        # A pass that cancels leaves x about eps * |xs| along w, which
        # normalizing inflates by |xs| / nx.  A second pass removes it
        # ("twice is enough"); it fires almost only at m = 2.
        again = nx < 1e-2 * norm(xs)
        x[again] -= np.vecdot(x[again], w[again])[:, None] * w[again]
        nx[again] = norm(x[again])
        return x / nx[:, None], y, ny > quat.DRAW_CUTOFF, nx > 1e-6


def link_samples(n: int, count: int, rng: np.random.Generator, refine: bool = False) -> np.ndarray:
    """Gauge-fixed samples of the null set of the Hessian quadric on the
    unit sphere, the local model of the link of the singular point: a
    (count, 2n-2) stack.

    The bilinear constraint x^T A y = 0 is solved exactly by drawing the
    y factor on the sphere, drawing x in the hyperplane orthogonal to Ay,
    and mixing radially by an angle t.  Each point draws y, x and t from
    ``rng`` in turn, so point i replays with ``count = i + 1``.  A rejected
    y or x is drawn again before the next draw: the points before the first
    rejected one are kept, that point is drawn one draw at a time, and the
    rest are drawn again as a stack, until no point is rejected.  With
    ``refine`` (n = 3 only) the stack is Newton-projected onto the cutout.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if refine and n != 3:
        raise ValueError("exact-cutout refinement is implemented for n = 3 only")
    m = 2 * n - 2
    A = matrix_A(n).astype(float)
    ys, xs, t = np.empty((count, m)), np.empty((count, m)), np.empty(count)

    def draw(rows):
        for i in rows:
            ys[i], xs[i], t[i] = rng.standard_normal(m), rng.normal(size=m), rng.uniform(0.0, np.pi / 2.0)

    start = rng.bit_generator.state
    draw(range(count))
    x, y, keep_y, keep_x = _project(A, ys, xs)
    keep, first = keep_y & keep_x, 0
    while not keep[first:].all():
        # the kept points are drawn again to reach the first rejected one
        bad = first + int(np.argmin(keep[first:]))
        rng.bit_generator.state = start
        draw(range(first, bad))
        # y is drawn until kept, then x: a zero x is never kept
        ys[bad], xs[bad] = rng.standard_normal(m), 0.0
        while not all(point := _project(A, ys[bad : bad + 1], xs[bad : bad + 1])[2:]):
            if point[0]:
                xs[bad] = rng.normal(size=m)
            else:
                ys[bad] = rng.standard_normal(m)
        t[bad] = rng.uniform(0.0, np.pi / 2.0)
        first = bad + 1
        start = rng.bit_generator.state
        draw(range(first, count))
        keep[first:] = np.logical_and(*_project(A, ys[first:], xs[first:])[2:])
    if first:
        x, y, _, _ = _project(A, ys, xs)
    zs = np.cos(t)[:, None] * x + 1j * (np.sin(t)[:, None] * y)
    if refine:
        zs = refine_chart_zero(n, zs)
    return gauge_fix(zs)


def sample_link(n: int, count: int, rng: np.random.Generator, refine: bool = False) -> list[LinkPoint]:
    """:func:`link_samples` as one LinkPoint per point."""
    zs = link_samples(n, count, rng, refine)
    return [LinkPoint(zs=z, is_real=real) for z, real in zip(zs, np.all(zs.imag == 0.0, axis=-1).tolist())]


def link_csv(zs) -> str:
    """CSV export of an (N, m) stack of link points: interleaved real and
    imaginary columns plus the real-slice tag."""
    if not len(zs):
        return ""
    header = ",".join(f"re_{idx + 1},im_{idx + 1}" for idx in range(zs.shape[-1])) + ",is_real"
    cols = np.stack([zs.real, zs.imag], axis=-1).reshape(len(zs), -1).tolist()
    tags = np.all(zs.imag == 0.0, axis=-1).tolist()
    lines = [",".join([*map(repr, row), "1" if real else "0"]) for row, real in zip(cols, tags)]
    return "\n".join([header, *lines]) + "\n"


def hessian_report_json(report: HessianReport) -> dict:
    exact = {"A": report.A.tolist(), "det_A": str(report.det_A), "pfaffian": str(report.pfaffian)}
    numeric_ok = report.numeric_ok() if report.fd_max_error is not None else None
    return {**asdict(report), **exact, "exact_ok": report.exact_ok(), "numeric_ok": numeric_ok}
