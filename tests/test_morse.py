"""Exact Hessian combinatorics, finite-difference agreement, chart
symmetries, and the link sampler at the singular points."""

from fractions import Fraction

import numpy as np
import pytest

from charvar import morse, quat
from charvar.morse import (
    bareiss_determinant,
    certify_hessian_combinatorics,
    certify_hessian_numeric,
    eval_chart_g,
    fd_hessian,
    gauge_fix,
    hessian_block,
    hessian_report_json,
    link_csv,
    link_defects,
    link_samples,
    matrix_A,
    pfaffian_exact,
    quadratic_form,
    refine_chart_zero,
    s1_orbit,
    sample_link,
    tau,
)
from charvar.quat import I, exp_chart, random_directions
from charvar.rep import complete_reps

from scripted import ScriptedNormals


def pfaffian_reference(M):
    """Independent oracle: expansion along the first row, Pf(A) =
    sum_j (-1)^j a_{0j} Pf(A with rows/cols 0 and j removed)."""
    M = [[Fraction(v) for v in row] for row in M]
    m = len(M)
    if m == 0:
        return 1
    if m % 2 == 1:
        return 0

    def pf(mat):
        size = len(mat)
        if size == 0:
            return Fraction(1)
        total = Fraction(0)
        for j in range(1, size):
            keep = [r for r in range(size) if r not in (0, j)]
            minor = [[mat[r][c] for c in keep] for r in keep]
            sign = -1 if j % 2 == 0 else 1
            total += sign * mat[0][j] * pf(minor)
        return total

    out = pf(M)
    assert out.denominator == 1
    return int(out)


def determinant_reference(M):
    # float determinant rounded; safe for the small integer matrices here
    return int(round(float(np.linalg.det(np.asarray(M, dtype=float)))))


class TestExactCombinatorics:
    def test_matrix_anchor_n2(self):
        assert np.array_equal(matrix_A(2), np.array([[0, -1], [1, 0]]))

    def test_matrix_anchor_n3(self):
        # alternating checkerboard above the diagonal, antisymmetric below
        want = np.array(
            [
                [0, -1, 1, -1],
                [1, 0, -1, 1],
                [-1, 1, 0, -1],
                [1, -1, 1, 0],
            ]
        )
        assert np.array_equal(matrix_A(3), want)

    def test_matrix_is_cached_read_only(self):
        for n in range(2, 9):
            A = matrix_A(n)
            assert A is matrix_A(n) and A.dtype == np.int64 and not A.flags.writeable
            # (-1)^(i+j) above the diagonal, its negative below
            for i, j in np.ndindex(A.shape):
                assert A[i, j] == np.sign(j - i) * (-1) ** (i + j)

    def test_pfaffian_against_reference(self):
        rng = np.random.default_rng(307)
        for size in (2, 4, 6, 8, 10):
            for zeros in (0.0, 0.3, 0.7):
                for _ in range(10 if size < 10 else 3):
                    # with zeros, pivots vanish and rows are swapped
                    upper = rng.integers(-4, 5, size=(size, size)) * (rng.random((size, size)) >= zeros)
                    M = np.triu(upper, 1)
                    M = M - M.T
                    assert pfaffian_exact(M) == pfaffian_reference(M)
        # a zero first pivot, a pivot that vanishes after the first step, and
        # a zero row
        swapped = np.array([[0, 0, 2, 1], [0, 0, 3, 0], [-2, -3, 0, 5], [-1, 0, -5, 0]])
        vanishing = np.array(
            [[0, 1, 1, 0, 0, 0], [-1, 0, 0, 1, 0, 0], [-1, 0, 0, 1, 2, 0],
             [0, -1, -1, 0, 0, 3], [0, 0, -2, 0, 0, 1], [0, 0, 0, -3, -1, 0]]
        )
        singular = np.zeros((4, 4), dtype=int)
        singular[2, 3], singular[3, 2] = 7, -7
        for M in (swapped, vanishing, singular):
            assert pfaffian_exact(M) == pfaffian_reference(M)

    def test_pfaffian_of_chart_matrices(self):
        for n in range(2, 7):
            A = matrix_A(n)
            assert pfaffian_exact(A) == pfaffian_reference(A)

    def test_bareiss_against_reference(self):
        rng = np.random.default_rng(311)
        for size in (2, 3, 4, 5):
            for _ in range(10):
                M = rng.integers(-5, 6, size=(size, size))
                assert bareiss_determinant(M) == determinant_reference(M)

    def test_certificates(self):
        for n in range(2, 13):
            report = certify_hessian_combinatorics(n)
            assert report.exact_ok()
            assert report.det_A % 2 == 1
            assert report.pfaffian**2 == report.det_A
            assert report.b_squared_identity_mod2

    def test_pfaffian_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            pfaffian_exact(np.array([[0, 1], [1, 0]]))

    def test_pfaffian_odd_size_is_zero(self):
        assert pfaffian_exact(np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])) == 0


class TestFiniteDifference:
    def test_default_ordering_matches_block(self):
        for n in (2, 3, 4):
            err = np.max(np.abs(fd_hessian(n) - hessian_block(n)))
            assert err <= 1e-6

    def test_coordinate_ordering_flips_the_sign(self):
        # with x before y the pairing block is (-1)^n [[0,A],[A.T,0]]; the
        # (-1)^{n-1} convention belongs to the y-first ordering
        for n in (2, 3):
            A = matrix_A(n).astype(float)
            m = A.shape[0]
            block = np.zeros((2 * m, 2 * m))
            block[:m, m:] = A
            block[m:, :m] = A.T
            x_first = np.r_[m : 2 * m, 0:m]
            fd_xy = fd_hessian(n)[np.ix_(x_first, x_first)]
            assert np.max(np.abs(fd_xy - (-1.0) ** n * block)) <= 1e-6
            assert np.max(np.abs(fd_xy - (-1.0) ** (n - 1) * block)) >= 1.0

    def test_numeric_certificates(self):
        for n in (2, 3, 4):
            report = certify_hessian_numeric(n)
            assert report.numeric_ok()
            assert report.eig_positive == 2 * n - 2
            assert report.eig_negative == 2 * n - 2

    def test_report_json(self):
        data = hessian_report_json(certify_hessian_numeric(3))
        assert data["n"] == 3
        assert data["det_A"] == "1"
        assert data["pfaffian"] == "1"
        assert data["exact_ok"] is True


class TestChart:
    def test_zero_is_a_zero(self):
        for n in (2, 3, 4):
            assert eval_chart_g(n, np.zeros(2 * n - 2, dtype=complex)) == 0.0

    def test_real_slice_is_exactly_cut_out(self):
        # real coordinates keep every factor in the i,j plane, where the
        # constraint vanishes identically, floating point included
        rng = np.random.default_rng(331)
        for n in (2, 3, 4):
            for _ in range(25):
                u = rng.normal(size=2 * n - 2)
                assert eval_chart_g(n, u.astype(complex)) == 0.0

    def test_conjugation_antisymmetry(self):
        rng = np.random.default_rng(337)
        for n in (2, 3, 4):
            for _ in range(25):
                zs = 0.5 * (rng.normal(size=2 * n - 2) + 1j * rng.normal(size=2 * n - 2))
                assert abs(eval_chart_g(n, tau(zs)) + eval_chart_g(n, zs)) <= 1e-12

    def test_circle_invariance(self):
        rng = np.random.default_rng(347)
        for n in (2, 3, 4):
            zs = 0.5 * (rng.normal(size=2 * n - 2) + 1j * rng.normal(size=2 * n - 2))
            base = eval_chart_g(n, zs)
            for theta in rng.uniform(0.0, 2.0 * np.pi, 5):
                assert abs(eval_chart_g(n, s1_orbit(zs, theta)) - base) <= 1e-12

    def test_quadratic_form_matches_double_sum(self):
        rng = np.random.default_rng(349)
        for n in (2, 3, 4, 5):
            m = 2 * n - 2
            zs = rng.normal(size=m) + 1j * rng.normal(size=m)
            x, y = zs.real, zs.imag
            total = 0.0
            for l in range(m):
                for p in range(l + 1, m):
                    total += (-1.0) ** (l + p) * (y[l] * x[p] - x[l] * y[p])
            total *= (-1.0) ** (n - 1)
            assert abs(quadratic_form(n, zs) - total) <= 1e-12

    def test_cubic_remainder_coefficient(self):
        # |g(t u) - t^2 q(u)| <= 10 t^3 on unit directions
        rng = np.random.default_rng(353)
        for n in (2, 3, 4):
            m = 2 * n - 2
            for _ in range(10):
                u = rng.normal(size=m) + 1j * rng.normal(size=m)
                u /= np.linalg.norm(u)
                qu = quadratic_form(n, u)
                for t in (1e-1, 1e-2, 1e-3):
                    assert abs(eval_chart_g(n, t * u) - t * t * qu) <= 10.0 * t**3


def refinement_starts() -> np.ndarray:
    """Twelve unrefined n = 3 link samples; every third one scaled by 1e-3,
    which stops after one step."""
    starts = link_samples(3, 12, np.random.default_rng(409))
    starts[1::3] *= 1e-3
    return starts


class TestStackedChart:
    def test_stack_rows_are_the_one_point_calls(self):
        # unit, small, zero and signed-zero coordinates, on a (2, 60, m) stack
        rng = np.random.default_rng(397)
        for n in range(2, 9):
            m = 2 * n - 2
            zs = rng.normal(size=(2, 60, m)) + 1j * rng.normal(size=(2, 60, m))
            zs[0, ::3] *= 1e-3
            zs[1, ::4, 0] = 0.0
            zs[1, ::5, -1] = complex(-0.0, 0.0)
            zs[1, 7] = 0.0
            stacked = eval_chart_g(n, zs)
            assert stacked.shape == (2, 60)
            for row, value in zip(zs.reshape(-1, m), stacked.reshape(-1)):
                one = eval_chart_g(n, row)
                assert type(one) is float
                assert np.float64(one).tobytes() == value.tobytes()

    def test_zero_coordinates_give_exactly_i(self):
        zs = np.array([[0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)], [0.5j, 0.0, 1.0, 0.0]])
        factors = exp_chart(zs)
        assert factors.shape == (2, 4, 4)
        for factor in (*factors[0], factors[1, 1], factors[1, 3]):
            assert factor.tobytes() == I.tobytes()

    def test_shape_is_checked(self):
        with pytest.raises(ValueError, match="expected 2n-2 = 4 coordinates for n = 3"):
            eval_chart_g(3, np.zeros((5, 3), dtype=complex))

    def test_fd_hessian_bytes_are_pinned(self, digest):
        # sha256 of fd_hessian(n).tobytes(), recorded when each stencil point
        # was evaluated on its own, with numpy 2.4 on x86-64 Linux
        pinned = {2: "cf02175a1ec8ac72", 3: "e6a48cfadf0a487b", 4: "3d37b67ff7c7d2c9", 5: "dc248f595f149540"}
        for n, want in pinned.items():
            assert digest(fd_hessian(n)) == want

    def test_refined_link_bytes_are_pinned(self, digest):
        # recorded when each Newton step evaluated its stencil point by point
        points = sample_link(3, 5, np.random.default_rng((3, 14)), refine=True)
        assert digest(*(pt.zs for pt in points)) == "f39c0734d39637a3"
        assert not any(pt.is_real for pt in points)

    def test_refinement_evaluates_one_stack_per_step(self, monkeypatch):
        sizes = []

        def counted(n, zs):
            sizes.append(np.shape(zs))
            return eval_chart_g(n, zs)

        monkeypatch.setattr(morse, "eval_chart_g", counted)
        starts = refinement_starts()[:3]
        steps = []
        for z in starts:
            sizes.clear()
            refine_chart_zero(3, z)
            assert set(sizes) == {(1, 17, 4)}
            steps.append(len(sizes))
        assert steps == [6, 1, 6]
        sizes.clear()
        refine_chart_zero(3, starts)
        # one stack per step: the 17-point stencils of the rows still moving
        assert sizes == [(sum(s > step for s in steps), 17, 4) for step in range(max(steps))]

    def test_stack_rows_are_the_one_point_refinements(self, digest):
        # step counts 1, 4, 5 and 6 in one stack; the digest was recorded
        # when each point was refined on its own
        starts = refinement_starts()
        stacked = refine_chart_zero(3, starts)
        assert digest(stacked) == "de438dae2b80fc3d"
        for z, row in zip(starts, stacked):
            assert refine_chart_zero(3, z).tobytes() == row.tobytes()
        assert refine_chart_zero(3, starts.reshape(3, 4, 4)).tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_stacks_of_samples_match_one_point_calls(self, seed):
        rng = np.random.default_rng((seed, 419))
        starts = link_samples(3, 9, rng)
        starts *= rng.uniform(1e-3, 2.0, size=(9, 1))
        stacked = refine_chart_zero(3, starts)
        for z, row in zip(starts, stacked):
            assert refine_chart_zero(3, z).tobytes() == row.tobytes()

    def test_lowest_failing_row_raises(self, monkeypatch):
        # rows whose centre has z_4 = 0 see g = 1 + 1e-3 re(z_1), which has
        # no zero on the sphere: Newton only moves z_1 and rescales, so z_4
        # stays 0 and the row stalls; rows with z_3 = 0 see g = 1, whose
        # gradient vanishes at the first step
        def rigged(n, zs):
            stencils = zs.reshape(-1, 17, 4)
            vals = eval_chart_g(n, zs).reshape(-1, 17)
            stall, flat = (stencils[:, 0, c] == 0.0 for c in (3, 2))
            vals[stall] = 1.0 + 1e-3 * stencils[stall, :, 0].real
            vals[flat] = 1.0
            return vals

        monkeypatch.setattr(morse, "eval_chart_g", rigged)
        good, stall, flat = refinement_starts()[:3]
        stall[3] = flat[2] = 0.0
        with pytest.raises(ArithmeticError, match="refinement stalled at residual 9.990e-01") as info:
            refine_chart_zero(3, np.stack([good, stall, good, flat]))
        assert info.value.row == 1
        with pytest.raises(ArithmeticError, match="vanishing gradient during refinement") as info:
            refine_chart_zero(3, np.stack([good, good, flat, stall]))
        assert info.value.row == 2
        for z, message in ((stall, "refinement stalled"), (flat, "vanishing gradient")):
            with pytest.raises(ArithmeticError, match=message) as info:
                refine_chart_zero(3, z)
            assert not hasattr(info.value, "row")
        assert refine_chart_zero(3, np.stack([good, good])).shape == (2, 4)


def per_point_link_draws(n, count, rng):
    """The per-point loop that link_samples replaced, without refinement:
    the reference its stack must match bit for bit."""
    m = 2 * n - 2
    A = matrix_A(n).astype(float)
    zs = np.empty((count, m), dtype=complex)
    for i in range(count):
        y = random_directions(rng, 1, m)[0]
        w = A @ y
        w /= np.linalg.norm(w)
        while True:
            x = rng.normal(size=m)
            drawn = np.linalg.norm(x)
            x -= (x @ w) * w
            nx = np.linalg.norm(x)
            if nx < 1e-2 * drawn:
                x -= (x @ w) * w
                nx = np.linalg.norm(x)
            if nx > 1e-6:
                x /= nx
                break
        t = rng.uniform(0.0, np.pi / 2.0)
        zs[i] = np.cos(t) * x + 1j * (np.sin(t) * y)
    return gauge_fix(zs)


def assert_per_point(n, count, make_rng, kernel_calls=None):
    """One count-point link_samples call gives the bytes of the per-point
    loop and of count chained one-point calls, and leaves its generator
    where they leave theirs; with ``kernel_calls``, the stack sizes the
    count-point call projects."""
    whole, loop, chained = make_rng(), make_rng(), make_rng()
    sizes = []
    real = morse._project

    def counted(A, ys, xs):
        sizes.append(len(ys))
        return real(A, ys, xs)

    morse._project = counted
    try:
        zs = link_samples(n, count, whole)
    finally:
        morse._project = real
    rows = np.concatenate([link_samples(n, 1, chained) for _ in range(count)])
    for other, rng in ((per_point_link_draws(n, count, loop), loop), (rows, chained)):
        assert zs.tobytes() == other.tobytes()
        assert whole.bit_generator.state == rng.bit_generator.state
    if kernel_calls is not None:
        assert sizes == kernel_calls
    return zs


class TestLinkSampler:
    def test_constraints_and_gauge(self):
        for n in (2, 3, 4):
            points = sample_link(n, 40, np.random.default_rng((359, n)))
            assert len(points) == 40
            for pt in points:
                assert abs(np.linalg.norm(pt.zs) - 1.0) <= 1e-12
                assert abs(quadratic_form(n, pt.zs)) <= 1e-12
                lead = pt.zs[int(np.argmax(np.abs(pt.zs)))]
                assert lead.imag == 0.0 and lead.real > 0.0

    @pytest.mark.parametrize("seed", [13, 15])
    def test_cancelling_projection_stays_on_quadric(self, seed, digest):
        # at n = 2 (m = 2) some draws of x are nearly parallel to Ay, and one
        # projection left quadric defects of 1.2e-12 and 1.5e-12 at these
        # seeds; the digests were recorded when each point was projected on
        # its own
        zs = link_samples(2, 2500, np.random.default_rng((seed, 13, 2)))
        assert np.abs(quadratic_form(2, zs)).max() <= 1e-12
        assert digest(zs) == {13: "0c5028b7af9e1daf", 15: "65d954ae0fb13ed1"}[seed]

    def test_gauge_fix_normalizes_phase(self):
        rng = np.random.default_rng(367)
        zs = rng.normal(size=4) + 1j * rng.normal(size=4)
        fixed = gauge_fix(zs)
        for phase in rng.uniform(0.0, 2.0 * np.pi, 5):
            again = gauge_fix(zs * np.exp(1j * phase))
            assert np.max(np.abs(again - fixed)) <= 1e-12

    def test_gauge_fix_stack_rows_are_one_point_calls(self):
        rng = np.random.default_rng(421)
        zs = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
        zs[3] = [0.0, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]
        zs[5] = [1j, -1.0, 1.0, -1j]
        fixed = gauge_fix(zs)
        assert fixed[3].tobytes() == zs[3].tobytes()
        for z, row in zip(zs, fixed):
            assert gauge_fix(z).tobytes() == row.tobytes()

    def test_refinement_lands_on_cutout(self):
        points = sample_link(3, 25, np.random.default_rng(373), refine=True)
        for pt in points:
            assert abs(eval_chart_g(3, pt.zs)) <= 1e-10
            assert abs(np.linalg.norm(pt.zs) - 1.0) <= 1e-12

    def test_refinement_limited_to_n3(self):
        with pytest.raises(ValueError):
            sample_link(4, 5, np.random.default_rng(0), refine=True)

    def test_real_points_are_tagged(self):
        # force a real sample by gauge-fixing a real vector through the
        # same tagging rule the sampler applies
        points = sample_link(3, 2000, np.random.default_rng(379))
        tagged = sum(pt.is_real for pt in points)
        assert tagged <= 2  # real slice has measure zero in the link

    def test_csv_format(self):
        zs = link_samples(3, 5, np.random.default_rng(383))
        zs[4] = zs[4].real
        text = link_csv(zs)
        lines = text.strip().splitlines()
        assert lines[0] == "re_1,im_1,re_2,im_2,re_3,im_3,re_4,im_4,is_real"
        assert len(lines) == 6
        assert [line.split(",")[-1] for line in lines[1:]] == ["0", "0", "0", "0", "1"]
        values = np.array([[float(v) for v in line.split(",")[:-1]] for line in lines[1:]])
        assert values.tobytes() == np.stack([zs.real, zs.imag], axis=-1).reshape(5, 8).tobytes()
        assert link_csv(zs[:0]) == ""

    def test_link_points_are_the_stack_rows(self):
        a, b = np.random.default_rng(383), np.random.default_rng(383)
        zs = link_samples(3, 50, a)
        points = sample_link(3, 50, b)
        assert [pt.zs.tobytes() for pt in points] == [z.tobytes() for z in zs]
        assert [pt.is_real for pt in points] == np.all(zs.imag == 0.0, axis=-1).tolist()
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_stack_is_the_per_point_draws(self, n):
        # one projection kernel call serves the whole stack
        assert_per_point(n, 300, lambda: np.random.default_rng((431, n)), kernel_calls=[300])

    @pytest.mark.parametrize("n, cutoff", [(2, 0.5), (3, 1.0)])
    def test_rejected_y_replays_point_by_point(self, n, cutoff, monkeypatch):
        # about one y in ten is rejected: each rejected point is drawn again
        # one draw at a time, each y until it is kept, and the points after
        # it are drawn again as a stack
        probe = np.random.default_rng((433, n))
        m = 2 * n - 2
        first = [(probe.standard_normal(m), probe.normal(size=m), probe.uniform(0.0, np.pi / 2.0)) for _ in range(40)]
        assert np.sum(quat.norm(np.array([y for y, _, _ in first])) <= cutoff) >= 2
        monkeypatch.setattr(quat, "DRAW_CUTOFF", cutoff)
        zs = assert_per_point(n, 40, lambda: np.random.default_rng((433, n)))
        sphere, quad = link_defects(n, zs)
        assert max(sphere.max(), quad.max()) <= morse.LINK_TOL

    def test_rejections_resume_the_stack(self, monkeypatch):
        # about one y in seventy is rejected at n = 3: the points before a
        # rejected one are kept, and the stack is drawn again after it, so
        # the stacks projected shrink and each point is drawn as the
        # per-point loop draws it
        monkeypatch.setattr(quat, "DRAW_CUTOFF", 0.6)
        sizes = []
        real = morse._project
        monkeypatch.setattr(morse, "_project", lambda A, ys, xs: sizes.append(len(ys)) or real(A, ys, xs))
        zs = link_samples(3, 600, np.random.default_rng((439, 3)))
        assert zs.tobytes() == per_point_link_draws(3, 600, np.random.default_rng((439, 3))).tobytes()
        stacks = [size for size in sizes if size > 1]
        assert stacks[0] == stacks[-1] == 600 and len(stacks) >= 5
        assert stacks[1:-1] == sorted(stacks[1:-1], reverse=True) and stacks[-2] < 600

    def test_cancelled_x_replays_point_by_point(self):
        # at n = 2, w = A y / |A y| is (0, 1) for y = (1, 0): the x draw
        # (1e-7, 1) projects to |x| = 1e-7 and is drawn again, as (1, 0.5)
        script = [1, 0, 1e-7, 1, 1, 0.5, 0.3, 0.3, 0.8, 0.5, -1, 0.7, 0.2, 0.1, 0.4, 0.4, 0.9]
        stubs = []

        def scripted():
            stubs.append(ScriptedNormals(script))
            return stubs[-1]

        # the stack, point 0 one draw at a time, the two points after it
        # as a stack, and the final projection of all three
        zs = assert_per_point(2, 3, scripted, kernel_calls=[3, 1, 1, 1, 2, 3])
        assert [stub.used for stub in stubs] == [len(script)] * 3
        sphere, quad = link_defects(2, zs)
        assert max(sphere.max(), quad.max()) <= morse.LINK_TOL

    def test_rep_from_refined_chart_zero(self):
        pt = sample_link(3, 1, np.random.default_rng(389), refine=True)[0]
        # scale into the chart's neighborhood of the singular point
        zs = 1e-3 * pt.zs
        refined = refine_chart_zero(3, zs)
        # the meridians (i, i e^{x_1 j + y_1 k}, ...) and their completion
        r = complete_reps(np.concatenate([I[None], exp_chart(refined)])[None])
        assert r.shape == (1, 6, 4)
        assert np.max(np.abs(r[..., 0])) <= 1e-10
