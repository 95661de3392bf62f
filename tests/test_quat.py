"""Unit quaternion arithmetic: multiplication table anchors, group
identities on random units, and the exponential/axis-angle round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charvar import quat as quat_module
from charvar.quat import (
    I,
    J,
    K,
    ONE,
    RENORM_DRIFT,
    AxisAngle,
    axis_angle,
    commutator,
    commutator_defect,
    conjugate,
    exp_chart,
    exp_pure,
    from_rotation_matrix,
    gprod,
    is_pure_unit,
    norm,
    perpendicular,
    qconj,
    qinv,
    qmul,
    quat,
    random_directions,
    random_pure,
    random_unit,
    re,
    rotation_matrix,
    rotor_between,
)


def units(seed, count=1):
    rng = np.random.default_rng(seed)
    qs = [random_unit(rng) for _ in range(count)]
    return qs[0] if count == 1 else qs


# Independent references, row by row on Python floats and np.dot, for the
# stacked kernels: each row must come out bit for bit as these compute it.


def hamilton(a, b):
    """The Hamilton product on Python floats."""
    aw, ax, ay, az = (float(c) for c in a)
    bw, bx, by, bz = (float(c) for c in b)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def row_norm(q):
    return np.sqrt(np.dot(q, q))


def group_product(factors):
    """Left-to-right Hamilton products from 1, renormalized once if the
    squared norm drifted from 1 by more than RENORM_DRIFT."""
    p = np.array([1.0, 0.0, 0.0, 0.0])
    for q in factors:
        p = hamilton(p, q)
    sq = np.dot(p, p)
    return p / np.sqrt(sq) if abs(sq - 1.0) > RENORM_DRIFT else p


def split(x):
    """Dekker's split of x into a high and a low half of at most 26 bits
    each, so that every product of two halves is exact."""
    high = 134217729.0 * x - (134217729.0 * x - x)
    return high, x - high


def compensated_defect(u, v):
    """uv - vu as 2 im(u) x im(v), each component the correctly rounded
    a b - c d: math.fsum of the exact products of split halves."""
    out = [0.0]
    for i, j in ((2, 3), (3, 1), (1, 2)):
        (ah, al), (bh, bl), (ch, cl), (dh, dl) = (split(float(x)) for x in (u[i], v[j], u[j], v[i]))
        terms = (ah * bh, ah * bl, al * bh, al * bl, -(ch * dh), -(ch * dl), -(cl * dh), -(cl * dl))
        out.append(2.0 * math.fsum(terms))
    return np.array(out)


class TestMultiplicationTable:
    # hand anchors from i^2 = j^2 = k^2 = ijk = -1
    def test_basis_products(self):
        assert np.array_equal(qmul(I, J), K)
        assert np.array_equal(qmul(J, K), I)
        assert np.array_equal(qmul(K, I), J)
        assert np.array_equal(qmul(J, I), -K)
        assert np.array_equal(qmul(I, I), -ONE)
        assert np.array_equal(gprod(I, J, K), -ONE)

    def test_half_sum_product(self):
        # (1+i)(1+j) = 1 + i + j + k, worked out termwise
        a = quat(1.0, 1.0, 0.0, 0.0) / np.sqrt(2.0)
        b = quat(1.0, 0.0, 1.0, 0.0) / np.sqrt(2.0)
        assert np.allclose(qmul(a, b), quat(0.5, 0.5, 0.5, 0.5), atol=1e-15)

    def test_stacked_broadcast(self):
        rng = np.random.default_rng(7)
        a = np.stack([random_unit(rng) for _ in range(5)])
        b = np.stack([random_unit(rng) for _ in range(5)])
        # after the special rows, 2000 rows of mixed magnitudes
        wide = rng.normal(size=(2, 2000, 4)) * 10.0 ** rng.integers(-3, 4, size=(2, 2000, 1))
        # signed zeros, and magnitudes near 1e-300 whose products underflow
        # to zero or to subnormals
        a = np.vstack([a, [-0.0, 0.0, 0.0, 0.0], [1e-200, 0.0, 0.0, 0.0], [1e-300, -3e-301, 2e-310, -0.0]])
        b = np.vstack([b, [0.0, 0.0, 0.0, 0.0], [-1e-200, 0.0, 0.0, 0.0], [-1e-300, 5e-324, -0.0, 7e-301]])
        a = np.vstack([a, [1e-160, 1e-160, 0.0, -1e-160], [-0.0, 0.0, -0.0, 1.0], wide[0]])
        b = np.vstack([b, [1e-160, -1e-160, -0.0, 1e-160], [0.0, -0.0, -0.0, -1.0], wide[1]])
        stacked = qmul(a, b)
        assert np.signbit(stacked[5:7, 0]).all() and stacked[8, 0] == 3e-320
        for row, (qa, qb) in enumerate(zip(a, b)):
            # the bytes, so that -0.0 differs from 0.0
            assert stacked[row].tobytes() == hamilton(qa, qb).tobytes()
            assert qmul(qa, qb).tobytes() == hamilton(qa, qb).tobytes()


class TestGroupIdentities:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_associativity_and_norm(self, seed):
        a, b, c = units(seed, 3)
        assert np.allclose(qmul(qmul(a, b), c), qmul(a, qmul(b, c)), atol=1e-14)
        assert abs(norm(qmul(a, b)) - 1.0) <= 1e-14

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_inverse_and_conjugation(self, seed):
        a, b = units(seed, 2)
        assert np.allclose(qmul(a, qinv(a)), ONE, atol=1e-14)
        assert np.allclose(qconj(qmul(a, b)), qmul(qconj(b), qconj(a)), atol=1e-14)
        # conjugation preserves the real part and fixes the center
        q = random_pure(np.random.default_rng(seed))
        assert abs(re(conjugate(a, q))) <= 1e-14
        assert np.allclose(conjugate(a, ONE), ONE, atol=1e-14)

    def test_commutator_of_commuting_elements(self):
        a = exp_pure(0.4, I)
        b = exp_pure(1.3, I)
        assert np.allclose(commutator(a, b), ONE, atol=1e-15)

    def test_pure_inverse_is_negation(self):
        p = random_pure(np.random.default_rng(3))
        assert np.allclose(qinv(p), -p, atol=1e-15)


class TestRotation:
    def test_homomorphism(self):
        a, b = units(11, 2)
        assert np.allclose(
            rotation_matrix(qmul(a, b)),
            rotation_matrix(a) @ rotation_matrix(b),
            atol=1e-13,
        )

    def test_conjugation_matches_matrix_action(self):
        g = units(5)
        p = random_pure(np.random.default_rng(6))
        assert np.allclose(conjugate(g, p)[1:], rotation_matrix(g) @ p[1:], atol=1e-13)

    @pytest.mark.parametrize(
        "g",
        # 1, i, j, k each make a different diagonal entry of R the largest,
        # so between them they take all four branches of Shepperd's method
        [ONE, I, J, K, *units(13, 6)],
    )
    def test_from_rotation_matrix_round_trip(self, g):
        back = from_rotation_matrix(rotation_matrix(g))
        assert abs(norm(back) - 1.0) <= 1e-12
        assert min(np.linalg.norm(back - g), np.linalg.norm(back + g)) <= 1e-14

    def test_stacks_match_rows(self):
        g = np.stack(units(15, 40))
        aa = axis_angle(g)
        rotations, exps = rotation_matrix(g), exp_pure(aa.angle, aa.axis)
        assert rotations.shape == (40, 3, 3) and exps.shape == (40, 4)
        for q, R, e in zip(g, rotations, exps):
            assert rotation_matrix(q).tobytes() == R.tobytes()
            one = axis_angle(q)
            assert exp_pure(one.angle, one.axis).tobytes() == e.tobytes()

    def test_exp_pure_rejects_a_stack_with_one_bad_axis(self):
        axes = np.stack([I, J, quat(0.5, 0.5, 0.5, 0.5)])
        with pytest.raises(ValueError, match="axis must be a pure unit quaternion"):
            exp_pure(np.zeros(3), axes)
        with pytest.raises(ValueError, match=r"axis must be a quaternion of shape \(4,\), got \(3, 3\)"):
            exp_pure(0.5, axes[:, 1:])

    def test_rotor_between_basis_pairs(self):
        for u, v in ((I, J), (J, K), (I, K), (K, I)):
            g = rotor_between(u, v)
            assert np.allclose(conjugate(g, u), v, atol=1e-14)

    def test_rotor_between_antipodal(self):
        for u in (I, J, K, random_pure(np.random.default_rng(8))):
            g = rotor_between(u, -u)
            assert abs(norm(g) - 1.0) <= 1e-12
            assert np.allclose(conjugate(g, u), -u, atol=1e-13)

    def test_rotor_between_random(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u, v = random_pure(rng), random_pure(rng)
            assert np.allclose(conjugate(rotor_between(u, v), u), v, atol=1e-12)

    def test_rotor_between_bytes_are_pinned(self, digest):
        # recorded from rotor_between called one pair at a time, with numpy
        # 2.4 on x86-64 Linux: random, equal and antipodal pairs, and every
        # pair of +-i, +-j, +-k; the stack gives the same bytes
        rng = np.random.default_rng(23)
        u = np.stack([random_pure(rng) for _ in range(200)])
        v = np.stack([random_pure(rng) for _ in range(200)])
        basis = np.stack([s * q for q in (I, J, K) for s in (1.0, -1.0)])
        pairs = {
            "bae452cf51656f9f": (u, v),
            "9a3892eec951b2ac": (u, u),
            "94bc1e7f36f80714": (u, -u),
            "8ed15f73a8e49f71": (np.repeat(basis, 6, axis=0), np.tile(basis, (6, 1))),
        }
        for want, (a, b) in pairs.items():
            assert digest(np.stack([rotor_between(x, y) for x, y in zip(a, b)])) == want
            stacked = rotor_between(a, b)
            assert digest(stacked) == want
        assert np.allclose(conjugate(stacked, a), b, atol=1e-13)


class TestDraws:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_kernel_is_one_at_a_time_draws_with_rejections(self, dim, monkeypatch):
        # a cutoff of 1 rejects about a fifth of the 3-vectors and a tenth of
        # the 4-vectors: the stack keeps its rows in draw order and redraws
        # the rejected ones after the rest, as one-row calls redraw at once
        monkeypatch.setattr(quat_module, "DRAW_CUTOFF", 1.0)
        stacked_rng, rows_rng, loop_rng = (np.random.default_rng(61) for _ in range(3))
        stacked = random_directions(stacked_rng, 200, dim)
        rows = np.concatenate([random_directions(rows_rng, 1, dim) for _ in range(200)])
        tries, loop = 0, []
        while len(loop) < 200:
            v = loop_rng.standard_normal(dim)
            n = np.sqrt(np.dot(v, v))
            tries += 1
            if n > 1.0:
                loop.append(v / n)
        assert tries > 210
        assert stacked.shape == (200, dim)
        assert stacked.tobytes() == rows.tobytes() == np.array(loop).tobytes()
        assert stacked_rng.bit_generator.state == rows_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_perpendicular_on_axes_and_random_rows(self):
        # +-i, where a x e1 vanishes, +-j, and random unit rows
        axes = np.stack([s * q[1:] for q in (I, J) for s in (1.0, -1.0)])
        rows = np.concatenate([axes, np.stack([random_pure(np.random.default_rng((71, i)))[1:] for i in range(50)])])
        w = perpendicular(rows)
        assert w.shape == rows.shape
        assert np.all(np.abs(np.vecdot(w, rows)) <= 1e-15)
        assert np.all(np.vecdot(w[:4], w[:4]) == 1.0)
        assert np.all(np.vecdot(w, w) >= 1e-12)


class TestExponential:
    def test_quarter_and_half_turns(self):
        assert np.allclose(exp_pure(np.pi / 2.0, I), I, atol=1e-15)
        assert np.allclose(exp_pure(np.pi, J), -ONE, atol=1e-15)
        assert np.allclose(exp_pure(0.0, K), ONE, atol=1e-15)

    def test_one_parameter_subgroup(self):
        s, t = 0.37, 1.21
        u = random_pure(np.random.default_rng(12))
        assert np.allclose(qmul(exp_pure(s, u), exp_pure(t, u)), exp_pure(s + t, u), atol=1e-14)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_axis_angle_round_trip(self, seed):
        q = units(seed)
        aa = axis_angle(q)
        assert 0.0 <= aa.angle <= np.pi
        assert is_pure_unit(aa.axis, tol=1e-9)
        assert np.allclose(exp_pure(aa.angle, aa.axis), q, atol=1e-12)

    def test_axis_angle_near_identity(self):
        aa = axis_angle(ONE)
        assert aa.angle == 0.0
        q = exp_pure(1e-9, J)
        back = axis_angle(q)
        assert np.allclose(exp_pure(back.angle, back.axis), q, atol=1e-14)

    def test_axis_angle_stack_matches_rows(self):
        # rows at and near +-1 take the conventional axis I
        stack = np.concatenate(
            [units(7, 200), [ONE, -ONE, ONE + 1e-13 * J, quat(-1.0, 0.0, -0.0, 0.0)]]
        )
        batch = axis_angle(stack)
        assert batch.angle.shape == (204,) and batch.axis.shape == (204, 4)
        for q, angle, axis in zip(stack, batch.angle, batch.axis):
            one = axis_angle(q)
            assert type(one.angle) is float
            assert np.float64(one.angle).tobytes() == angle.tobytes()
            assert one.axis.tobytes() == axis.tobytes()
        assert np.array_equal(batch.axis[-4:], np.tile(I, (4, 1)))

    def test_exp_pure_rejects_non_pure_axis(self):
        with pytest.raises(ValueError):
            exp_pure(0.5, quat(0.5, 0.5, 0.5, 0.5))


class TestCommutatorDefect:
    def test_matches_naive_difference(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            u, v = random_unit(rng), random_unit(rng)
            naive = qmul(u, v) - qmul(v, u)
            assert np.allclose(commutator_defect(u, v), naive, atol=1e-15)

    def test_self_defect_is_exactly_zero(self):
        u = units(22)
        assert np.array_equal(commutator_defect(u, u), np.zeros(4))

    def test_near_parallel_direction_is_exact(self):
        # two in-plane points a tiny angle apart: the defect is a pure
        # multiple of k, and the structural zeros must survive verbatim
        eps = 3.7e-9
        theta = 0.823
        a = qmul(exp_pure(theta, K), I)
        c = qmul(exp_pure(theta + 2.0 * eps, K), I)
        w = commutator_defect(a, c)
        assert w[0] == 0.0 and w[1] == 0.0 and w[2] == 0.0
        assert abs(w[3] - 2.0 * np.sin(2.0 * eps)) <= 1e-15
        x = w / np.linalg.norm(w)
        assert np.array_equal(np.abs(x), np.array([0.0, 0.0, 0.0, 1.0]))


    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(*[st.floats(-1.0, 1.0)] * 4),
                st.tuples(*[st.floats(-1.0, 1.0)] * 4),
                st.floats(-2.0, 2.0),
                st.integers(min_value=-18, max_value=0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_stack_matches_rows_bit_for_bit(self, rows):
        # random pairs, then nearly commuting pairs v = s u + 10^e w; the
        # defect certifies its rounding or falls back to fsum, and must
        # round each component as fsum of the exact split products does
        u = np.array([r[0] for r in rows])
        w = np.array([r[1] for r in rows])
        scale = np.array([r[2] for r in rows])[:, None]
        tiny = 10.0 ** np.array([r[3] for r in rows], dtype=float)[:, None]
        for v in (w, scale * u + tiny * w):
            stacked = commutator_defect(u, v)
            for row, a, b in zip(stacked, u, v):
                assert row.tobytes() == compensated_defect(a, b).tobytes()
                assert commutator_defect(a, b).tobytes() == row.tobytes()

    def test_stack_matches_rows_at_ties_and_zeros(self):
        # component 1 is u2 v3 - u3 v2.  Row 0: 1 - 2^-54 is a rounding tie.
        # Row 1: (1 + 2^-26)(1 + 2^-27) rounds to p = 1 + 3 2^-27 with error
        # +2^-53, half an ulp, and 2^-54 2^-54 = 2^-108 tips the exact sum
        # past the tie that p + 2^-53 alone rounds down to even.  Row 2 is an
        # exact zero, row 3 a planar pair with structural zeros.
        t = 2.0**-27
        u = np.array([[0.0, 0.0, 1.0, t], [0.0, 0.0, 1.0 + 2.0**-26, -(2.0**-54)], [0.0, 0.0, 1.0, 1.0]])
        v = np.array([[0.0, 0.0, t, 1.0], [0.0, 0.0, 2.0**-54, 1.0 + t], [0.0, 0.0, 1.0, 1.0]])
        u = np.vstack([u, qmul(exp_pure(0.8, K), I)])
        v = np.vstack([v, qmul(exp_pure(0.8 + 1e-9, K), I)])
        stacked = commutator_defect(u, v)
        assert stacked[0, 1] == 2.0
        assert stacked[1, 1] == 2.0 * (1.0 + 3.0 * t + 2.0**-52)
        for row, a, b in zip(stacked, u, v):
            assert row.tobytes() == compensated_defect(a, b).tobytes()
            assert commutator_defect(a, b).tobytes() == row.tobytes()


class TestChart:
    def test_zero_coords_give_i(self):
        factors = exp_chart(np.zeros(4, dtype=complex))
        assert factors.shape == (4, 4)
        for f in factors:
            assert np.allclose(f, I, atol=1e-15)

    def test_factors_are_pure_units(self):
        rng = np.random.default_rng(31)
        zs = 0.3 * (rng.normal(size=6) + 1j * rng.normal(size=6))
        for f in exp_chart(zs):
            assert is_pure_unit(f, tol=1e-12)


def test_gprod_drift_control():
    rng = np.random.default_rng(41)
    qs = [random_unit(rng) for _ in range(400)]
    assert abs(norm(gprod(*qs)) - 1.0) <= 1e-12


def test_gprod_stack_matches_rows_exactly():
    # rows of 3 factors mostly stay within RENORM_DRIFT, rows of 400 drift
    # past it and are renormalized: both branches must match the row-by-row
    # reference; rows of no factors are identities
    rng = np.random.default_rng(43)
    for m in (0, 3, 400):
        stack = np.array([[random_unit(rng) for _ in range(m)] for _ in range(6)]).reshape(6, m, 4)
        batch = gprod(stack)
        assert batch.shape == (6, 4)
        for row, qs in zip(batch, stack):
            assert row.tobytes() == group_product(qs).tobytes()
            assert gprod(*qs).tobytes() == row.tobytes()


def test_norm_and_normalize_stack_match_rows_exactly():
    # np.linalg.norm(axis=-1) differs in the last bit from the row-by-row
    # np.dot on a share of rows; the kernels must not
    stack = np.random.default_rng(47).normal(size=(4000, 4))
    norms = norm(stack)
    unit = stack / norms[:, None]
    for q, n, u in zip(stack, norms, unit):
        assert n == row_norm(q) == norm(q)
        assert u.tobytes() == (q / row_norm(q)).tobytes() == (q / norm(q)).tobytes()


def test_gprod_of_stacked_factors_matches_rows_exactly():
    rng = np.random.default_rng(45)
    a, b, c = (np.stack([random_unit(rng) for _ in range(50)]) for _ in range(3))
    for row, qa, qb, qc in zip(gprod(a, b, c), a, b, c):
        assert row.tobytes() == group_product([qa, qb, qc]).tobytes()


def test_ufuncs_give_scalar_bits_on_arrays():
    # stacked paths (axis_angle, the submersion certificate, the morse chart)
    # match their one-sample calls only if these ufuncs round an array
    # element as they round the same float alone; SIMD loops of numpy may
    # not on every CPU
    rng = np.random.default_rng(51)
    x = np.concatenate([rng.uniform(-10.0, 10.0, 10000), rng.normal(scale=1e-3, size=10000)])
    y = rng.permutation(x)
    for name, args in (("arctan2", (np.abs(x), y)), ("sin", (x,)), ("cos", (x,)), ("hypot", (x, y))):
        fn = getattr(np, name)
        singles = np.array([fn(*floats) for floats in zip(*(a.tolist() for a in args))])
        assert fn(*args).tobytes() == singles.tobytes(), name
