"""The quaternion kernels, the constructors, the sampler, the submersion
certificates, the cover and the morse chart against an independent model: SU(2)
as complex 2x2 matrices, where w + xi + yj + zk is
[[w + ix, y + iz], [-y + iz, w - ix]] and every product is a complex
matmul.  No code of charvar computes what these tests compare against."""

import functools
import itertools

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.linalg import inv

from charvar.cover import (
    LEMMA_TOL,
    lemma52_stack,
    lemma_branch_inputs,
    lifts,
    pushforwards,
    section_inputs,
    surface_samples,
)
from charvar.morse import eval_chart_g
from charvar.quat import I, J, K, ONE, commutator_defect, exp_pure, qmul
from charvar.rep import (
    GENERATOR_NAMES,
    SurfaceRep,
    bd_from_angles,
    complete_reps,
    fingerprint,
    fingerprint_batch,
    relation_residuals,
    sphere_names,
    word_labels,
)
from charvar.variety import (
    RANK_TOL_FACTOR,
    conjugation_ranks,
    deform,
    enumerate_abelian,
    sample_points,
    submersion_certificates,
)

# unit-scale entries: a product of a few of them rounds to within a few
# ulps of 1, far inside this bound
MODEL_TOL = 1e-12

components = st.floats(-1.0, 1.0)
quaternions = st.tuples(*[components] * 4).map(np.array)
seeds = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6, unique=True)


def su2(q):
    """The matrices of a (..., 4) stack of quaternions, (..., 2, 2)."""
    w, x, y, z = np.moveaxis(np.asarray(q), -1, 0)
    return np.stack([np.stack([w + 1j * x, y + 1j * z], -1), np.stack([-y + 1j * z, w - 1j * x], -1)], -2)


def half_trace(m):
    return np.trace(m, axis1=-2, axis2=-1).real / 2


def rngs_of(keys):
    return [np.random.default_rng(key) for key in keys]


def assert_close(got, want, tol=MODEL_TOL):
    assert float(np.max(np.abs(got - want))) <= tol


def assert_traceless_relations(meridians):
    """Each row of an (N, k, 4) stack is k traceless SU(2) matrices whose
    ordered product is the identity."""
    X = su2(meridians)
    assert_close(np.trace(X, axis1=-2, axis2=-1), 0.0)
    assert_close(X @ np.conj(np.swapaxes(X, -1, -2)), np.eye(2))
    assert_close(functools.reduce(np.matmul, np.moveaxis(X, 1, 0)), np.eye(2))


class TestKernels:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(quaternions, quaternions)
    def test_qmul_is_matmul(self, a, b):
        assert_close(su2(qmul(a, b)), su2(a) @ su2(b))
        assert_close(su2(qmul(a[None], b[None])[0]), su2(a) @ su2(b))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(quaternions, quaternions)
    def test_commutator_defect_is_uv_minus_vu(self, u, v):
        U, V = su2(u), su2(v)
        assert_close(su2(commutator_defect(u, v)), U @ V - V @ U)
        assert_close(su2(commutator_defect(u[None], v[None])[0]), U @ V - V @ U)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(*[quaternions.filter(lambda q: np.linalg.norm(q) > 0.1)] * 4), min_size=1), seeds)
    def test_relation_residuals_are_the_distance_of_the_relation_from_one(self, quads, keys):
        # random unit quadruples, whose relation fails, and surface samples,
        # where it holds; |q| is the Frobenius norm of its matrix over sqrt 2
        units = np.array(quads)
        units /= np.linalg.norm(units, axis=-1, keepdims=True)
        gens = np.concatenate([units, surface_samples(rngs_of(keys))])
        R1, S1, R2, S2 = su2(gens).transpose(1, 0, 2, 3)
        relation = R1 @ S1 @ inv(R1) @ inv(S1) @ R2 @ S2 @ inv(R2) @ inv(S2)
        want = np.linalg.norm(relation - np.eye(2), axis=(-2, -1)) / np.sqrt(2.0)
        assert_close(relation_residuals(gens), want)


class TestVariety:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(3, 12), seeds)
    def test_sample_points_are_traceless_relations(self, k, keys):
        assert_traceless_relations(sample_points(k, rngs_of(keys)))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(3, 12), seeds)
    def test_complete_reps_close_the_relation(self, k, keys):
        # sign flips keep re(q_1 ... q_{k-1}) = 0, so each partial tuple of
        # flipped samples has a completion
        partial = sample_points(k, rngs_of(keys))[:, :-1]
        partial = partial * np.random.default_rng(keys).choice([-1.0, 1.0], size=partial.shape[:2])[..., None]
        rows = complete_reps(partial)
        assert_traceless_relations(rows)
        assert_close(su2(rows[:, :-1]), su2(partial))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(2, 6), seeds)
    def test_bd_from_angles_are_planar_traceless_relations(self, n, keys):
        thetas = np.stack([np.random.default_rng(key).uniform(-10.0, 10.0, size=2 * n - 2) for key in keys])
        rows = bd_from_angles(thetas)
        assert_traceless_relations(rows)
        # the direction (x, y, z) of a traceless x i + y j + z k read off
        # its matrix [[i x, y + i z], ...]
        X = su2(rows)
        directions = np.stack([X[..., 0, 0].imag, X[..., 0, 1].real, X[..., 0, 1].imag], axis=-1)
        assert (np.linalg.matrix_rank(directions, tol=1e-9) <= 2).all()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(3, 12), seeds)
    def test_certificate_derivative_is_the_slope_of_the_half_trace(self, k, keys):
        parts = sample_points(k, rngs_of(keys))[:, :-1]
        cert = submersion_certificates(parts)
        step = 1e-5

        def f(t):
            X = su2(deform(parts, cert, t))
            return half_trace(functools.reduce(np.matmul, np.moveaxis(X, 1, 0)))

        assert_close((f(step) - f(-step)) / (2.0 * step), cert.derivative, tol=1e-6)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.integers(2, 5), seeds)
    def test_conjugation_rank_is_the_rank_of_the_brackets(self, n, keys):
        k = 2 * n
        thetas = np.stack([np.random.default_rng(key).uniform(-10.0, 10.0, size=k - 2) for key in keys])
        abelian = enumerate_abelian(k)
        parts = np.concatenate([sample_points(k, rngs_of(keys)), bd_from_angles(thetas), abelian])[:, :-1]
        # [X, Q_a] for X in the su(2) basis, one row of real coordinates per X
        X, Q = su2(np.stack([I, J, K]))[:, None], su2(parts)[:, None]
        brackets = (X @ Q - Q @ X).reshape(len(parts), 3, -1)
        svals = np.linalg.svd(np.concatenate([brackets.real, brackets.imag], axis=-1), compute_uv=False)
        want = np.sum(svals > RANK_TOL_FACTOR * svals[:, :1], axis=-1)
        assert np.array_equal(conjugation_ranks(parts), want)
        # abelian tuples are fixed by a circle of conjugations
        assert (want[-len(abelian) :] == 2).all() and (want[: -len(abelian)] == 3).all()


class TestChart:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.integers(min_value=2, max_value=6), seeds)
    def test_chart_function_is_half_trace_of_the_product(self, n, keys):
        # g(z) = re(i * prod_l i e^{x_l j + y_l k}), where e^V = cos|V| +
        # sin|V| V / |V| for the pure V = x j + y k; the last row has zeros
        m = 2 * n - 2
        zs = np.stack([0.7 * (rng.normal(size=m) + 1j * rng.normal(size=m)) for rng in rngs_of(keys)])
        zs[-1, ::2] = 0.0
        r = np.abs(zs)[..., None, None]
        V = su2(np.stack([np.zeros(zs.shape), np.zeros(zs.shape), zs.real, zs.imag], -1))
        factors = su2(I) @ (np.cos(r) * np.eye(2) + np.sinc(r / np.pi) * V)
        product = functools.reduce(np.matmul, np.moveaxis(factors, 1, 0), su2(I))
        assert_close(eval_chart_g(n, zs), half_trace(product))


class TestCover:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seeds)
    def test_pushforwards_are_the_generator_words(self, keys):
        meridians = sample_points(6, rngs_of(keys))
        X = su2(meridians).transpose(1, 0, 2, 3)
        want = [X[0] @ X[1], inv(X[2]) @ inv(X[1]), X[3] @ X[4], inv(X[5]) @ inv(X[4])]
        got = su2(pushforwards(meridians))
        for g, w in zip(got.transpose(1, 0, 2, 3), want):
            assert_close(g, w)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seeds)
    def test_lifts_are_traceless_relations_with_the_input_words(self, keys):
        gens = surface_samples(rngs_of(keys))
        R1, S1, R2, S2 = su2(gens).transpose(1, 0, 2, 3)
        for sheet in lifts(gens).transpose(1, 0, 2, 3):
            X = su2(sheet).transpose(1, 0, 2, 3)
            assert_close(np.trace(X, axis1=-2, axis2=-1), 0.0)
            assert_close(X[0] @ X[1] @ X[2] @ X[3] @ X[4] @ X[5], np.eye(2))
            assert_close(X[0] @ X[1], R1)
            assert_close(inv(X[2]) @ inv(X[1]), S1)
            assert_close(X[3] @ X[4], R2)
            assert_close(inv(X[5]) @ inv(X[4]), S2)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seeds, st.lists(st.tuples(st.integers(2, 7), st.integers(0, 10**6)), max_size=6))
    def test_lemma52_solution_kills_six_traces(self, keys, constructed):
        # section inputs of surface samples, the anchors of rungs 1 and 7
        # (all central, a common axis i) and constructed inputs of rungs 2..7
        quads = list(zip(*section_inputs(surface_samples(rngs_of(keys)))[:4]))
        quads += [(I, J, -J, -I), (ONE, ONE, ONE, ONE), tuple(exp_pure(t, I) for t in (0.3, 1.1, -0.4, 2.0))]
        rngs = [np.random.default_rng(key) for _, key in constructed]
        quads += list(zip(*lemma_branch_inputs([branch for branch, _ in constructed], rngs)))
        a, b, c, d = (np.stack(v) for v in zip(*quads))
        x, _, _ = lemma52_stack(a, b, c, d)
        X, A, B, C, D = (su2(v) for v in (x, a, b, c, d))
        for word in (X, X @ A, X @ B, X @ C, X @ D, X @ inv(A @ B @ C @ D)):
            # the solver's residuals are the real parts, half the traces
            assert_close(half_trace(word), 0.0, LEMMA_TOL)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(3, 8), seeds)
    def test_fingerprint_batch_is_half_trace_of_each_word(self, k, keys):
        meridians = sample_points(k, rngs_of(keys))
        X = su2(meridians)
        names = sphere_names(k)
        words = [w for n in (1, 2, 3) for w in itertools.combinations(range(k), n)]
        assert word_labels(names) == tuple("*".join(names[i] for i in w) for w in words)
        want = np.stack([half_trace(functools.reduce(np.matmul, [X[:, i] for i in w])) for w in words], axis=-1)
        assert_close(fingerprint_batch(meridians), want)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seeds)
    def test_surface_fingerprint_is_half_trace_of_each_generator_word(self, keys):
        words = [w for n in (1, 2, 3) for w in itertools.combinations(range(4), n)]
        labels = tuple("*".join(GENERATOR_NAMES[i] for i in w) for w in words)
        for gens in surface_samples(rngs_of(keys)):
            fp = fingerprint(SurfaceRep(*gens))
            X = su2(gens)
            assert fp.labels == labels
            assert_close(fp.values, np.array([half_trace(functools.reduce(np.matmul, X[list(w)])) for w in words]))
