"""Representation containers, fingerprints, the sign-flip involution
(``make_reps(-meridians)``), and the binary dihedral torus parametrization."""

import numpy as np
import pytest

from charvar import campaign
from charvar.cover import pushforwards
from charvar.errors import (
    ConstraintViolated,
    NotBinaryDihedral,
    NotTraceless,
    ProductNotIdentity,
    RelationViolated,
)
from charvar.campaign import random_draws
from charvar.quat import I, J, K, ONE, conjugate, exp_pure, qmul, random_unit
from charvar.rep import (
    Fingerprint,
    PuncturedSphereRep,
    SurfaceRep,
    angles_from_bd,
    bd_from_angles,
    complete_rep,
    complete_reps,
    conjugate_rep,
    fingerprint,
    fingerprint_batch,
    fingerprint_digest,
    fingerprint_distances,
    make_rep,
    make_reps,
    make_surface_rep,
    make_surface_reps,
    surface_to_json,
    word_indices,
)
from charvar.variety import conjugator_search, enumerate_abelian, sample_point, sample_points


class TestConstruction:
    def test_make_rep_valid(self):
        r = make_rep([I, J, -K])
        assert r.k == 3
        assert np.array_equal(r.meridians[1], J)

    def test_make_rep_rejects_bad_product(self):
        with pytest.raises(ProductNotIdentity):
            make_rep([I, J, K])

    def test_make_rep_rejects_non_traceless(self):
        with pytest.raises(NotTraceless) as exc:
            make_rep([I, np.array([0.6, 0.8, 0.0, 0.0]), -K])
        assert exc.value.index == 1

    def test_complete_rep_closes_product(self):
        # ij = k is traceless, so the completion appends k^-1 = -k
        r = complete_rep([I, J])
        assert r.k == 3
        assert np.allclose(r.meridians[2], -K, atol=1e-15)
        # a partial whose product has nonzero real part cannot close
        with pytest.raises(ConstraintViolated):
            complete_rep([I, I])
        # no meridians: the empty product 1 is not traceless
        for empty in ([], np.zeros((0, 4))):
            with pytest.raises(ConstraintViolated):
                complete_rep(empty)

    def test_surface_relation_enforced(self):
        with pytest.raises(RelationViolated):
            make_surface_rep(I, J, K, qmul(I, J))
        s = make_surface_rep(ONE, ONE, ONE, ONE)
        assert all(np.array_equal(g, ONE) for g in s.generators())


class TestFingerprint:
    def test_k3_anchor(self):
        # [i, j, -k]: every proper subword is traceless, the full word is
        # ij(-k) = k(-k) = 1; worked out from the multiplication table
        fp = fingerprint(make_rep([I, J, -K]))
        assert fp.labels == ("x1", "x2", "x3", "x1*x2", "x1*x3", "x2*x3", "x1*x2*x3")
        assert np.allclose(fp.values, [0, 0, 0, 0, 0, 0, 1], atol=1e-15)

    def test_word_count_k6(self):
        # singles + pairs + triples of 6 indices: 6 + 15 + 20
        assert len(word_indices(6)) == 41

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(23)
        r = sample_point(6, rng)
        g = random_unit(rng)
        assert fingerprint(r).distance(fingerprint(conjugate_rep(g, r))) <= 1e-13

    def test_batch_matches_single(self, monkeypatch):
        # fingerprint_batch does not depend on how the stack is chunked, and
        # fingerprint is the same kernel on one representation
        def rows(keys, rngs):
            return list(fingerprint_batch(sample_points(6, rngs)))

        monkeypatch.setattr(campaign, "CHUNK", 16)
        chunked = np.stack(campaign.chunked(29, (), 40, rows))
        monkeypatch.setattr(campaign, "CHUNK", 256)
        whole = np.stack(campaign.chunked(29, (), 40, rows))
        assert chunked.tobytes() == whole.tobytes()
        for i, row in enumerate(whole):
            assert row.tobytes() == fingerprint(sample_point(6, np.random.default_rng((29, i)))).values.tobytes()

    def test_distance_separates_random_classes(self):
        # distinct random classes should separate by far more than FP_TOL;
        # any collision must be an actual conjugacy, certified by a search
        fps = []
        for i in range(120):
            fps.append(fingerprint(sample_point(6, np.random.default_rng((41, i)))))
        close_pairs = 0
        for a in range(len(fps)):
            for b in range(a + 1, len(fps)):
                if fps[a].distance(fps[b]) <= 1e-6:
                    close_pairs += 1
        assert close_pairs == 0

    def test_distances_rows_are_fingerprint_distance(self):
        fps = [fingerprint(sample_point(6, np.random.default_rng((43, i)))) for i in range(12)]
        a, b = (np.stack([fp.values for fp in half]) for half in (fps[:6], fps[6:]))
        rows = fingerprint_distances(a, b)
        assert rows.shape == (6,)
        for row, fa, fb in zip(rows.tolist(), fps[:6], fps[6:]):
            assert row == fa.distance(fb)
        # one fingerprint broadcast against a stack
        assert fingerprint_distances(a, b[0]).tolist() == [fa.distance(fps[6]) for fa in fps[:6]]

    def test_digest_stability(self):
        r = make_rep([I, J, -K])
        # conjugating by i flips signs of some exact zeros; the digest
        # must not see -0.0
        r2 = conjugate_rep(I, r)
        assert fingerprint_digest(fingerprint(r).values) == fingerprint_digest(fingerprint(r2).values)
        other = fingerprint(sample_point(6, np.random.default_rng(2)))
        assert fingerprint_digest(other.values) != fingerprint_digest(fingerprint(r).values)

    def test_digest_splits_close_fingerprints_at_a_rounding_boundary(self):
        # 2e-17 apart, one value on each side of 0.5e-9: close() holds, but
        # rounding to 9 decimals sends them to 0 and 1e-9
        a = Fingerprint(("x1",), np.array([0.5e-9 - 1e-17]))
        b = Fingerprint(("x1",), np.array([0.5e-9 + 1e-17]))
        assert a.close(b)
        assert fingerprint_digest(a.values) != fingerprint_digest(b.values)


class TestAlphaStar:
    """alpha* negates every meridian: ``make_reps(-meridians)``."""

    def test_involution(self):
        m = sample_points(6, [np.random.default_rng(31)])
        assert np.array_equal(make_reps(-make_reps(-m)), m)

    def test_flips_all_meridians(self):
        m = make_reps(np.array([[I, J, -J, -I]]))
        assert np.array_equal(make_reps(-m), -m)

    def test_rejects_odd_k(self):
        # an odd number of sign flips negates the product
        with pytest.raises(ProductNotIdentity):
            make_reps(-make_reps(np.array([[I, J, -K]])))

    def test_fixes_binary_dihedral_class(self):
        bd = bd_from_angles(np.array([[0.4, 1.9, 2.6, 5.1]]))
        assert fingerprint_distances(*fingerprint_batch(np.concatenate([bd, make_reps(-bd)]))) <= 1e-12

    def test_moves_generic_class(self):
        r = sample_points(6, [np.random.default_rng(37)])
        assert fingerprint_distances(*fingerprint_batch(np.concatenate([r, make_reps(-r)]))) > 1e-3


class TestConjugatorSearch:
    def test_recovers_known_conjugator(self):
        rng = np.random.default_rng(43)
        r = sample_point(6, rng)
        g = random_unit(rng)
        found = conjugator_search(r, conjugate_rep(g, r))
        assert found is not None
        worst = max(
            float(np.linalg.norm(conjugate_rep(found, r).meridians[i] - conjugate_rep(g, r).meridians[i]))
            for i in range(6)
        )
        assert worst <= 1e-7

    def test_sign_flip_of_axis_reps(self):
        # (i,i,i,i) and (-i,-i,-i,-i) are conjugate by j
        a = make_rep([I, I, -I, -I])
        b = make_rep([-I, -I, I, I])
        found = conjugator_search(a, b)
        assert found is not None

    def test_distinct_classes_fail(self):
        a = sample_point(6, np.random.default_rng(47))
        b = sample_point(6, np.random.default_rng(48))
        assert conjugator_search(a, b) is None

    @staticmethod
    def worst_residual(g, a, b):
        return max(float(np.linalg.norm(conjugate(g, qa) - qb)) for qa, qb in zip(a.meridians, b.meridians))

    @pytest.mark.parametrize("k", [4, 6, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_conjugate_found_independent_refused(self, k, seed):
        rng = np.random.default_rng((53, k, seed))
        a = sample_point(k, rng)
        b = conjugate_rep(random_unit(rng), a)
        found = conjugator_search(a, b)
        assert found is not None
        assert self.worst_residual(found, a, b) <= 1e-12
        assert conjugator_search(a, sample_point(k, rng)) is None

    def test_binary_dihedral_pair(self):
        # rank-2 directions: the SVD has a null direction and is not unique
        rng = np.random.default_rng(59)
        a = PuncturedSphereRep(bd_from_angles(rng.uniform(0.0, 2.0 * np.pi, size=(1, 4)))[0])
        b = conjugate_rep(random_unit(rng), a)
        found = conjugator_search(a, b)
        assert found is not None
        assert self.worst_residual(found, a, b) <= 1e-12

    def test_abelian_points_conjugate_only_to_themselves(self):
        reps = [PuncturedSphereRep(m) for m in enumerate_abelian(6)]
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                assert (conjugator_search(a, b) is not None) == (i == j), (i, j)

    def test_generic_point_not_conjugate_to_its_sign_flip(self):
        r = sample_point(6, np.random.default_rng(61))
        assert conjugator_search(r, make_rep(-r.meridians)) is None


class TestTorus:
    def test_bd_product_closes_exactly(self):
        for n in (2, 3, 4, 5):
            rng = np.random.default_rng((53, n))
            bd = bd_from_angles(rng.uniform(0.0, 2.0 * np.pi, (1, 2 * n - 2)))
            assert bd.shape == (1, 2 * n, 4)
            assert np.max(np.abs(bd[..., 0])) <= 1e-15

    def test_round_trip_up_to_mirror(self):
        for n in (2, 3, 4):
            rng = np.random.default_rng((59, n))
            thetas = rng.uniform(0.0, 2.0 * np.pi, 2 * n - 2)
            rec = angles_from_bd(bd_from_angles(thetas[None]))[0]
            direct = np.max(np.abs(np.mod(rec - thetas + np.pi, 2 * np.pi) - np.pi))
            mirror = np.max(np.abs(np.mod(rec + thetas + np.pi, 2 * np.pi) - np.pi))
            assert min(direct, mirror) <= 1e-9

    def test_rejects_generic_input(self):
        r = sample_points(6, [np.random.default_rng(61)])
        with pytest.raises(NotBinaryDihedral):
            angles_from_bd(r)

    def test_rejects_odd_k(self):
        with pytest.raises(NotBinaryDihedral, match="needs even k >= 4, got k = 3"):
            angles_from_bd(np.stack([make_rep([I, J, -K]).meridians] * 2))


def torus_inputs(n: int) -> dict[str, np.ndarray]:
    """Binary dihedral and abelian (N, 2n, 4) stacks, each as built and
    conjugated by a random unit, which moves the plane of the directions
    off the i-j plane and the abelian axis off i."""
    thetas = np.random.default_rng((17, n)).uniform(0.0, 2.0 * np.pi, size=(40, 2 * n - 2))
    bd = bd_from_angles(thetas)
    g = np.stack([random_unit(np.random.default_rng((18, n, i))) for i in range(40)])
    abelian = enumerate_abelian(2 * n)
    h = np.stack([random_unit(np.random.default_rng((19, n, i))) for i in range(len(abelian))])
    return {
        "bd": bd,
        "bd_conjugated": conjugate(g[:, None], bd),
        "abelian": abelian,
        "abelian_conjugated": conjugate(h[:, None], abelian),
    }


class TestAnglesFromBd:
    def test_torus_bytes_are_pinned(self, digest):
        # recorded from one-row calls, with numpy 2.4 on x86-64 Linux; the
        # stack gives the same bytes
        pinned = {
            2: ("57f2ce4d46a9cf80", "a6714be657df0389", "0694dc092d18b9b2", "7993a02f347b1344"),
            3: ("e8880bb272d7290b", "641b87bfcf712aad", "9dd2d81bdc1295b0", "eafc6b28c97c314f"),
            4: ("79b1b6e18b62a833", "79e03f75f1258406", "0ef1622ebf800115", "05c11b3c1ae51d15"),
            5: ("e9ba544398f6972e", "9574b52d34b0e64a", "0eca81af48e1db4f", "b50b0d6a6d24247e"),
        }
        for n, wants in pinned.items():
            for stack, want in zip(torus_inputs(n).values(), wants):
                rows = np.concatenate([angles_from_bd(m[None]) for m in stack])
                assert digest(rows) == want
                assert digest(angles_from_bd(stack)) == want

    def test_inverts_bd_from_angles_up_to_mirror(self):
        thetas = np.random.default_rng(71).uniform(0.0, 2.0 * np.pi, size=(100, 6))
        rec = angles_from_bd(bd_from_angles(thetas))
        assert rec.shape == thetas.shape
        assert np.all((rec >= 0.0) & (rec < 2.0 * np.pi))
        gaps = [np.abs(np.mod(rec - sign * thetas + np.pi, 2 * np.pi) - np.pi).max(axis=1) for sign in (1, -1)]
        assert np.minimum(*gaps).max() <= 1e-9

    def test_rank3_row_raises_with_its_row(self):
        stack = torus_inputs(3)["bd"][:6].copy()
        stack[4] = sample_point(6, np.random.default_rng(61)).meridians
        message = "meridian directions span rank 3, not a planar family"
        with pytest.raises(NotBinaryDihedral, match=message) as exc:
            angles_from_bd(stack)
        assert exc.value.row == 4


class TestSerialization:
    def test_surface_round_trip(self):
        # the JSON fields hold every generator, read back exactly
        s = make_surface_rep(ONE, exp_pure(0.3, I), ONE, exp_pure(1.2, I))
        data = surface_to_json(np.stack(s.generators()))
        assert data["kind"] == "surface"
        assert list(data["generators"]) == ["r1", "s1", "r2", "s2"]
        for name, g in zip(data["generators"], s.generators()):
            assert np.array_equal(np.array(data["generators"][name]), g)


def _stacked_rows(monkeypatch, seed, stacked, inputs):
    """Pairs (input, row) of ``stacked`` on the campaign inputs ``inputs(rngs)``
    of 40 samples keyed (seed, i), after checking that chunks of 16 give
    the same bytes as one stack."""

    def rows(keys, rngs):
        return list(stacked(inputs(rngs)))

    monkeypatch.setattr(campaign, "CHUNK", 16)
    chunked = np.stack(campaign.chunked(seed, (), 40, rows))
    monkeypatch.setattr(campaign, "CHUNK", 256)
    whole = np.stack(campaign.chunked(seed, (), 40, rows))
    assert chunked.tobytes() == whole.tobytes()
    return zip(campaign.chunked(seed, (), 40, lambda keys, rngs: list(inputs(rngs))), whole)


def _perturbed(rngs, k):
    """Samples of R(S^2, k) with each meridian scaled off unit norm by up to
    1e-8, so that the constructors renormalize.  The scale is read off the
    sample (1e-8 times its i coordinate): a campaign draws from its
    generators in one pass."""
    points = sample_points(k, rngs)
    return points * (1.0 + 1e-8 * points[..., 1:2])


class TestStackedConstructors:
    """The stacked constructors are the one implementation: a row does not
    depend on the rows stacked with it, and each one-sample constructor is
    a one-row call of its stacked form."""

    def test_make_reps(self, monkeypatch):
        for m, row in _stacked_rows(monkeypatch, 3, make_reps, lambda rngs: _perturbed(rngs, 6)):
            assert make_rep(m).meridians.tobytes() == row.tobytes()

    def test_complete_reps(self, monkeypatch):
        for part, row in _stacked_rows(monkeypatch, 5, complete_reps, lambda rngs: _perturbed(rngs, 7)[:, :-1]):
            assert complete_rep(part).meridians.tobytes() == row.tobytes()

    def test_make_surface_reps(self, monkeypatch):
        def inputs(rngs):
            return pushforwards(sample_points(6, rngs)) * (1.0 + 1e-9)

        for gens, row in _stacked_rows(monkeypatch, 7, make_surface_reps, inputs):
            assert np.stack(make_surface_rep(*gens).generators()).tobytes() == row.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_bd_from_angles(self, n, monkeypatch):
        # angles on both sides of [0, 2 pi)
        def angles(rngs):
            return random_draws(rngs, [("uniform", 2 * n - 2, -10.0, 10.0)])[0]

        for _, row in _stacked_rows(monkeypatch, 11, bd_from_angles, angles):
            assert row.shape == (2 * n, 4)

    def test_bd_from_angles_rejects_odd_angle_counts(self):
        with pytest.raises(ValueError):
            bd_from_angles(np.zeros((2, 3)))


V = [I, J, -J, -I]
TILTED = np.array([0.6, 0.8, 0.0, 0.0])  # a unit quaternion with re = 0.6
ONE_ROW = {
    make_reps: make_rep,
    complete_reps: complete_rep,
    make_surface_reps: lambda gens: make_surface_rep(*gens),
}


@pytest.mark.parametrize(
    "stacked,stack,kind,message,row",
    [
        pytest.param(
            make_reps,
            [V, [I, J, 1.5 * J, 0.5 * ONE], [I, TILTED, -J, -I]],
            ValueError,
            "meridian 2 is not a unit quaternion: |q| = 1.500000",
            1,
            id="make_reps-unit",
        ),
        pytest.param(
            make_reps,
            [V, V, [I, TILTED, -J, -I]],
            NotTraceless,
            "meridian 1 is not traceless: re = 6.000e-01",
            2,
            id="make_reps-traceless",
        ),
        pytest.param(
            make_reps,
            [V, [I, J, K, J], V],
            ProductNotIdentity,
            "meridian product differs from 1 by 1.414e+00",
            1,
            id="make_reps-product",
        ),
        pytest.param(
            complete_reps,
            [[I, J, -J], [2 * I, J, K], [I, 1.5 * J, -J]],
            ConstraintViolated,
            "partial product has re = -1.000e+00, not on the variety",
            1,
            id="complete_reps-constraint",
        ),
        pytest.param(
            complete_reps,
            [[I, J, -J], [I, 1.5 * J, -J]],
            ValueError,
            "meridian 1 is not a unit quaternion: |q| = 1.500000",
            1,
            id="complete_reps-unit",
        ),
        pytest.param(
            make_surface_reps,
            [[ONE] * 4, [ONE, ONE, 2 * ONE, 3 * ONE]],
            ValueError,
            "generator r2 is not a unit quaternion: |q| = 2.000000",
            1,
            id="make_surface_reps-unit",
        ),
        pytest.param(
            make_surface_reps,
            [[ONE] * 4, [ONE] * 4, [I, J, K, qmul(I, J)]],
            RelationViolated,
            "surface relation residual 2.000e+00",
            2,
            id="make_surface_reps-relation",
        ),
    ],
)
def test_rejected_stacks_raise_for_their_first_row(stacked, stack, kind, message, row):
    # a row meets the checks in the order of the one-sample constructor,
    # and the stack raises for its first rejected row with exc.row set; the
    # one-row call on that row raises the same without a row
    stack = np.array(stack, dtype=float)
    with pytest.raises(ValueError) as exc:
        stacked(stack)
    assert (type(exc.value), str(exc.value), exc.value.row) == (kind, message, row)
    with pytest.raises(ValueError) as exc:
        ONE_ROW[stacked](stack[row])
    assert (type(exc.value), str(exc.value), getattr(exc.value, "row", None)) == (kind, message, None)
