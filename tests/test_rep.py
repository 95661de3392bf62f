"""Representation containers, fingerprints, the sign-flip involution, and
the binary dihedral torus parametrization."""

import numpy as np
import pytest

from charvar.errors import NotBinaryDihedral, NotTraceless, ProductNotIdentity, RelationViolated
from charvar.quat import I, J, K, ONE, conjugate, exp_pure, qmul, random_unit
from charvar.rep import (
    Fingerprint,
    PuncturedSphereRep,
    SurfaceRep,
    TorusCoords,
    alpha_star,
    bd_from_torus,
    complete_rep,
    conjugate_rep,
    fingerprint,
    fingerprint_batch,
    fingerprint_csv,
    fingerprint_digest,
    from_json,
    make_rep,
    make_surface_rep,
    rep_to_json,
    surface_to_json,
    torus_from_bd,
    word_indices,
)
from charvar.variety import conjugator_search, enumerate_abelian, sample_point


class TestConstruction:
    def test_make_rep_valid(self):
        r = make_rep([I, J, -K])
        assert r.k == 3
        assert np.array_equal(r.meridian(1), J)

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
        assert np.allclose(r.meridian(2), -K, atol=1e-15)
        # a partial whose product has nonzero real part cannot close
        from charvar.errors import ConstraintViolated

        with pytest.raises(ConstraintViolated):
            complete_rep([I, I])

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

    def test_batch_matches_single(self):
        rng = np.random.default_rng(29)
        reps = [sample_point(6, np.random.default_rng((29, i))) for i in range(8)]
        batch = fingerprint_batch(np.stack([r.meridians for r in reps]))
        for row, r in zip(batch, reps):
            assert np.array_equal(row, fingerprint(r).values)

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

    def test_digest_stability(self):
        r = make_rep([I, J, -K])
        # conjugating by i flips signs of some exact zeros; the digest
        # must not see -0.0
        r2 = conjugate_rep(I, r)
        assert fingerprint_digest(fingerprint(r)) == fingerprint_digest(fingerprint(r2))
        other = fingerprint(sample_point(6, np.random.default_rng(2)))
        assert fingerprint_digest(other) != fingerprint_digest(fingerprint(r))

    def test_digest_splits_close_fingerprints_at_a_rounding_boundary(self):
        # 2e-17 apart, one value on each side of 0.5e-9: close() holds, but
        # rounding to 9 decimals sends them to 0 and 1e-9
        a = Fingerprint(("x1",), np.array([0.5e-9 - 1e-17]))
        b = Fingerprint(("x1",), np.array([0.5e-9 + 1e-17]))
        assert a.close(b)
        assert fingerprint_digest(a) != fingerprint_digest(b)

    def test_csv_round_trip_values(self):
        fp = fingerprint(make_rep([I, J, -K]))
        text = fingerprint_csv(fp)
        lines = text.strip().splitlines()
        assert lines[0].split(",")[0] == "word"
        assert len(lines) == 1 + len(fp.labels)


class TestAlphaStar:
    def test_involution(self):
        r = sample_point(6, np.random.default_rng(31))
        assert np.array_equal(alpha_star(alpha_star(r)).meridians, r.meridians)

    def test_flips_all_meridians(self):
        r = make_rep([I, J, -J, -I])
        assert np.array_equal(alpha_star(r).meridians, -r.meridians)

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            alpha_star(make_rep([I, J, -K]))

    def test_fixes_binary_dihedral_class(self):
        coords = TorusCoords(n=3, thetas=np.array([0.4, 1.9, 2.6, 5.1]))
        bd = bd_from_torus(coords)
        assert fingerprint(bd).distance(fingerprint(alpha_star(bd))) <= 1e-12

    def test_moves_generic_class(self):
        r = sample_point(6, np.random.default_rng(37))
        assert fingerprint(r).distance(fingerprint(alpha_star(r))) > 1e-3


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
        a = bd_from_torus(TorusCoords(n=3, thetas=rng.uniform(0.0, 2.0 * np.pi, size=4)))
        b = conjugate_rep(random_unit(rng), a)
        found = conjugator_search(a, b)
        assert found is not None
        assert self.worst_residual(found, a, b) <= 1e-12

    def test_abelian_points_conjugate_only_to_themselves(self):
        reps = enumerate_abelian(6)
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                assert (conjugator_search(a, b) is not None) == (i == j), (i, j)

    def test_generic_point_not_conjugate_to_its_sign_flip(self):
        r = sample_point(6, np.random.default_rng(61))
        assert conjugator_search(r, alpha_star(r)) is None


class TestTorus:
    def test_coords_validation(self):
        with pytest.raises(ValueError):
            TorusCoords(n=1, thetas=np.array([]))
        with pytest.raises(ValueError):
            TorusCoords(n=3, thetas=np.zeros(3))

    def test_bd_product_closes_exactly(self):
        for n in (2, 3, 4, 5):
            rng = np.random.default_rng((53, n))
            coords = TorusCoords(n=n, thetas=rng.uniform(0.0, 2.0 * np.pi, 2 * n - 2))
            bd = bd_from_torus(coords)
            assert bd.k == 2 * n
            assert np.max(np.abs(bd.meridians[:, 0])) <= 1e-15

    def test_round_trip_up_to_mirror(self):
        for n in (2, 3, 4):
            rng = np.random.default_rng((59, n))
            thetas = rng.uniform(0.0, 2.0 * np.pi, 2 * n - 2)
            rec = torus_from_bd(bd_from_torus(TorusCoords(n=n, thetas=thetas))).thetas
            direct = np.max(np.abs(np.mod(rec - thetas + np.pi, 2 * np.pi) - np.pi))
            mirror = np.max(np.abs(np.mod(rec + thetas + np.pi, 2 * np.pi) - np.pi))
            assert min(direct, mirror) <= 1e-9

    def test_rejects_generic_input(self):
        r = sample_point(6, np.random.default_rng(61))
        with pytest.raises(NotBinaryDihedral):
            torus_from_bd(r)

    def test_rejects_odd_k(self):
        with pytest.raises(NotBinaryDihedral):
            torus_from_bd(make_rep([I, J, -K]))


class TestSerialization:
    def test_sphere_round_trip(self):
        r = sample_point(5, np.random.default_rng(67))
        back = from_json(rep_to_json(r))
        assert isinstance(back, PuncturedSphereRep)
        # reconstruction may renormalize within an ulp
        assert np.allclose(back.meridians, r.meridians, atol=1e-15)

    def test_surface_round_trip(self):
        s = make_surface_rep(ONE, exp_pure(0.3, I), ONE, exp_pure(1.2, I))
        back = from_json(surface_to_json(s))
        assert isinstance(back, SurfaceRep)
        for g1, g2 in zip(back.generators(), s.generators()):
            assert np.array_equal(g1, g2)
