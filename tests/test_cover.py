"""The two-fold branched cover: pushforward, the explicit section, the
traceless-solution case ladder, and fiber enumeration."""

import numpy as np
import pytest

from charvar import selftest
from charvar.cover import (
    extend,
    fiber,
    fiber_to_json,
    fibers,
    lemma52_detailed,
    lemma52_solve,
    lemma52_stack,
    lemma_branch_inputs,
    lifts,
    pushforward,
    pushforwards,
    roundtrip_residual,
    roundtrip_residuals,
    section_inputs,
    surface_sample,
    surface_samples,
)
from charvar.errors import ConstraintViolated, RelationViolated
from charvar.quat import I, J, K, ONE, exp_pure, gprod, qmul, random_unit
from charvar.rep import (
    TorusCoords,
    alpha_star,
    bd_from_torus,
    fingerprint,
    make_rep,
    make_surface_rep,
)
from charvar.variety import BINARY_DIHEDRAL, GENERIC, classify_locus, enumerate_abelian, sample_point


class TestPushforward:
    def test_alternating_signs_give_trivial_surface(self):
        r = make_rep([I, -I, I, -I, I, -I])
        s = pushforward(r)
        for g in s.generators():
            assert np.allclose(g, ONE, atol=1e-15)

    def test_equal_axis_block_gives_central_surface(self):
        r = make_rep([I, I, I, -I, -I, -I])
        s = pushforward(r)
        for g in s.generators():
            assert np.allclose(g, -ONE, atol=1e-15)

    def test_requires_six_punctures(self):
        with pytest.raises(ValueError):
            pushforward(make_rep([I, J, -K]))

    def test_commutes_with_sign_involution(self):
        # meridian pairs with opposite signs multiply to the same generators
        for i in range(15):
            r = sample_point(6, np.random.default_rng((211, i)))
            s1 = pushforward(r)
            s2 = pushforward(alpha_star(r))
            for g1, g2 in zip(s1.generators(), s2.generators()):
                assert float(np.max(np.abs(g1 - g2))) <= 1e-15

    def test_dihedral_image_is_abelian(self):
        coords = TorusCoords(n=3, thetas=np.array([0.7, 1.8, 3.0, 4.9]))
        gens = pushforward(bd_from_torus(coords)).generators()
        for p in range(4):
            for q in range(p + 1, 4):
                defect = np.linalg.norm(qmul(gens[p], gens[q]) - qmul(gens[q], gens[p]))
                assert defect <= 1e-12


class TestCaseLadder:
    def test_first_pair_anchor(self):
        # ij - ji = 2k normalizes to k
        sol = lemma52_detailed(I, J, -J, -I)
        assert sol.branch == 1
        assert np.allclose(sol.x, K, atol=1e-15)
        assert float(sol.residuals.max()) == 0.0

    def test_all_central_anchor(self):
        sol = lemma52_detailed(ONE, ONE, ONE, ONE)
        assert sol.branch == 7
        assert np.allclose(sol.x, J, atol=1e-15)

    def test_common_axis_anchor(self):
        qs = [exp_pure(t, I) for t in (0.3, 1.1, -0.4, 2.0)]
        sol = lemma52_detailed(*qs)
        assert sol.branch == 7
        assert np.allclose(sol.x, J, atol=1e-15)
        assert float(sol.residuals.max()) <= 1e-12

    def test_common_axis_off_i(self):
        # axis away from +-i: x is the rotated j, still solving all six
        axis = np.array([0.0, 0.6, 0.8, 0.0])
        qs = [exp_pure(t, axis) for t in (0.5, 0.9, 1.7, -0.2)]
        sol = lemma52_detailed(*qs)
        assert sol.branch == 7
        assert float(sol.residuals.max()) <= 1e-12

    def test_invalid_input_rejected(self):
        with pytest.raises(ConstraintViolated):
            lemma52_detailed(I, J, K, J)

    def test_residuals_on_random_valid_inputs(self):
        worst = 0.0
        for i in range(200):
            surface = surface_sample(np.random.default_rng((223, i)))
            a, b, c, d, _ = section_inputs(surface)
            sol = lemma52_detailed(a, b, c, d)
            worst = max(worst, float(sol.residuals.max()))
        assert worst <= 1e-10

    def test_solve_returns_pure_unit(self):
        surface = surface_sample(np.random.default_rng(227))
        a, b, c, d, _ = section_inputs(surface)
        x = lemma52_solve(a, b, c, d)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert abs(x[0]) <= 1e-12


class TestExtend:
    def test_trivial_surface_lift(self):
        # the section at the trivial representation alternates j and -j
        lift = extend(make_surface_rep(ONE, ONE, ONE, ONE), 1)
        want = np.stack([J, -J, J, -J, J, -J])
        assert np.allclose(lift.meridians, want, atol=1e-15)

    def test_signs_are_sign_involution_partners(self):
        surface = surface_sample(np.random.default_rng(229))
        plus = extend(surface, 1)
        minus = extend(surface, -1)
        assert np.array_equal(minus.meridians, alpha_star(plus).meridians)

    def test_round_trip_both_signs(self):
        worst = 0.0
        for i in range(100):
            surface = surface_sample(np.random.default_rng((233, i)))
            for sign in (1, -1):
                back = pushforward(extend(surface, sign))
                for g1, g2 in zip(surface.generators(), back.generators()):
                    worst = max(worst, float(np.linalg.norm(g1 - g2)))
        assert worst <= 1e-9

    def test_rejects_invalid_sign(self):
        surface = surface_sample(np.random.default_rng(239))
        with pytest.raises(ValueError):
            extend(surface, 2)

    def test_rejects_off_image_surface(self):
        # generic commuting-free generators occasionally violate the branch
        # relation abcd = dcba; build one that does so explicitly
        r1 = exp_pure(0.4, I)
        s1 = exp_pure(0.9, J)
        r2 = exp_pure(1.3, K)
        # choose s2 so the surface relation holds but the branch relation fails
        from charvar.quat import commutator, qconj

        c12 = gprod(commutator(r1, s1), commutator(r2, np.array([0.0, 0.6, 0.8, 0.0])))
        if np.linalg.norm(c12 - ONE) > 1e-12:
            with pytest.raises((RelationViolated, ConstraintViolated, ValueError)):
                extend(make_surface_rep(r1, s1, r2, np.array([0.0, 0.6, 0.8, 0.0])), 1)


class TestFiber:
    def test_generic_fiber_is_two_classes(self):
        for i in range(25):
            rho = sample_point(6, np.random.default_rng((241, i)))
            report = fiber(pushforward(rho))
            assert not report.on_branch
            assert len(report.classes) == 2
            want = (fingerprint(rho), fingerprint(alpha_star(rho)))
            direct = max(report.classes[0].distance(want[0]), report.classes[1].distance(want[1]))
            crossed = max(report.classes[0].distance(want[1]), report.classes[1].distance(want[0]))
            assert min(direct, crossed) <= 1e-6

    def test_dihedral_fiber_is_one_class(self):
        for i in range(15):
            rng = np.random.default_rng((251, i))
            coords = TorusCoords(n=3, thetas=rng.uniform(0.0, 2.0 * np.pi, 4))
            report = fiber(pushforward(bd_from_torus(coords)))
            assert report.on_branch
            assert len(report.classes) == 1
            assert classify_locus(report.witnesses[0]).label != GENERIC

    def test_fiber_witnesses_push_back(self):
        rho = sample_point(6, np.random.default_rng(257))
        surface = pushforward(rho)
        report = fiber(surface)
        for witness in report.witnesses:
            back = pushforward(witness)
            for g1, g2 in zip(surface.generators(), back.generators()):
                assert np.linalg.norm(g1 - g2) <= 1e-9

    def test_json_shape(self):
        report = fiber(pushforward(sample_point(6, np.random.default_rng(263))))
        data = fiber_to_json(report)
        assert data["on_branch"] is False
        assert data["class_count"] == 2
        assert len(data["fingerprints"]) == 2


class TestStackedCover:
    """The stacked forms behind the cover campaigns give, row for row, the
    bits of the one-sample functions."""

    @pytest.mark.parametrize("seed", [0, 7, 31])
    def test_pipeline_matches_scalar(self, seed, monkeypatch):
        # chunks of 16 over 40 samples: the rows cross two chunk boundaries
        monkeypatch.setattr(selftest, "CHUNK", 16)

        def stacked(keys, rngs):
            gens = surface_samples(rngs)
            ladder = zip(*lemma52_stack(*section_inputs(gens)[:4]))
            return list(zip(keys, gens, ladder, lifts(gens), roundtrip_residuals(gens), fibers(gens)))

        rows = selftest.chunked(seed, (), 40, stacked)
        assert [key for key, *_ in rows] == [(seed, i) for i in range(40)]
        for key, gens, (x, rung, residuals), sheets, roundtrip, report in rows:
            surface = surface_sample(np.random.default_rng(key))
            assert np.stack(surface.generators()).tobytes() == gens.tobytes()
            sol = lemma52_detailed(*section_inputs(surface)[:4])
            assert (x.tobytes(), rung, residuals.tobytes()) == (sol.x.tobytes(), sol.branch, sol.residuals.tobytes())
            for sheet, sign in zip(sheets, (1, -1)):
                assert sheet.tobytes() == extend(surface, sign).meridians.tobytes()
            assert roundtrip.tolist() == [roundtrip_residual(surface, 1), roundtrip_residual(surface, -1)]
            want = fiber(surface)
            assert (report.separation, report.on_branch) == (want.separation, want.on_branch)
            assert [fp.values.tobytes() for fp in report.classes] == [fp.values.tobytes() for fp in want.classes]
            assert [w.meridians.tobytes() for w in report.witnesses] == [w.meridians.tobytes() for w in want.witnesses]

    def test_roundtrip_records_cross_a_chunk(self):
        count = selftest.CHUNK + 4
        records = selftest.roundtrip_records(3, (), count)
        assert len(records) == count
        for i, record in enumerate(records):
            surface = surface_sample(np.random.default_rng((3, i)))
            plus, minus = roundtrip_residual(surface, 1), roundtrip_residual(surface, -1)
            assert record == {"index": i, "seed": 3, "residuals": {"plus": plus, "minus": minus}}

    def test_ladder_matches_scalar_on_every_rung(self):
        # constructed inputs of rungs 2..7 (near-cutoff rungs 5 and 6, the
        # scalar common-axis rung 7) and the anchors, mixed in one stack
        quads = [(I, J, -J, -I), (ONE, ONE, ONE, ONE)]
        quads += [
            lemma_branch_inputs(branch, np.random.default_rng((5, branch, i)))
            for branch in (2, 3, 4, 5, 6, 7)
            for i in range(8)
        ]
        x, rung, residuals = lemma52_stack(*(np.stack(v) for v in zip(*quads)))
        assert rung.tolist() == [1, 7] + [b for b in (2, 3, 4, 5, 6, 7) for _ in range(8)]
        for quad, xr, br, rr in zip(quads, x, rung, residuals):
            sol = lemma52_detailed(*quad)
            assert (xr.tobytes(), br, rr.tobytes()) == (sol.x.tobytes(), sol.branch, sol.residuals.tobytes())

    def test_abelian_points_match_scalar(self):
        meridians = np.stack([r.meridians for r in enumerate_abelian(6)])
        for report, rep in zip(fibers(pushforwards(meridians)), enumerate_abelian(6)):
            want = fiber(pushforward(rep))
            assert report.on_branch and want.on_branch
            assert report.classes[0].values.tobytes() == want.classes[0].values.tobytes()

    def test_rejected_rows_raise_the_scalar_exception(self):
        with pytest.raises(ConstraintViolated) as exc:
            lemma52_stack(*(np.stack(v) for v in zip((I, J, -J, -I), (I, J, K, J))))
        assert exc.value.row == 1
        gens = surface_samples([np.random.default_rng((9, i)) for i in range(4)])
        bad = gens.copy()
        bad[2, 3] = K
        with pytest.raises(RelationViolated) as exc:
            lifts(bad)
        assert exc.value.row == 2
        meridians = np.stack([sample_point(6, np.random.default_rng((9, i))).meridians for i in range(4)])
        meridians[1, 0] = meridians[1, 1]
        with pytest.raises(RelationViolated) as exc:
            pushforwards(meridians)
        assert exc.value.row == 1
