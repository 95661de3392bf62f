"""The two-fold branched cover: pushforward, the explicit section, the
traceless-solution case ladder, and fiber enumeration."""

import numpy as np
import pytest

from charvar import campaign, cover
from charvar.cover import (
    extend,
    fiber,
    fiber_records,
    fibers,
    lemma52_detailed,
    lemma52_stack,
    lemma_branch_inputs,
    lifts,
    pushforward,
    pushforwards,
    roundtrip_residuals,
    section_inputs,
    surface_samples,
)
from charvar.errors import ConstraintViolated, NotTraceless, RelationViolated
from charvar.quat import I, J, K, ONE, exp_pure, gprod, qmul, random_unit
from charvar.rep import (
    PuncturedSphereRep,
    SurfaceRep,
    bd_from_angles,
    fingerprint,
    make_rep,
    make_surface_rep,
)
from charvar.variety import BINARY_DIHEDRAL, GENERIC, classify_locus, enumerate_abelian, sample_point


def _surface(rng) -> SurfaceRep:
    """The surface sample of one generator: its row of surface_samples."""
    return SurfaceRep(*surface_samples([rng])[0])


def _bd(thetas) -> PuncturedSphereRep:
    """The binary dihedral representation of one point of the torus."""
    return PuncturedSphereRep(bd_from_angles(np.asarray(thetas)[None])[0])


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
            s2 = pushforward(make_rep(-r.meridians))
            for g1, g2 in zip(s1.generators(), s2.generators()):
                assert float(np.max(np.abs(g1 - g2))) <= 1e-15

    def test_dihedral_image_is_abelian(self):
        gens = pushforward(_bd([0.7, 1.8, 3.0, 4.9])).generators()
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

    def test_rung7_bytes_are_pinned(self, digest):
        # x of lemma52_stack on rung-7 stacks, recorded when each rung-7 row
        # was solved on its own, with numpy 2.4 on x86-64 Linux: constructed
        # rung-7 inputs, inputs on the axis +-i, and +-1 in every sign
        quads = lemma_branch_inputs([7] * 100, [np.random.default_rng((29, i)) for i in range(100)])
        angles = np.random.default_rng(31).uniform(0.0, 2.0 * np.pi, size=(40, 4))
        axis_i = np.where((np.arange(40) % 2 == 0)[:, None, None], 1.0, -1.0) * exp_pure(angles, I)
        signs = np.where((np.arange(16)[:, None] >> np.arange(4)) & 1, -1.0, 1.0)
        stacks = {
            "4261f6e722172e85": list(quads),
            "1914681dfaf35482": list(np.moveaxis(axis_i, 1, 0)),
            "91e74f6a0c805024": list(np.moveaxis(signs[..., None] * ONE, 1, 0)),
        }
        for want, quad in stacks.items():
            x, rung, residuals = lemma52_stack(*quad)
            assert (rung == 7).all() and residuals.max() <= 1e-12
            assert digest(x) == want
            assert digest(np.stack([lemma52_detailed(*row).x for row in zip(*quad)])) == want

    def test_invalid_input_rejected(self):
        with pytest.raises(ConstraintViolated):
            lemma52_detailed(I, J, K, J)

    def test_residuals_on_random_valid_inputs(self):
        worst = 0.0
        for i in range(200):
            surface = _surface(np.random.default_rng((223, i)))
            a, b, c, d, _ = section_inputs(np.stack(surface.generators()))
            sol = lemma52_detailed(a, b, c, d)
            worst = max(worst, float(sol.residuals.max()))
        assert worst <= 1e-10

    def test_solve_returns_pure_unit(self):
        surface = _surface(np.random.default_rng(227))
        a, b, c, d, _ = section_inputs(np.stack(surface.generators()))
        x = lemma52_detailed(a, b, c, d).x
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert abs(x[0]) <= 1e-12


class TestExtend:
    def test_trivial_surface_lift(self):
        # the section at the trivial representation alternates j and -j
        lift = extend(make_surface_rep(ONE, ONE, ONE, ONE), 1)
        want = np.stack([J, -J, J, -J, J, -J])
        assert np.allclose(lift.meridians, want, atol=1e-15)

    def test_signs_are_sign_involution_partners(self):
        surface = _surface(np.random.default_rng(229))
        plus = extend(surface, 1)
        minus = extend(surface, -1)
        assert np.array_equal(minus.meridians, -plus.meridians)

    def test_round_trip_both_signs(self):
        worst = 0.0
        for i in range(100):
            surface = _surface(np.random.default_rng((233, i)))
            for sign in (1, -1):
                back = pushforward(extend(surface, sign))
                for g1, g2 in zip(surface.generators(), back.generators()):
                    worst = max(worst, float(np.linalg.norm(g1 - g2)))
        assert worst <= 1e-9

    def test_rejects_invalid_sign(self):
        surface = _surface(np.random.default_rng(239))
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
            want = (fingerprint(rho), fingerprint(make_rep(-rho.meridians)))
            direct = max(report.classes[0].distance(want[0]), report.classes[1].distance(want[1]))
            crossed = max(report.classes[0].distance(want[1]), report.classes[1].distance(want[0]))
            assert min(direct, crossed) <= 1e-6

    def test_dihedral_fiber_is_one_class(self):
        for i in range(15):
            rng = np.random.default_rng((251, i))
            report = fiber(pushforward(_bd(rng.uniform(0.0, 2.0 * np.pi, 4))))
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
        rho = sample_point(6, np.random.default_rng(263))
        (data,) = fiber_records(*fibers(pushforwards(rho.meridians[None])))
        assert data["on_branch"] is False
        assert data["class_count"] == 2
        assert len(data["fingerprints"]) == 2
        # the record holds what the one-row report holds
        report = fiber(pushforward(rho))
        assert data["separation"] == report.separation
        assert [fp["values"] for fp in data["fingerprints"]] == [fp.values.tolist() for fp in report.classes]
        assert data["witnesses"] == [w.meridians.tolist() for w in report.witnesses]


def _fiber_bytes(report):
    return (
        report.separation,
        report.on_branch,
        [fp.values.tobytes() for fp in report.classes],
        [w.meridians.tobytes() for w in report.witnesses],
    )


def _fiber_rows(sheets, values, separation, on_branch):
    """The rows of :func:`fibers` as :func:`_fiber_bytes` gives a report."""
    return [
        (float(sep), bool(branch), [v.tobytes() for v in vals[: 1 if branch else 2]], [w.tobytes() for w in pair])
        for pair, vals, sep, branch in zip(sheets, values, separation, on_branch)
    ]


def _raised(fn, *args):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value), getattr(exc.value, "row", None)


class TestStackedCover:
    """The stacked forms are the one implementation of the cover: a row does
    not depend on the rows stacked with it, and each one-sample function is
    a one-row call of its stacked form."""

    @pytest.mark.parametrize("seed", [0, 7, 31])
    def test_pipeline_matches_scalar(self, seed, monkeypatch):
        def rows(keys, rngs):
            gens = surface_samples(rngs)
            x, rung, residuals = lemma52_stack(*section_inputs(gens)[:4])
            return [
                (key, g.tobytes(), xr.tobytes(), int(br), rr.tobytes(), sheets.tobytes(), rt.tobytes(), fb)
                for key, g, xr, br, rr, sheets, rt, fb in zip(
                    keys, gens, x, rung, residuals, lifts(gens), roundtrip_residuals(gens), _fiber_rows(*fibers(gens))
                )
            ]

        # 40 rows in chunks of 16 cross two chunk boundaries; in chunks of
        # 256 they are one stack
        monkeypatch.setattr(campaign, "CHUNK", 16)
        chunked = campaign.chunked(seed, (), 40, rows)
        monkeypatch.setattr(campaign, "CHUNK", 256)
        assert chunked == campaign.chunked(seed, (), 40, rows)
        assert [key for key, *_ in chunked] == [(seed, i) for i in range(40)]
        for key, gens, x, rung, residuals, sheets, roundtrip, report in chunked:
            surface = _surface(np.random.default_rng(key))
            one = np.stack(surface.generators())
            assert one.tobytes() == gens
            sol = lemma52_detailed(*section_inputs(one)[:4])
            assert (sol.x.tobytes(), sol.branch, sol.residuals.tobytes()) == (x, rung, residuals)
            assert np.stack([extend(surface, 1).meridians, extend(surface, -1).meridians]).tobytes() == sheets
            assert roundtrip_residuals(one[None])[0].tobytes() == roundtrip
            assert _fiber_bytes(fiber(surface)) == report

    def test_roundtrip_records_cross_a_chunk(self):
        count = campaign.CHUNK + 4
        records = cover.roundtrip_records(3, (), count)
        # the records of two chunks are the rows of one stack of all samples
        rows = roundtrip_residuals(surface_samples([np.random.default_rng((3, i)) for i in range(count)]))
        assert len(records) == count
        for i, (record, (plus, minus)) in enumerate(zip(records, rows.tolist())):
            assert record == {"index": i, "seed": 3, "residuals": {"plus": plus, "minus": minus}}

    def test_ladder_matches_scalar_on_every_rung(self):
        # constructed inputs of rungs 2..7 (near-cutoff rungs 5 and 6, the
        # common-axis rung 7) and the anchors: the whole stack, its chunks of
        # 16 and one-row calls give the same bytes
        quads = [(I, J, -J, -I), (ONE, ONE, ONE, ONE)]
        branches = [branch for branch in (2, 3, 4, 5, 6, 7) for _ in range(8)]
        rngs = [np.random.default_rng((5, branch, i)) for branch in (2, 3, 4, 5, 6, 7) for i in range(8)]
        quads += list(zip(*lemma_branch_inputs(branches, rngs)))
        stack = [np.stack(v) for v in zip(*quads)]
        whole = lemma52_stack(*stack)
        assert whole[1].tolist() == [1, 7] + [b for b in (2, 3, 4, 5, 6, 7) for _ in range(8)]
        for start in range(0, len(quads), 16):
            part = lemma52_stack(*(v[start : start + 16] for v in stack))
            assert [p.tobytes() for p in part] == [w[start : start + 16].tobytes() for w in whole]
        for quad, xr, br, rr in zip(quads, *whole):
            sol = lemma52_detailed(*quad)
            assert (sol.x.tobytes(), sol.branch, sol.residuals.tobytes()) == (xr.tobytes(), br, rr.tobytes())

    @pytest.mark.parametrize("seed", [0, 4])
    def test_ladder_families_share_stacks(self, seed, monkeypatch):
        # 10 generic rows and 6 families of 3: in chunks of 16 the first stack
        # holds the generic rows and the rung-2 and rung-3 families, the
        # second the rest; each record is the one-row solve of its key's draw
        monkeypatch.setattr(campaign, "CHUNK", 16)
        records = cover.ladder_records(seed, ((8,), (9,)), 10, 3)
        keys = [(seed, 8, i) for i in range(10)] + [(seed, 9, b, i) for b in range(2, 8) for i in range(3)]
        assert len(records) == len(keys)
        for key, record in zip(keys, records):
            rng = np.random.default_rng(key)
            if len(key) == 3:
                family, quad = "generic", section_inputs(np.stack(_surface(rng).generators()))[:4]
            else:
                family, quad = f"branch{key[2]}", lemma_branch_inputs([key[2]], [rng])[:, 0]
            sol = lemma52_detailed(*quad)
            want = {"family": family, "index": key[-1], "branch": sol.branch, "max_residual": float(sol.residuals.max())}
            assert record == want, key
        monkeypatch.setattr(campaign, "CHUNK", 256)
        assert cover.ladder_records(seed, ((8,), (9,)), 10, 3) == records

    def test_ladder_names_a_rejected_constructed_row_by_its_key(self, monkeypatch):
        # input 1 of the rung-3 family, row 14 of the first stack of 16,
        # breaks abcd = dcba after drawing what it draws; the first stack's
        # constructed rows are one call, rung 2's three rows then rung 3's
        real, calls = lemma_branch_inputs, []

        def broken(branches, rngs):
            quads = real(branches, rngs)
            calls.append(list(branches))
            if len(calls) == 1:
                quads[:, 4] = (I, J, K, J)
            return quads

        monkeypatch.setattr(campaign, "CHUNK", 16)
        monkeypatch.setattr(cover, "lemma_branch_inputs", broken)
        kind, message, row = _raised(cover.ladder_records, 5, ((8,), (9,)), 10, 3)
        assert (kind, row) == (ConstraintViolated, 14)
        assert calls == [[2, 2, 2, 3, 3, 3]]
        assert message == "sample (5, 9, 3, 1): abcd and dcba differ by 2.000e+00 > 1.0e-10"

    def test_abelian_points_match_scalar(self):
        meridians = enumerate_abelian(6)
        sheets, values, separation, on_branch = fibers(pushforwards(meridians))
        assert on_branch.all()
        for row, m in zip(_fiber_rows(sheets, values, separation, on_branch), meridians):
            assert row == _fiber_bytes(fiber(pushforward(PuncturedSphereRep(m))))

    def test_rejected_rows_raise_the_scalar_exception(self, monkeypatch):
        # a stack names its first rejected row; the one-row call raises the
        # same class and message without a row
        want = (ConstraintViolated, "abcd and dcba differ by 2.000e+00 > 1.0e-10")
        assert _raised(lemma52_stack, *(np.stack(v) for v in zip((I, J, -J, -I), (I, J, K, J)))) == (*want, 1)
        assert _raised(lemma52_detailed, I, J, K, J) == (*want, None)
        gens = surface_samples([np.random.default_rng((9, i)) for i in range(4)])
        bad = gens.copy()
        bad[2, 3] = K
        kind, message, row = _raised(lifts, bad)
        assert (kind, row) == (RelationViolated, 2)
        for sign in (1, -1):
            assert _raised(extend, SurfaceRep(*bad[2]), sign) == (kind, message, None)
        meridians = np.stack([sample_point(6, np.random.default_rng((9, i))).meridians for i in range(4)])
        meridians[1, 0] = meridians[1, 1]
        kind, message, row = _raised(pushforwards, meridians)
        assert (kind, row) == (RelationViolated, 1)
        assert _raised(pushforward, PuncturedSphereRep(meridians[1])) == (kind, message, None)
        # with every pair counted as commuting, rung 7's x does not solve a
        # generic row: the section holds, and the sheet fails make_rep
        monkeypatch.setattr(cover, "COMM_TOL", 10.0)
        kind, message, row = _raised(lifts, gens)
        assert (kind, row) == (NotTraceless, 0)
        assert _raised(extend, SurfaceRep(*gens[0]), -1) == (kind, message, None)

    def test_one_row_call_in_a_campaign_names_no_other_sample(self):
        # extend on the third sample of a chunk fails; without a row on its
        # exception, chunked does not name row 0 of the chunk, (0, 99, 0)
        def lift_each(keys, rngs):
            gens = surface_samples(rngs)
            gens[2, 3] = K
            return [extend(SurfaceRep(*g)) for g in gens]

        assert _raised(campaign.chunked, 0, (99,), 3, lift_each) == (
            RelationViolated,
            "surface relation residual 4.969e-01",
            None,
        )
