"""Sampling, locus classification, submersion certificates, and the
abelian census."""

import ast

import numpy as np
import pytest

from charvar import campaign, selftest, variety
from charvar.errors import AbelianInput, ConstraintViolated
from charvar.quat import I, J, K, ONE, exp_pure, gprod, qmul
from charvar.rep import (
    PuncturedSphereRep,
    bd_from_angles,
    complete_rep,
    complete_reps,
    fingerprint,
    make_rep,
    make_reps,
)
from charvar.variety import (
    ABELIAN,
    BINARY_DIHEDRAL,
    GENERIC,
    classify_locus,
    locus_ranks,
    conjugation_ranks,
    deform,
    enumerate_abelian,
    eval_f,
    eval_g,
    local_dimension,
    local_dimensions,
    sample_point,
    sample_points,
    sign_transport,
    submersion_certificate,
    submersion_certificates,
)

from scripted import ScriptedNormals


class TestSampler:
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8, 12])
    def test_samples_live_on_the_variety(self, k):
        for i in range(20):
            r = sample_point(k, np.random.default_rng((101, k, i)))
            assert r.k == k
            assert np.max(np.abs(r.meridians[:, 0])) <= 1e-12
            norms = np.linalg.norm(r.meridians, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12
            assert np.linalg.norm(gprod(*r.meridians) - np.array([1, 0, 0, 0])) <= 1e-10

    def test_constraint_function_vanishes(self):
        for i in range(20):
            r = sample_point(6, np.random.default_rng((103, i)))
            assert abs(eval_f(r.meridians[:-1])) <= 1e-12

    def test_rejects_tiny_k(self):
        with pytest.raises(ValueError):
            sample_point(2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_points(2, [np.random.default_rng(0)])


class TestBatchSampler:
    """sample_points is the one sampler: a row does not depend on the rows
    stacked with it, and sample_point is its one-row call."""

    @pytest.mark.parametrize("k", range(3, 17))
    def test_rows_are_the_scalar_samples(self, k, monkeypatch):
        def rows(keys, rngs):
            return list(sample_points(k, rngs))

        # 40 rows in chunks of 16 cross two chunk boundaries; in chunks of
        # 256 they are one stack
        monkeypatch.setattr(campaign, "CHUNK", 16)
        chunked = np.stack(campaign.chunked(107, (k,), 40, rows))
        monkeypatch.setattr(campaign, "CHUNK", 256)
        whole = np.stack(campaign.chunked(107, (k,), 40, rows))
        assert whole.shape == (40, k, 4)
        assert chunked.tobytes() == whole.tobytes()
        for i, row in enumerate(whole):
            single = sample_point(k, np.random.default_rng((107, k, i)))
            assert row.tobytes() == single.meridians.tobytes()

    def test_central_product_and_rejected_draw(self):
        # q2 = +-q1 exactly makes w = q1 q2 = -+1, so the last free meridian
        # is a fresh uniform draw; the zero vector leading the first and last
        # scripts is rejected and drawn again, as quat.random_pure does, and
        # in the last the redrawn w = v u is not central, so the row draws
        # its angle after its directions.  Every row draws an angle in the
        # one pass over the stack, and is drawn again from its start state:
        # each stub ends where its script does
        v = np.array([0.3, -1.2, 0.5])
        scripts = (
            [np.zeros(3), v, 2.0 * v, [0.1, 0.7, -0.4]],
            [v, -v, [1.5, 0.2, 0.9]],
            [np.zeros(3), v, [1.1, 0.4, -0.7], [0.35]],
        )
        stubs = [ScriptedNormals(s) for s in scripts]
        rngs = [stubs[0], np.random.default_rng(5), stubs[1], stubs[2]]
        rows = sample_points(4, rngs)
        singles = [
            sample_point(4, ScriptedNormals(scripts[0])),
            sample_point(4, np.random.default_rng(5)),
            sample_point(4, ScriptedNormals(scripts[1])),
            sample_point(4, ScriptedNormals(scripts[2])),
        ]
        assert all(s.used == len(np.concatenate(sc)) for s, sc in zip(stubs, scripts))
        for row, single in zip(rows, singles):
            assert row.tobytes() == single.meridians.tobytes()

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_generators_end_where_one_row_calls_leave_them(self, k):
        # two stacked passes over two generators draw what two one-row calls
        # on each draw in turn, and leave each generator where they leave it
        stacked = [np.random.default_rng((7, k, i)) for i in range(2)]
        passes = [sample_points(k, stacked) for _ in range(2)]
        for i, rng in enumerate(stacked):
            alone = np.random.default_rng((7, k, i))
            for rows in passes:
                assert rows[i].tobytes() == sample_point(k, alone).meridians.tobytes()
            assert rng.bit_generator.state == alone.bit_generator.state

    def test_shared_generator_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_points(5, [rng, rng])


class TestClassification:
    def test_stacked_ranks_match_single(self):
        reps = [make_rep([I, I, -I, -I]), PuncturedSphereRep(bd_from_angles(np.array([[0.4, 1.9]]))[0])]
        reps += [sample_point(4, np.random.default_rng((109, i))) for i in range(4)]
        ranks = locus_ranks(np.stack([r.meridians for r in reps]))
        assert [classify_locus(r).rank for r in reps] == ranks.tolist()
        assert ranks.tolist()[:2] == [1, 2]

    def test_abelian_anchor(self):
        r = make_rep([I, I, -I, -I])
        label = classify_locus(r)
        assert label.label == ABELIAN
        assert label.rank <= 1

    def test_binary_dihedral_anchor(self):
        label = classify_locus(PuncturedSphereRep(bd_from_angles(np.array([[0.9, 2.1, 3.3, 4.5]]))[0]))
        assert label.label == BINARY_DIHEDRAL
        assert label.rank == 2

    def test_generic_anchor(self):
        r = sample_point(6, np.random.default_rng(107))
        label = classify_locus(r)
        assert label.label == GENERIC
        assert label.rank == 3

    def test_commutes_with_sign_involution(self):
        # alpha* negates every meridian
        reps = sample_points(6, [np.random.default_rng((109, i)) for i in range(25)])
        bd = bd_from_angles(np.array([[1.4, 0.2]]))
        for m in (reps, bd):
            assert locus_ranks(make_reps(-m)).tolist() == locus_ranks(m).tolist()


class TestSubmersion:
    def test_certificate_matches_finite_difference(self):
        h = 1e-5
        for i in range(30):
            r = sample_point(6, np.random.default_rng((113, i)))
            part = r.meridians[:-1]
            cert = submersion_certificate(part)
            fd = (eval_f(deform(part, cert, h)) - eval_f(deform(part, cert, -h))) / (2.0 * h)
            assert abs(cert.derivative) > 1e-8
            assert abs(fd - cert.derivative) <= 1e-6
            assert cert.jacobian_rank == 1

    def test_deform_stays_on_spheres(self):
        r = sample_point(6, np.random.default_rng(127))
        part = r.meridians[:-1]
        cert = submersion_certificate(part)
        moved = deform(part, cert, 0.3)
        assert np.max(np.abs(np.linalg.norm(moved, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(moved[:, 0])) <= 1e-12
        # only the certified row moves
        untouched = [p for p in range(part.shape[0]) if p != cert.moved]
        assert np.array_equal(moved[untouched], part[untouched])

    def test_deform_at_zero_is_identity(self):
        r = sample_point(4, np.random.default_rng(131))
        part = r.meridians[:-1]
        cert = submersion_certificate(part)
        assert np.allclose(deform(part, cert, 0.0), part, atol=1e-15)

    def test_abelian_input_raises(self):
        part = np.stack([I, I, -I])
        with pytest.raises(AbelianInput):
            submersion_certificate(part)

    def test_local_dimension(self):
        # k = 3 is rigid; non-abelian k punctures give 2k - 6
        assert local_dimension(sample_point(3, np.random.default_rng(137))) == 0
        for k in (4, 6, 8):
            r = sample_point(k, np.random.default_rng((139, k)))
            if classify_locus(r).label != ABELIAN:
                assert local_dimension(r) == 2 * k - 6

    def test_conjugation_rank_generic(self):
        r = sample_points(6, [np.random.default_rng(149)])
        assert conjugation_ranks(r[:, :-1]).tolist() == [3]


class TestStackedCertificates:
    """submersion_certificates, conjugation_ranks and local_dimensions are
    the one certificate layer; the one-sample functions are one-row calls."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_check_line_does_not_depend_on_chunk(self, seed, monkeypatch):
        # 30 samples per k: chunks of 8 split each group in four
        counts = {"submersion": 90}
        line = selftest.check_submersion(counts, seed)
        monkeypatch.setattr(campaign, "CHUNK", 8)
        assert selftest.check_submersion(counts, seed) == line
        assert line.ok

    @pytest.mark.parametrize("k", [3, 4, 6, 8, 12])
    def test_one_row_calls_are_rows_of_the_stack(self, k):
        meridians = sample_points(k, [np.random.default_rng((151, k, i)) for i in range(40)])
        if k % 2 == 0:
            # binary dihedral rows: planar meridians, rank 2
            meridians[:10] = bd_from_angles(np.random.default_rng((157, k)).uniform(0.0, 7.0, size=(10, k - 2)))
        parts = meridians[:, :-1]
        certs = submersion_certificates(parts)
        ranks = conjugation_ranks(parts)
        dims = local_dimensions(meridians)
        moved = deform(parts, certs, 0.3)
        for i, (row, part) in enumerate(zip(meridians, parts)):
            cert = submersion_certificate(part)
            assert (cert.pair_index, cert.moved, cert.jacobian_rank) == (
                certs.pair_index[i],
                certs.moved[i],
                certs.jacobian_rank[i],
            )
            assert cert.axis.tobytes() == certs.axis[i].tobytes()
            assert np.float64(cert.derivative).tobytes() == certs.derivative[i].tobytes()
            assert deform(part, cert, 0.3).tobytes() == moved[i].tobytes()
            assert local_dimension(make_rep(row)) == dims[i]
        # an empty stack gives empty results
        assert submersion_certificates(parts[:0]).derivative.shape == (0,)
        assert conjugation_ranks(parts[:0]).shape == local_dimensions(meridians[:0]).shape == (0,)

    @pytest.mark.parametrize(
        "stacked, stack, kind, message, row",
        [
            pytest.param(
                submersion_certificates,
                [[I], [J]],
                ValueError,
                "need at least two meridians to certify",
                0,
                id="certificate-shape",
            ),
            pytest.param(
                submersion_certificates,
                # [i, i, -i] is central too: proportionality comes first
                [[I, J, exp_pure(0.4, K)], [I, I, -I], [ONE, 2.0 * ONE, ONE]],
                AbelianInput,
                "all meridians proportional: f is not a submersion here",
                1,
                id="certificate-abelian",
            ),
            pytest.param(
                submersion_certificates,
                [[I, J, exp_pure(0.4, K)], [ONE, 2.0 * ONE, ONE], [I, I, -I]],
                ConstraintViolated,
                "both cyclic factors are central, certificate degenerates",
                1,
                id="certificate-central",
            ),
            pytest.param(
                local_dimensions,
                [[I, J, I, J], [I, J, -I, -J], [I, I, -I, -I]],
                AbelianInput,
                "local dimension is undefined at abelian points",
                2,
                id="local-dimension-abelian",
            ),
        ],
    )
    def test_rejected_stacks_raise_for_their_first_row(self, stacked, stack, kind, message, row):
        stack = np.array(stack, dtype=float)
        with pytest.raises(ValueError) as exc:
            stacked(stack)
        assert (type(exc.value), str(exc.value), exc.value.row) == (kind, message, row)
        with pytest.raises(ValueError) as exc:
            if stacked is submersion_certificates:
                submersion_certificate(stack[row])
            else:
                local_dimension(make_rep(stack[row]))
        assert (type(exc.value), str(exc.value), getattr(exc.value, "row", None)) == (kind, message, None)

    def test_check_reports_its_first_failing_sample(self, monkeypatch):
        true_certificates, true_ranks = submersion_certificates, conjugation_ranks

        # row r of the group of k = ks[i % 3] is sample i = 3 r + i % 3
        def jacobian_rank_0_at_sample_8(parts):
            cert = true_certificates(parts)
            if parts.shape[1] + 1 == 8:
                cert.jacobian_rank[2] = 0
            return cert

        def conjugation_rank_2_at_samples_15_and_10(parts):
            ranks = true_ranks(parts)
            row = {4: 5, 6: 3}.get(parts.shape[1] + 1)
            if row is not None:
                ranks[row] = 2
            return ranks

        monkeypatch.setattr(variety, "submersion_certificates", jacobian_rank_0_at_sample_8)
        # a sample is named by the key (seed, 4, i, retry) that draws it
        assert selftest.check_submersion({"submersion": 30}, 2).detail == "sample (2, 4, 8, 0): df rank 0"
        monkeypatch.setattr(variety, "conjugation_ranks", conjugation_rank_2_at_samples_15_and_10)
        # samples 15 (k = 4), 10 (k = 6) and 8 (k = 8) fail: the k = 4 group
        # is certified first, and the smallest sample is reported
        assert selftest.check_submersion({"submersion": 30}, 2).detail == "sample (2, 4, 8, 0): df rank 0"
        monkeypatch.setattr(variety, "submersion_certificates", true_certificates)
        assert selftest.check_submersion({"submersion": 30}, 2).detail == "sample (2, 4, 10, 0): conjugation rank != 3"

    def test_check_names_its_worst_sample_by_its_draw_key(self, monkeypatch):
        # every |derivative| <= 1 is now too small: the smallest is reported,
        # and its key replays the sample and that derivative
        monkeypatch.setattr(selftest, "MIN_DERIVATIVE", 1.0)
        result = selftest.check_submersion({"submersion": 30}, 2)
        assert not result.ok
        head, worst = result.detail.split("; worst samples ")
        (key,) = ast.literal_eval(worst)
        assert key[:2] == (2, 4) and len(key) == 4
        parts = sample_point((4, 6, 8)[key[2] % 3], np.random.default_rng(key)).meridians[:-1]
        assert head.startswith(f"min |derivative| {abs(submersion_certificate(parts).derivative):.3e},")

    def test_check_names_a_rejected_sample_by_its_draw_key(self, monkeypatch):
        def central_from_row_5(parts):
            parts = parts.copy()
            parts[5:] = [ONE, 2.0 * ONE, ONE]
            return submersion_certificates(parts)

        first_draw = iter([True])

        def abelian_at_first_draw_of_row_5(meridians):
            ranks = locus_ranks(meridians)
            if next(first_draw, False):
                ranks[5] = 1
            return ranks

        monkeypatch.setattr(variety, "submersion_certificates", central_from_row_5)
        monkeypatch.setattr(variety, "locus_ranks", abelian_at_first_draw_of_row_5)
        with pytest.raises(ConstraintViolated) as exc:
            selftest.check_submersion({"submersion": 30}, 2)
        # row 5 of the k = 4 group is sample 15, drawn again at retry 1
        assert str(exc.value) == "sample (2, 4, 15, 1): both cyclic factors are central, certificate degenerates"


class TestCensus:
    def test_counts(self):
        for k in (4, 6, 8):
            reps = enumerate_abelian(k)
            assert reps.shape == (2 ** (k - 2), k, 4)
            for m in reps:
                assert classify_locus(PuncturedSphereRep(m)).label == ABELIAN

    def test_distinct_classes_k6(self):
        fps = [fingerprint(PuncturedSphereRep(m)) for m in enumerate_abelian(6)]
        for a in range(len(fps)):
            for b in range(a + 1, len(fps)):
                assert fps[a].distance(fps[b]) > 1e-6

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            enumerate_abelian(5)

    def test_sign_transport_involution(self):
        # domain: the k-2 free meridians after the leading i, inside g^{-1}(0)
        base = np.tile(I, (4, 1))
        signs = [1.0, -1.0, 1.0, -1.0]
        flipped = sign_transport(base, signs)
        assert np.array_equal(sign_transport(flipped, signs), base)
        assert np.array_equal(flipped, base * np.array(signs)[:, None])

    def test_sign_transport_validates_signs(self):
        base = np.tile(I, (4, 1))
        with pytest.raises(ValueError):
            sign_transport(base, [1.0, 0.5, 1.0, 1.0])

    def test_sign_transport_validates_domain(self):
        # jk = i, so re(i * jk) = -1: not in g^{-1}(0)
        bad = np.stack([J, K])
        with pytest.raises(ConstraintViolated) as exc:
            sign_transport(bad, [1.0, 1.0])
        assert not hasattr(exc.value, "row")

    def test_sign_transport_stack_names_its_off_variety_row(self):
        stack = np.tile(I, (5, 2, 1))
        stack[3] = [J, K]
        signs = np.ones((5, 2))
        with pytest.raises(ConstraintViolated, match=r"not in g\^\{-1\}\(0\)") as exc:
            sign_transport(stack, signs)
        assert exc.value.row == 3
        with pytest.raises(ValueError, match="signs must be"):
            sign_transport(stack, signs[:, :1])

    def test_census_sign_stacks_are_pinned(self, digest):
        # the sign-flipped tuples of the census and their completions,
        # recorded when each tuple was flipped and completed on its own, with
        # numpy 2.4 on x86-64 Linux; the stacked forms give the same bytes
        for k, want in ((4, "bd1064e5ac7411c4"), (6, "ff5ccb96cf217310")):
            signs = np.where((np.arange(2 ** (k - 2))[:, None] >> np.arange(k - 2)) & 1, -1.0, 1.0)
            base = np.tile(I, (k - 2, 1))
            flipped = np.stack([sign_transport(base, s) for s in signs])
            completed = np.stack([complete_rep([I, *f]).meridians for f in flipped])
            assert digest(flipped, completed) == want
            flipped = sign_transport(np.broadcast_to(I, (*signs.shape, 4)), signs)
            completed = complete_reps(np.concatenate([np.broadcast_to(I, (len(signs), 1, 4)), flipped], axis=1))
            assert digest(flipped, completed) == want


class TestSecondConstraint:
    def test_eval_g_zero_on_axis_families(self):
        # words of the form e^{t k} i have re(i * word-product) = 0 when the
        # partial product lies back in the i,j plane
        part = np.stack([I, qmul(exp_pure(0.7, K), I)])
        val = eval_g(part)
        assert isinstance(val, float)
