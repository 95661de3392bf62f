"""End-to-end command-line behavior: exit codes, output formats, byte
determinism, and the selftest gate."""

import argparse
import ast
import hashlib
import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from charvar import cli, cover, morse, selftest, variety
from charvar.errors import RelationViolated
from charvar.quat import ONE, gprod
from charvar.rep import fingerprint, fingerprint_digest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "charvar", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestSample:
    def test_happy_path_jsonl(self):
        proc = run_cli("sample", "--k", "6", "--count", "5", "--seed", "3")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 5
        rec = json.loads(lines[0])
        assert rec["index"] == 0 and rec["seed"] == 3 and rec["k"] == 6
        assert rec["locus"] in ("abelian", "binary_dihedral", "generic")
        assert len(rec["fingerprint"]) == 41
        assert len(rec["fingerprint_digest"]) == 16
        assert set(rec["residuals"]) == {"constraint", "product", "traceless"}
        assert "ok" in proc.stderr

    def test_csv_format(self):
        proc = run_cli("sample", "--k", "4", "--count", "3", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("index,seed,k,locus,rank,")
        assert len(lines) == 4

    def test_byte_determinism(self):
        a = run_cli("sample", "--k", "5", "--count", "8", "--seed", "11")
        b = run_cli("sample", "--k", "5", "--count", "8", "--seed", "11")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_impossible_tolerance_fails_with_pointers(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "TOL_REL", 0.0)
        assert cli.main(["sample", "--k", "6", "--count", "4"]) == 1
        assert "(seed, index)" in capsys.readouterr().err

    @pytest.mark.parametrize("k,seed", [(3, 0), (6, 5), (12, 9), (16, 2)])
    def test_records_match_scalar_functions(self, k, seed, tmp_path):
        # the campaign computes all samples as one stack; each record must be
        # what the scalar sampler, fingerprint, classifier and residuals give
        records = []
        for i in range(6):
            sample = variety.sample_point(k, np.random.default_rng((seed, i)))
            fp = fingerprint(sample)
            locus = variety.classify_locus(sample)
            residuals = {
                "constraint": abs(variety.eval_f(sample.meridians[:-1])),
                "product": float(np.linalg.norm(gprod(*sample.meridians) - ONE)),
                "traceless": float(np.max(np.abs(sample.meridians[:, 0]))),
            }
            records.append((i, locus, fp, residuals))
        want_json = "".join(
            json.dumps(
                {
                    "index": i,
                    "seed": seed,
                    "k": k,
                    "locus": locus.label,
                    "rank": locus.rank,
                    "fingerprint_digest": fingerprint_digest(fp.values),
                    "fingerprint": [float(v) for v in fp.values],
                    "residuals": res,
                },
                separators=(",", ":"),
            )
            + "\n"
            for i, locus, fp, res in records
        )
        want_csv = "index,seed,k,locus,rank,fingerprint_digest,constraint,product,traceless\n" + "".join(
            f"{i},{seed},{k},{locus.label},{locus.rank},{fingerprint_digest(fp.values)},"
            f"{res['constraint']!r},{res['product']!r},{res['traceless']!r}\n"
            for i, locus, fp, res in records
        )
        for fmt, want in (("json", want_json), ("csv", want_csv)):
            path = tmp_path / f"out.{fmt}"
            argv = ["sample", "--k", str(k), "--count", "6", "--seed", str(seed), "--format", fmt]
            assert cli.main([*argv, "--out", str(path)]) == 0
            assert path.read_text() == want

    def test_out_file(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        proc = run_cli("sample", "--k", "4", "--count", "2", "--out", str(path))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert len(path.read_text().strip().splitlines()) == 2


def test_package_runs_as_module(capsys):
    proc = run_cli("sample", "--k", "4", "--count", "3")
    assert proc.returncode == 0
    assert cli.main(["sample", "--k", "4", "--count", "3"]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize(
    "argv,header",
    [
        (["sample", "--k", "6", "--count", "12"], "index,seed,k,locus,rank,"),
        (["morse", "--n", "2..4"], "n,det_A,pfaffian,"),
        (["link-sample", "--n", "3", "--count", "12"], "re_1,im_1,"),
    ],
)
def test_sorted_csv_keeps_header_first(argv, header, capsys):
    assert cli.main([*argv, "--format", "csv"]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert cli.main([*argv, "--format", "csv", "--sorted"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(header)
    assert lines == [plain[0], *sorted(plain[1:])]


# exit code and the first 16 hex digits of the sha256 of stdout, a NUL
# byte and stderr, at fixed seeds; computed with numpy 2.4 on x86-64 Linux
PINNED_OUTPUTS = {
    "sample --k 3 --count 5 --seed 3": (0, "d351274178f55e0d"),
    "sample --k 12 --count 5 --seed 3": (0, "7b7f170e4adfa6b3"),
    "sample --k 6 --count 8 --seed 3 --format csv --sorted": (0, "42a223c30b4d8eaa"),
    "cover push --count 5 --seed 3": (0, "f1cb06c60f94dccb"),
    "cover extend --count 4 --seed 3": (0, "e3e0e975f0a6d8e6"),
    "cover roundtrip --count 10 --seed 3": (0, "3da1be6342e9d159"),
    "cover fiber --count 6 --seed 3": (0, "43ca29a491015a1a"),
    "cover fiber --abelian-points": (0, "0d149cd7b2cb7de8"),
    "lemma52 --count 60 --seed 3": (0, "e6a640428c289fed"),
    "morse --n 2..4": (0, "c81cb68f9c90e2d4"),
    "morse --n 2..4 --format csv": (0, "d7d2717e65208c2c"),
    "link-sample --n 3 --count 20 --seed 3": (0, "3f806eb7e00159d1"),
    "link-sample --n 3 --count 20 --seed 3 --format csv": (0, "61c1a3a3fe522e79"),
    "selftest --seed 0": (0, "ae4bd58a8f092303"),
    "selftest --seed 3": (0, "0af98e22f48e9123"),
    "selftest --seed 5": (0, "9ca05048513db6b1"),
}


@pytest.mark.parametrize("command", PINNED_OUTPUTS)
def test_output_bytes_are_pinned(command, capsys):
    # CLI output stays byte-identical for a fixed seed
    rc, digest = PINNED_OUTPUTS[command]
    assert cli.main(command.split()) == rc
    captured = capsys.readouterr()
    assert hashlib.sha256(f"{captured.out}\0{captured.err}".encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "command,bound,named",
    [
        pytest.param(
            "cover push --count 3",
            (cli, "TOL_REL", 0.0),
            "failing (seed, index) pairs: [(0, 0), (0, 1), (0, 2)]",
            id="cover-push",
        ),
        pytest.param(
            "lemma52 --count 20",
            (cover, "LEMMA_TOL", 1e-30),
            "(seed, family, index) over 1e-30: [(0, 'generic', 0), ",
            id="lemma52",
        ),
        pytest.param("morse --n 2..4", (morse, "FD_TOL", 1e-30), "failing n: [2, 3, 4]", id="morse"),
    ],
)
def test_failed_gate_names_what_failed(command, bound, named, monkeypatch, capsys):
    # each gate reads its bound when it runs, so patching the constant moves it
    monkeypatch.setattr(*bound)
    assert cli.main(command.split()) == 1
    assert named in capsys.readouterr().err


def test_lemma52_gate_is_the_check_gate(monkeypatch, capsys):
    # with a commutation cutoff of 1e-4 the rung-5 and rung-6 families
    # (defects near 1e-8) land on rung 7 with residuals near 1e-8: under a
    # residual bound of 1e-6 the command must still fail on the wrong
    # rungs, as the selftest check does
    monkeypatch.setattr(cover, "COMM_TOL", 1e-4)
    monkeypatch.setattr(cover, "LEMMA_TOL", 1e-6)
    assert cli.main(["lemma52", "--count", "60"]) == 1
    err = capsys.readouterr().err
    assert "solved on another rung" in err and "over 1e-06" not in err
    assert "(0, 'branch5', 0, 7)" in err and "(0, 'branch6', 0, 7)" in err
    result = selftest.check_lemma52_branches({"lemma_generic": 60, "lemma_per_branch": 3})
    assert not result.ok
    assert "solved on another rung" in result.detail


# every settable value of every command (39 in all); a new option must be added here
CLI_OPTIONS = {
    "sample": {"--k", "--count", "--seed", "--format", "--out", "--sorted"},
    "cover push": {"--count", "--seed", "--out", "--sorted"},
    "cover extend": {"--count", "--seed", "--out", "--sorted"},
    "cover roundtrip": {"--count", "--seed", "--out", "--sorted"},
    "cover fiber": {"--count", "--seed", "--out", "--sorted", "--abelian-points"},
    "morse": {"--n", "--format", "--out", "--sorted"},
    "lemma52": {"--count", "--seed", "--out", "--sorted"},
    "link-sample": {"--n", "--count", "--seed", "--format", "--out", "--sorted"},
    "selftest": {"--seed", "--out"},
}


def test_cli_options_are_pinned():
    def commands(parser, prefix=()):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            options = {o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help")}
            yield " ".join(prefix), options
        for action in subs:
            for name, sub in action.choices.items():
                yield from commands(sub, (*prefix, name))

    found = dict(commands(cli.build_parser()))
    assert found == CLI_OPTIONS


def test_seed_help_says_how_samples_are_keyed():
    def seed_help(*path):
        parser = cli.build_parser()
        for name in path:
            action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            parser = action.choices[name]
        return next(a.help for a in parser._actions if "--seed" in a.option_strings)

    # link-sample draws its points in order from one generator, not sample
    # i from (seed, i)
    assert seed_help("link-sample") == "seed of the one generator that draws the points in order"
    for path in (("sample",), ("cover", "fiber"), ("lemma52",)):
        assert seed_help(*path) == "base seed; sample i uses (seed, i)"


def test_failed_fiber_and_torus_checks_name_the_sample_key(monkeypatch):
    # every generic fiber counted as one class: the check names the key
    # (seed, 6, i) that replays the first
    monkeypatch.setattr(cover, "FIBER_TOL", 10.0)
    result = selftest.check_fiber_two_fold({"fiber_generic": 5, "fiber_bd": 5}, 3)
    assert (result.ok, result.detail) == (False, "generic sample (3, 6, 0): 1 class(es)")
    monkeypatch.undo()
    # every binary dihedral witness counted as generic: (seed, 7, i)
    real = variety.locus_ranks
    monkeypatch.setattr(variety, "locus_ranks", lambda m: np.full(real(m).shape, 3))
    result = selftest.check_fiber_two_fold({"fiber_generic": 5, "fiber_bd": 5}, 3)
    assert (result.ok, result.detail) == (False, "dihedral sample (3, 7, 0): generic witness")
    # and every torus image counted as generic: (seed, 11, n, i)
    result = selftest.check_bd_torus({"bd_roundtrip_per_n": 5, "bd_push": 5}, 3)
    assert (result.ok, result.detail) == (False, "sample (3, 11, 2, 0): generic image")
    monkeypatch.undo()
    # over a tolerance, the worst sample of each failing gate is named
    monkeypatch.setattr(selftest, "TORUS_TOL", -1.0)
    result = selftest.check_bd_torus({"bd_roundtrip_per_n": 5, "bd_push": 5}, 3)
    assert not result.ok
    worst = result.detail.split("; worst samples ")[1]
    assert worst.startswith("[(3, 11, ") and ", (3, 12, " in worst


def test_failed_link_sampler_names_its_stack_and_point(monkeypatch):
    # under a negative LINK_TOL the sphere and quadric bounds break: the
    # check names the key of the stack and the index i of the worst point,
    # and the first i + 1 points of that stack's generator replay it
    counts = {"link": 300, "link_refine": 40}
    passing = selftest.check_link_sampler(counts, 3)
    monkeypatch.setattr(morse, "LINK_TOL", -1.0)
    result = selftest.check_link_sampler(counts, 3)
    detail, worst = result.detail.split("; worst samples ")
    assert not result.ok and detail == passing.detail
    reported = re.search(r"sphere defect (\S+), quadric defect (\S+),", detail).groups()
    for bound, (key, i) in enumerate(ast.literal_eval(worst)):
        n, refine = (key[2], False) if key[1] == 13 else (3, True)
        z = morse.link_samples(n, i + 1, np.random.default_rng(key), refine=refine)[-1:]
        assert f"{morse.link_defects(n, z)[bound][0]:.3e}" == reported[bound], key
    # a point off the gauge slice is named by its stack and index
    real = morse.link_samples
    monkeypatch.setattr(morse, "link_samples", lambda *args, **kwargs: -real(*args, **kwargs))
    result = selftest.check_link_sampler(counts, 3)
    assert (result.ok, result.detail) == (False, "n=2: gauge not fixed; worst samples [((3, 13, 2), 0)]")


def test_real_tagged_link_points_are_named(monkeypatch):
    # every seventh point of each stack made real (and its gauge kept): the
    # bound of one real-tagged point in a thousand breaks, and the check
    # names the first limit + 1 such points, each of which replays real
    counts = {"link": 300, "link_refine": 40}
    passing = selftest.check_link_sampler(counts, 3)
    real = morse.link_samples

    def tagged(n, count, rng, refine=False):
        zs = real(n, count, rng, refine=refine)
        zs[::7] = np.abs(zs[::7])
        return zs

    monkeypatch.setattr(morse, "link_samples", tagged)
    result = selftest.check_link_sampler(counts, 3)
    detail, worst = result.detail.split("; worst samples ")
    assert not result.ok and detail.endswith(", 65/450 real-tagged > 1")
    assert passing.ok and passing.detail.endswith(", 0/450 real-tagged")
    named = ast.literal_eval(worst)[-2:]
    assert named == [((3, 13, 2), 0), ((3, 13, 2), 7)]
    for key, i in named:
        z = morse.link_samples(key[2], i + 1, np.random.default_rng(key))[-1]
        assert np.all(z.imag == 0.0), key


@pytest.mark.parametrize(
    "check, tol, count, path",
    [
        (selftest.check_quaternion_algebra, (selftest, "ALGEBRA_TOL"), "algebra", 1),
        (selftest.check_small_k_rigidity, (selftest, "RIGIDITY_TOL"), "k3", 2),
        (selftest.check_cover_roundtrip, (cover, "ROUNDTRIP_TOL"), "roundtrip", 5),
    ],
)
def test_failed_check_names_its_worst_sample(check, tol, count, path, monkeypatch):
    # under a negative tolerance every sample fails and the check names the
    # key (seed, path, i) of its worst: the first i + 1 samples reach the
    # worst value, the first i stay below it
    def worst(n):
        result = check({**selftest.REDUCED_COUNTS, count: n}, 3)
        return result, float(re.search(r"\d\.\d{3}e[-+]\d\d", result.detail).group())

    passing, _ = worst(40)
    monkeypatch.setattr(*tol, -1.0)
    result, value = worst(40)
    assert not result.ok
    head, named = result.detail.split("; worst samples ")
    (key,) = ast.literal_eval(named)
    assert key[:2] == (3, path)
    assert worst(key[2] + 1)[1] == value
    assert key[2] == 0 or worst(key[2])[1] < value
    if count != "k3":
        # the verdict of a passing run is the failing verdict before the name
        assert head == passing.detail


def test_failed_chart_symmetry_check_names_its_worst_samples(monkeypatch):
    # under a negative SYMMETRY_TOL both defect bounds break: the check names
    # the key (seed, 10, n, i) of the worst sample of each, and replaying
    # that key reproduces the defect it reports
    passing = selftest.check_chart_symmetries(selftest.REDUCED_COUNTS, 3)
    monkeypatch.setattr(selftest, "SYMMETRY_TOL", -1.0)
    result = selftest.check_chart_symmetries(selftest.REDUCED_COUNTS, 3)
    assert not result.ok
    head, named = result.detail.split("; worst samples ")
    assert head == passing.detail
    reported = re.findall(r"\d\.\d{3}e[-+]\d\d", head)[:2]

    def replay(key, moved):
        # sample i draws its coordinates, then its orbit angle
        seed, path, n, i = key
        assert (seed, path) == (3, 10) and i < selftest.REDUCED_COUNTS["symm_per_n"]
        rng = np.random.default_rng(key)
        z = 0.5 * (rng.normal(size=2 * n - 2) + 1j * rng.normal(size=2 * n - 2))
        return morse.eval_chart_g(n, np.stack([z, moved(z, rng.uniform(0.0, 2.0 * np.pi))]))

    tau_key, orbit_key = ast.literal_eval(named)
    val, conj = replay(tau_key, lambda z, theta: morse.tau(z))
    val_orbit, orbit = replay(orbit_key, morse.s1_orbit)
    assert [f"{abs(conj + val):.3e}", f"{abs(orbit - val_orbit):.3e}"] == reported


def test_failed_rigidity_check_names_the_first_k4_sample_off_its_loci(monkeypatch):
    # k = 4 sample 2 counted as generic: the check names its key (seed, 3, 2)
    real = variety.locus_ranks

    def generic_row_2(meridians):
        ranks = real(meridians)
        if meridians.shape[-2] == 4:
            ranks[2] = 3
        return ranks

    monkeypatch.setattr(variety, "locus_ranks", generic_row_2)
    result = selftest.check_small_k_rigidity({"k3": 5, "k4": 5}, 3)
    assert not result.ok
    assert result.detail.startswith("k=4 produced loci ['generic'] (first sample (3, 3, 2)); k=3 spread ")


def test_failed_link_gate_names_samples(monkeypatch, capsys):
    real = morse.link_samples

    def off_sphere(n, count, rng):
        zs = real(n, count, rng)
        zs[2] *= 2.0
        return zs

    monkeypatch.setattr(morse, "link_samples", off_sphere)
    assert cli.main(["link-sample", "--n", "3", "--count", "5", "--seed", "4"]) == 1
    assert "failing (seed, index) pairs: [(4, 2)]" in capsys.readouterr().err


def test_rejected_sample_is_named(monkeypatch, capsys):
    # sample 3 of every run leaves the surface relation: the stacked
    # validation replays make_surface_rep on it, and the error names the
    # sample's (seed, *path, index)
    real = cover.sample_points

    def off_relation(k, rngs):
        rows = real(k, rngs)
        rows[3, 0] = rows[3, 1]
        return rows

    monkeypatch.setattr(cover, "sample_points", off_relation)
    for argv in (["cover", "roundtrip"], ["cover", "fiber"], ["lemma52"]):
        assert cli.main([*argv, "--count", "5", "--seed", "4"]) == 1
        assert capsys.readouterr().err.startswith("error: sample (4, 3): surface relation residual ")
    checks = ("cover-roundtrip", "lemma52-branches")
    monkeypatch.setattr(selftest, "CHECKS", tuple(c for c in selftest.CHECKS if c[0] in checks))
    ok, lines = selftest.run_selftest(seed=2)
    assert not ok
    assert lines[0].startswith("FAIL cover-roundtrip: raised RelationViolated: sample (2, 5, 3): surface relation")
    assert lines[1].startswith("FAIL lemma52-branches: raised RelationViolated: sample (2, 8, 3): surface relation")


def test_repeated_calls_in_one_process(monkeypatch, capsys):
    # the parser is built once per process; every call must parse afresh
    monkeypatch.setattr(cover, "LEMMA_TOL", 1e-30)
    commands = [
        ["sample", "--k", "5", "--count", "4", "--seed", "2"],
        ["cover", "roundtrip", "--count", "3", "--seed", "1"],
        ["sample", "--k", "7", "--count", "2", "--format", "csv", "--sorted"],
        ["morse", "--n", "2..3"],
        ["lemma52", "--count", "20"],
        ["link-sample", "--n", "3", "--count", "5"],
        ["sample", "--k", "2"],
        ["cover", "fiber", "--abelian-points", "--count", "0"],
    ]

    def run_all():
        outputs = []
        for argv in commands:
            rc = cli.main(argv)
            captured = capsys.readouterr()
            outputs.append((rc, captured.out, captured.err))
        with pytest.raises(SystemExit):
            cli.main(["nonsense"])
        capsys.readouterr()
        return outputs

    first = run_all()
    assert [rc for rc, _, _ in first] == [0, 0, 0, 0, 1, 0, 2, 2]
    assert run_all() == first


def test_commands_are_looked_up_when_run(monkeypatch, capsys):
    # the parser is cached after the first call; a command wrapped after it
    # (as a tracer wraps cli.cmd_*) still runs
    argv = ["sample", "--k", "4", "--count", "2"]
    assert cli.main(argv) == 0
    first = capsys.readouterr()
    calls = []
    real = cli.cmd_sample

    def recording(args):
        calls.append(args.k)
        return real(args)

    monkeypatch.setattr(cli, "cmd_sample", recording)
    assert cli.main(argv) == 0
    assert calls == [4]
    assert capsys.readouterr() == first


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--k", "2"),
            ("sample", "--k", "17"),
            ("sample", "--k", "6", "--count", "0"),
            ("morse", "--n", "1"),
            ("morse", "--n", "13"),
            ("morse", "--n", "abc"),
            ("morse", "--n", "4..2"),
            ("link-sample", "--n", "2..4"),
            ("cover", "roundtrip", "--format", "csv"),
            ("lemma52", "--format", "json"),
            ("morse", "--n", "2", "--count", "3"),
            ("morse", "--n", "2", "--seed", "1"),
            ("nonsense",),
            ("cover",),
        ],
    )
    def test_exit_2(self, argv):
        assert run_cli(*argv).returncode == 2

    @pytest.mark.parametrize("argv", [("sample", "--k", "6"), ("selftest",)])
    def test_negative_seed_exits_2(self, argv):
        proc = run_cli(*argv, "--seed", "-1")
        assert proc.returncode == 2
        assert "argument --seed: must be non-negative, got -1" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("target", ["missing/x.jsonl", "."])
    def test_unwritable_out_exits_2(self, target, tmp_path):
        # a path under a missing directory, and a path that is a directory
        out = tmp_path / target
        proc = run_cli("sample", "--k", "6", "--count", "2", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("cover", "push"),
            ("cover", "extend"),
            ("cover", "roundtrip"),
            ("cover", "fiber"),
            ("lemma52",),
            ("link-sample", "--n", "3"),
        ],
    )
    def test_every_seed_option_refuses_a_negative_seed(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--seed", "-3"])
        assert exc.value.code == 2
        assert "must be non-negative, got -3" in capsys.readouterr().err

    def test_invariant_failure_exits_1(self, monkeypatch, capsys):
        # the campaigns lift through the stacked section, cover.lifts
        def broken(generators):
            raise RelationViolated(3.0e-7)

        monkeypatch.setattr(cover, "lifts", broken)
        assert cli.main(["cover", "roundtrip", "--count", "2"]) == 1
        assert "surface relation residual 3.000e-07" in capsys.readouterr().err

    def test_cover_extend_invariant_failure_exits_1(self, monkeypatch, capsys):
        def broken(generators):
            raise RelationViolated(3.0e-7)

        monkeypatch.setattr(cover, "lifts", broken)
        assert cli.main(["cover", "extend", "--count", "2"]) == 1
        assert "error: surface relation residual 3.000e-07" in capsys.readouterr().err

    def test_cover_extend_programming_error_propagates(self, monkeypatch):
        def broken(generators):
            raise TypeError("not a lift")

        monkeypatch.setattr(cover, "lifts", broken)
        with pytest.raises(TypeError, match="not a lift"):
            cli.main(["cover", "extend", "--count", "2"])


class TestCover:
    def test_push(self):
        proc = run_cli("cover", "push", "--count", "4")
        assert proc.returncode == 0
        recs = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        assert len(recs) == 4
        assert all(r["relation_residual"] <= 1e-10 for r in recs)

    def test_extend(self):
        proc = run_cli("cover", "extend", "--count", "3")
        assert proc.returncode == 0
        rec = json.loads(proc.stdout.strip().splitlines()[0])
        signs = [lift["sign"] for lift in rec["lifts"]]
        assert signs == [1, -1]

    def test_roundtrip_ok(self):
        proc = run_cli("cover", "roundtrip", "--count", "10")
        assert proc.returncode == 0
        assert "ok" in proc.stderr

    def test_roundtrip_gate(self, monkeypatch, capsys):
        monkeypatch.setattr(cover, "ROUNDTRIP_TOL", 1e-20)
        assert cli.main(["cover", "roundtrip", "--count", "5"]) == 1
        assert "(seed, index)" in capsys.readouterr().err

    def test_fiber_random(self):
        proc = run_cli("cover", "fiber", "--count", "6")
        assert proc.returncode == 0
        recs = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        assert all(r["class_count"] in (1, 2) for r in recs)

    def test_fiber_abelian_points(self):
        proc = run_cli("cover", "fiber", "--abelian-points")
        assert proc.returncode == 0
        recs = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        assert len(recs) == 16
        assert all(r["on_branch"] for r in recs)
        assert "branch fraction 1.0000" in proc.stderr


class TestMorse:
    def test_range_json(self):
        proc = run_cli("morse", "--n", "2..4")
        assert proc.returncode == 0
        recs = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        assert [r["n"] for r in recs] == [2, 3, 4]
        assert all(r["exact_ok"] for r in recs)

    def test_single_csv(self):
        proc = run_cli("morse", "--n", "3", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("n,det_A,pfaffian,")
        assert lines[1].split(",")[0] == "3"

    def test_fd_gate(self, monkeypatch):
        monkeypatch.setattr(morse, "FD_TOL", 1e-12)
        assert cli.main(["morse", "--n", "3"]) == 1


class TestLemma52:
    def test_campaign(self):
        proc = run_cli("lemma52", "--count", "60")
        assert proc.returncode == 0
        assert "branch coverage" in proc.stderr
        recs = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        branches = {r["branch"] for r in recs}
        assert branches == set(range(1, 8))
        assert max(r["max_residual"] for r in recs) <= 1e-10


class TestLinkSample:
    def test_json(self):
        proc = run_cli("link-sample", "--n", "3", "--count", "7")
        assert proc.returncode == 0
        recs = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        assert len(recs) == 7
        assert len(recs[0]["zs"]) == 4

    def test_csv(self):
        proc = run_cli("link-sample", "--n", "2", "--count", "4", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "re_1,im_1,re_2,im_2,is_real"
        assert len(lines) == 5


class TestSelftest:
    def test_passes_quickly(self):
        start = time.perf_counter()
        proc = run_cli("selftest")
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 12
        assert all(line.startswith("PASS ") for line in lines)
        assert elapsed < 60.0

    def test_deterministic_output(self):
        a = run_cli("selftest", "--seed", "4")
        b = run_cli("selftest", "--seed", "4")
        assert a.stdout == b.stdout

    def test_mutated_pairing_matrix_is_caught(self, monkeypatch):
        # flipping the sign of A preserves every exact invariant (m is even,
        # so even the Pfaffian survives) but must trip the numeric suite
        true_A = morse.matrix_A

        def mutated(n):
            return -true_A(n)

        monkeypatch.setattr(morse, "matrix_A", mutated)
        ok, lines = selftest.run_selftest(seed=0)
        assert not ok
        failed = [line for line in lines if line.startswith("FAIL")]
        assert any("hessian-numeric" in line for line in failed)
