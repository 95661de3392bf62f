"""Speed snapshot of charvar: microseconds per key of a campaign's keyed
draws, the sampler's and those of four certification checks, and the share
of keyed rows a real generator draws, per operation, scalar and per
stacked row, the morse and conjugator solvers per call, per in-process CLI
job, and the acceptance criteria and the link sampler at full counts.

    python3 bench/snapshot.py

Imports charvar from src/ of this checkout, a git clone, and writes
bench/BENCH_<date>_<revision>.json; the revision ends in -dirty when src/
differs from HEAD.  Every time is recorded raw and scaled
to perfbench's reference host speed: a shared host's speed swings by up to
2x within minutes, so each measurement is bracketed by samples of
perfbench's host-speed probe and multiplied by their factor.
"""

from __future__ import annotations

import contextlib
import datetime
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from charvar import campaign, cli, cover, morse, quat, rep, selftest, variety  # noqa: E402
from perfbench.worker import HostSpeed  # noqa: E402
from perfbench.workloads import BUDGETS_S  # noqa: E402

ROWS = 256  # inputs per timed pass, scalar and stacked alike
REPEATS = 5
REFINE_POINTS = 16  # link points refined per timed pass, one at a time and as one stack
CONJUGATOR_PAIRS = 32  # k = 6 pairs per timed pass, conjugate and independent
CLI_JOBS = 20  # in-process CLI runs per timed pass
SHARE_KEYS = 10000  # keyed rows over which the share redrawn by a generator is counted
# acceptance criteria by number; their budgets are perfbench's BUDGETS_S.
# The link sampler is no criterion and has no budget
CRITERIA = (
    (1, "abelian-census", selftest.check_abelian_census),
    (2, "cover-roundtrip", selftest.check_cover_roundtrip),
    (3, "fiber-two-fold", selftest.check_fiber_two_fold),
    (4, "lemma52-branches", selftest.check_lemma52_branches),
    (5, "hessian-exact", selftest.check_hessian_exact),
    (6, "hessian-numeric", selftest.check_hessian_numeric),
    (7, "small-k-rigidity", selftest.check_small_k_rigidity),
    (8, "submersion-certificates", selftest.check_submersion),
    (9, "chart-symmetries", selftest.check_chart_symmetries),
    (10, "bd-torus", selftest.check_bd_torus),
    (None, "link-sampler", selftest.check_link_sampler),
)


def timed(fn, speed: HostSpeed) -> tuple[float, float]:
    """Seconds of the fastest of REPEATS calls of fn, raw and host-scaled:
    the fastest call is the one least disturbed by other load."""
    raw, scaled = [], []
    for _ in range(REPEATS):
        speed.probe()
        first = len(speed.samples)
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        speed.probe()
        raw.append(elapsed)
        scaled.append(elapsed * speed.factor(first - 1, len(speed.samples)))
    return min(raw), min(scaled)


def per_op(fn, ops: int, speed: HostSpeed) -> dict[str, float]:
    raw, scaled = timed(fn, speed)
    return {"raw_us": 1e6 * raw / ops, "scaled_us": 1e6 * scaled / ops}


def layers(speed: HostSpeed) -> dict[str, dict]:
    """Microseconds per operation: the one-sample function ("scalar") on ROWS
    inputs one at a time, and its stacked form on one stack of ROWS rows,
    per row.  Where the one-sample function is a one-row call of the
    stacked form, "scalar" is the cost of such a call; a stacked form
    without one has no "scalar"."""
    rngs = lambda: [np.random.default_rng((7, i)) for i in range(ROWS)]  # noqa: E731
    reps = [variety.sample_point(6, rng) for rng in rngs()]
    surfaces = [cover.pushforward(r) for r in reps]
    meridians = np.stack([r.meridians for r in reps])
    gens = np.stack([np.stack(s.generators()) for s in surfaces])
    quads = [cover.section_inputs(np.stack(s.generators()))[:4] for s in surfaces]
    quad_stack = [np.stack(v) for v in zip(*quads)]
    thetas = np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, size=(ROWS, 4))
    bd = rep.bd_from_angles(thetas)
    pure_u, pure_v = (
        np.stack([quat.random_pure(np.random.default_rng((seed, i))) for i in range(ROWS)]) for seed in (16, 17)
    )
    qa, qb = (np.random.default_rng(seed).normal(size=(ROWS, 4)) for seed in (12, 13))
    parts = meridians[:, :-1]
    zs = 0.5 * (qa + 1j * qb)  # n = 3 chart coordinates
    ops = {
        "qmul": (
            lambda: [quat.qmul(a, b) for a, b in zip(qa, qb)],
            lambda: quat.qmul(qa, qb),
            "quat.qmul on (N, 4) stacks",
        ),
        "eval_chart_g(3)": (
            lambda: [morse.eval_chart_g(3, z) for z in zs],
            lambda: morse.eval_chart_g(3, zs),
            "morse.eval_chart_g on (N, 4) coordinate stacks",
        ),
        "make_rep": (
            lambda: [rep.make_rep(m) for m in meridians],
            lambda: rep.make_reps(meridians),
            "rep.make_reps",
        ),
        "complete_rep": (
            lambda: [rep.complete_rep(m[:-1]) for m in meridians],
            lambda: rep.complete_reps(meridians[:, :-1]),
            "rep.complete_reps",
        ),
        "make_surface_rep": (
            lambda: [rep.make_surface_rep(*g) for g in gens],
            lambda: rep.make_surface_reps(gens),
            "rep.make_surface_reps",
        ),
        "bd_from_angles": (None, lambda: rep.bd_from_angles(thetas), "rep.bd_from_angles"),
        "angles_from_bd": (None, lambda: rep.angles_from_bd(bd), "rep.angles_from_bd"),
        "rotor_between": (
            lambda: [quat.rotor_between(u, v) for u, v in zip(pure_u, pure_v)],
            lambda: quat.rotor_between(pure_u, pure_v),
            "quat.rotor_between on (N, 4) stacks",
        ),
        "sample_point": (
            lambda: [variety.sample_point(6, rng) for rng in rngs()],
            lambda: variety.sample_points(6, rngs()),
            "variety.sample_points",
        ),
        "submersion_certificate": (
            lambda: [variety.submersion_certificate(p) for p in parts],
            lambda: variety.submersion_certificates(parts),
            "variety.submersion_certificates",
        ),
        "conjugation_ranks": (None, lambda: variety.conjugation_ranks(parts), "variety.conjugation_ranks"),
        "local_dimension": (
            lambda: [variety.local_dimension(r) for r in reps],
            lambda: variety.local_dimensions(meridians),
            "variety.local_dimensions",
        ),
        "pushforward": (
            lambda: [cover.pushforward(r) for r in reps],
            lambda: cover.pushforwards(meridians),
            "cover.pushforwards",
        ),
        "extend": (
            lambda: [cover.extend(s, sign) for s in surfaces for sign in (1, -1)],
            lambda: cover.lifts(gens),
            "cover.lifts (both sheets: per row and sheet)",
        ),
        "lemma52_detailed": (
            lambda: [cover.lemma52_detailed(*q) for q in quads],
            lambda: cover.lemma52_stack(*quad_stack),
            "cover.lemma52_stack",
        ),
        "fiber": (
            lambda: [cover.fiber(s) for s in surfaces],
            lambda: cover.fibers(gens),
            "cover.fibers",
        ),
    }
    out = {}
    for name, (scalar, batch, form) in ops.items():
        calls = 2 * ROWS if name == "extend" else ROWS
        out[name] = {"batch_row": per_op(batch, calls, speed), "batch_form": form}
        if scalar is not None:
            out[name]["scalar"] = per_op(scalar, calls, speed)
    return out


TWO_PI = 2.0 * np.pi


def _site_draws() -> dict:
    """The draws of a chunk of keyed rows at four certification sites, as
    the checks make them: a quaternion-algebra triple, a chart-symmetries
    row at n = 6 (10 coordinates and an angle), a bd-torus row (four
    angles) and the constructed ladder families' inputs."""
    return {
        "algebra": lambda keys, rngs: campaign.random_draws(rngs, [("directions", 3, 4)]),
        "chart": lambda keys, rngs: campaign.random_draws(
            rngs, [("normal", 10), ("normal", 10), ("uniform", 1, 0.0, TWO_PI)]
        ),
        "torus": lambda keys, rngs: campaign.random_draws(rngs, [("uniform", 4, 0.0, TWO_PI)]),
        "branch_families": lambda keys, rngs: [cover.lemma_branch_inputs([key[-2] for key in keys], rngs)],
    }


def keyed_draws(speed: HostSpeed) -> dict[str, dict]:
    """Microseconds per key of ROWS keyed rows, as ``campaign.chunked`` hands
    them to a campaign: their states hashed (``campaign.key_states``), their
    generators taken in turn and left unused, ``variety.sample_points(6)``
    drawing from them, and the draws of :func:`_site_draws`; the ladder's
    families take ROWS // 6 keys (seed, 9, b, i) each, b = 2..7, as
    ``cover.ladder_records`` orders them."""

    def keyed(fn):
        return lambda: campaign.chunked(7, (), ROWS, fn)

    keys = [(7, i) for i in range(ROWS)]
    family_keys = [(7, 9, b, i) for b in range(2, 8) for i in range(ROWS // 6)]
    out = {
        "key_states": per_op(lambda: campaign.key_states(keys), ROWS, speed),
        "generators": per_op(
            keyed(lambda keys, rngs: [rngs.generator(row) for row in range(len(rngs))]), ROWS, speed
        ),
        "sample_points(6)": per_op(keyed(lambda keys, rngs: list(variety.sample_points(6, rngs))), ROWS, speed),
    }
    for name, draw in _site_draws().items():
        if name == "branch_families":
            out[name] = per_op(lambda: campaign.run(family_keys, draw), len(family_keys), speed)
        else:
            out[name] = per_op(keyed(draw), ROWS, speed)
    return out


def redrawn_share(k: int = 6) -> dict:
    """The share of SHARE_KEYS keyed ``sample_points(k)`` rows that a real
    generator draws: the rows with a normal off the ziggurat's fast path,
    which ``charvar.campaign`` cannot decode."""
    streams = campaign.keyed_rngs([(7, i) for i in range(SHARE_KEYS)])
    _, fast = campaign.standard_normal(streams.draw(3 * (k - 2) + 1)[:, :-1])
    return {"k": k, "keys": SHARE_KEYS, "share": 1.0 - float(fast.all(axis=1).mean())}


def morse_solvers(speed: HostSpeed) -> dict[str, dict]:
    """Microseconds per call of the finite-difference Hessian at n = 8, and
    per refined link point at n = 3: REFINE_POINTS unrefined samples refined
    one at a time and as one stack."""
    starts = morse.link_samples(3, REFINE_POINTS, np.random.default_rng(14))
    return {
        "fd_hessian(8)": per_op(lambda: morse.fd_hessian(8), 1, speed),
        "refine_chart_zero(3)": per_op(
            lambda: [morse.refine_chart_zero(3, z) for z in starts], REFINE_POINTS, speed
        ),
        "refine_chart_zero(3) stacked": per_op(lambda: morse.refine_chart_zero(3, starts), REFINE_POINTS, speed),
    }


def conjugator(speed: HostSpeed) -> dict[str, dict]:
    """Microseconds per ``conjugator_search`` call at k = 6, on CONJUGATOR_PAIRS
    conjugate pairs (a conjugator is found) and as many independent pairs."""
    rng = np.random.default_rng(15)
    reps = [variety.sample_point(6, rng) for _ in range(CONJUGATOR_PAIRS)]
    conjugates = [rep.conjugate_rep(quat.random_unit(rng), a) for a in reps]
    others = [variety.sample_point(6, rng) for _ in range(CONJUGATOR_PAIRS)]
    return {
        f"conjugator_search(6) {kind}": per_op(
            lambda: [variety.conjugator_search(a, b) for a, b in zip(reps, pairs)], CONJUGATOR_PAIRS, speed
        )
        for kind, pairs in (("conjugate", conjugates), ("independent", others))
    }


def cli_jobs(speed: HostSpeed) -> dict[str, dict]:
    """Microseconds per in-process ``cli.main`` run of the lemma52 command of
    a perfbench cover-t2 job: its data to os.devnull, its verdict to a
    buffer, and a failed run raises."""
    argv = ["lemma52", "--count", "100", "--seed", "0", "--out", os.devnull]

    def jobs():
        with contextlib.redirect_stderr(io.StringIO()):
            for _ in range(CLI_JOBS):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"charvar {' '.join(argv)} failed")

    return {"lemma52 --count 100": per_op(jobs, CLI_JOBS, speed)}


def criteria(speed: HostSpeed) -> dict[str, dict]:
    """Seconds of each criterion at full counts, seed 0, the fastest of
    REPEATS runs as :func:`timed` takes it, and its share of its budget."""
    out = {}
    for number, name, check in CRITERIA:
        results = []
        raw, scaled = timed(lambda: results.append(check(selftest.FULL_COUNTS, 0)), speed)
        budget = BUDGETS_S.get(name)
        out[name if number is None else f"criterion_{number}"] = {
            "check": name,
            "ok": all(result.ok for result in results),
            "raw_s": raw,
            "scaled_s": scaled,
            "budget_s": budget,
            "raw_share": budget and raw / budget,
            "scaled_share": budget and scaled / budget,
        }
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def main() -> int:
    speed = HostSpeed()
    for _ in range(5):
        speed.probe()
    # a working tree whose src/ differs from HEAD is HEAD plus a change
    revision = git("rev-parse", "--short", "HEAD") + ("-dirty" if git("status", "--porcelain", "--", "src") else "")
    snapshot = {
        "revision": revision,
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows": ROWS,
        "repeats": REPEATS,
        "keyed_us_per_key": keyed_draws(speed),
        "keyed_redrawn_share": redrawn_share(),
        "layers_us_per_op": layers(speed),
        "morse_us_per_call": morse_solvers(speed),
        "variety_us_per_call": conjugator(speed),
        "cli_us_per_call": cli_jobs(speed),
        "criteria_full_counts": criteria(speed),
        "host_probe_median_s": speed.median(),
    }
    path = ROOT / "bench" / f"BENCH_{snapshot['date']}_{revision}.json"
    path.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
