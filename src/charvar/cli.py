"""Command-line driver: sampling campaigns, cover diagnostics, Hessian
certification, and the selftest suite.

Sampling campaigns draw sample i from a generator keyed by (seed, i), and
link-sample draws its points in order from one generator keyed by the
seed, so a given configuration produces byte-identical output.  Data goes
to --out (or stdout); human summaries go to stderr.  Exit codes: 0 all
invariants hold, 1 an invariant failed, 2 usage error or an output that
cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple

import numpy as np

from . import campaign, cover, morse, selftest, variety
from .cover import LEMMA_TOL  # re-exported: the bound of the lemma52 gate
from .rep import (
    TOL_REL,
    fingerprint_batch,
    fingerprint_digest,
    product_residuals,
    relation_residuals,
    surface_to_json,
)

K_RANGE = (3, 16)
SEED_HELP = "base seed; sample i uses (seed, i)"
N_RANGE = (2, morse.N_MAX)


class UsageError(Exception):
    pass


class Run(NamedTuple):
    """A command's data lines, the CSV header written before them (if any),
    its stderr verdict, and whether every invariant held."""

    lines: list[str]
    header: str | None
    verdict: str
    ok: bool


def _emit(lines: list[str], out: str | None, sort: bool, header: str | None) -> None:
    """Write the data lines, sorted if asked, after the CSV header if any."""
    if sort:
        lines = sorted(lines)
    if header is not None:
        lines = [header, *lines]
    text = "\n".join(lines) + ("\n" if lines else "")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def _failing(seed: int, indices: list[int]) -> str:
    return f"failing (seed, index) pairs: {[(seed, i) for i in indices]}"


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise UsageError(f"{name} must be in {lo}..{hi}, got {value}")


def _parse_n_spec(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo_s, hi_s = spec.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError
            values = list(range(lo, hi + 1))
        else:
            values = [int(spec)]
    except ValueError:
        raise UsageError(f"--n expects an integer or a range like 2..8, got {spec!r}")
    for n in values:
        _check_range("n", n, *N_RANGE)
    return values


def cmd_sample(args: argparse.Namespace) -> Run:
    _check_range("k", args.k, *K_RANGE)

    def sample(keys, rngs):
        mers = variety.sample_points(args.k, rngs)
        residuals = zip(
            np.abs(variety.eval_f(mers[:, :-1])).tolist(),
            product_residuals(mers).tolist(),
            np.max(np.abs(mers[..., 0]), axis=1).tolist(),
        )
        return [
            {
                "index": i,
                "seed": seed,
                "k": args.k,
                "locus": variety.LOCUS_NAMES[rank],
                "rank": rank,
                "fingerprint_digest": fingerprint_digest(values),
                "fingerprint": values.tolist(),
                "residuals": {"constraint": constraint, "product": product, "traceless": traceless},
            }
            for (seed, i), values, rank, (constraint, product, traceless) in zip(
                keys, fingerprint_batch(mers), variety.locus_ranks(mers).tolist(), residuals
            )
        ]

    records = campaign.chunked(args.seed, (), args.count, sample)
    failures = [r["index"] for r in records if max(r["residuals"].values()) > TOL_REL]
    header = None
    if args.format == "json":
        lines = [_json_line(r) for r in records]
    else:
        header = "index,seed,k,locus,rank,fingerprint_digest,constraint,product,traceless"
        lines = [
            f"{r['index']},{r['seed']},{r['k']},{r['locus']},{r['rank']},"
            f"{r['fingerprint_digest']},{r['residuals']['constraint']!r},"
            f"{r['residuals']['product']!r},{r['residuals']['traceless']!r}"
            for r in records
        ]
    if failures:
        verdict = f"sample: {len(failures)} of {args.count} samples exceed tol {TOL_REL:g}; "
        verdict += _failing(args.seed, failures)
    else:
        worst = max(max(r["residuals"].values()) for r in records)
        verdict = f"sample: k={args.k} count={args.count} max residual {worst:.3e} ok"
    return Run(lines, header, verdict, not failures)


def cmd_cover_push(args: argparse.Namespace) -> Run:
    def push(keys, rngs):
        gens = cover.surface_samples(rngs)
        residuals = relation_residuals(gens).tolist()
        return [
            {"index": i, "seed": seed, **surface_to_json(g), "relation_residual": residual}
            for (seed, i), g, residual in zip(keys, gens, residuals)
        ]

    records = campaign.chunked(args.seed, (), args.count, push)
    worst = max(r["relation_residual"] for r in records)
    verdict = f"cover push: count={args.count} max relation residual {worst:.3e}"
    ok = worst <= TOL_REL
    if not ok:
        failures = [r["index"] for r in records if r["relation_residual"] > TOL_REL]
        verdict += f" > {TOL_REL:g}; {_failing(args.seed, failures)}"
    return Run([_json_line(r) for r in records], None, verdict, ok)


def cmd_cover_extend(args: argparse.Namespace) -> Run:
    def lift(keys, rngs):
        sheets = cover.lifts(cover.surface_samples(rngs))
        loci = variety.locus_ranks(sheets).tolist()
        return [
            {
                "index": i,
                "seed": seed,
                "lifts": [
                    {"sign": sign, "locus": variety.LOCUS_NAMES[rank], "meridians": lifted.tolist()}
                    for sign, lifted, rank in zip((1, -1), lifted_pair, ranks)
                ],
            }
            for (seed, i), lifted_pair, ranks in zip(keys, sheets, loci)
        ]

    lines = [_json_line(r) for r in campaign.chunked(args.seed, (), args.count, lift)]
    return Run(lines, None, f"cover extend: count={args.count} ok", True)


def cmd_cover_roundtrip(args: argparse.Namespace) -> Run:
    records = cover.roundtrip_records(args.seed, (), args.count)
    worst = max(max(r["residuals"].values()) for r in records)
    failures = [r["index"] for r in records if max(r["residuals"].values()) > cover.ROUNDTRIP_TOL]
    if failures:
        verdict = f"cover roundtrip: max residual {worst:.3e} > {cover.ROUNDTRIP_TOL:g}; "
        verdict += _failing(args.seed, failures)
    else:
        verdict = f"cover roundtrip: count={args.count} max residual {worst:.3e} ok"
    return Run([_json_line(r) for r in records], None, verdict, not failures)


def cmd_cover_fiber(args: argparse.Namespace) -> Run:
    if args.abelian_points:
        fibers = cover.fiber_records(*cover.fibers(cover.pushforwards(variety.enumerate_abelian(6))))
    else:
        def chunk(keys, rngs):
            return cover.fiber_records(*cover.fibers(cover.surface_samples(rngs)))

        fibers = campaign.chunked(args.seed, (), args.count, chunk)
    records = [{"index": i, **fiber} for i, fiber in enumerate(fibers)]
    fraction = sum(r["on_branch"] for r in records) / len(records)
    verdict = f"cover fiber: {len(records)} fibers, branch fraction {fraction:.4f}"
    ok = not args.abelian_points or fraction == 1.0
    if not ok:
        verdict += "\ncover fiber: abelian points must all lie on the branch locus"
    return Run([_json_line(r) for r in records], None, verdict, ok)


def cmd_morse(args: argparse.Namespace) -> Run:
    reports = [morse.certify_hessian_numeric(n) for n in _parse_n_spec(args.n)]
    records = [morse.hessian_report_json(report) for report in reports]
    failing = [r.n for r in reports if not (r.exact_ok() and r.numeric_ok())]
    header = None
    if args.format == "json":
        lines = [_json_line(r) for r in records]
    else:
        header = "n,det_A,pfaffian,b_squared_identity_mod2,eig_positive,eig_negative,fd_max_error"
        lines = [
            f"{r['n']},{r['det_A']},{r['pfaffian']},{int(r['b_squared_identity_mod2'])},"
            f"{r['eig_positive']},{r['eig_negative']},{r['fd_max_error']!r}"
            for r in records
        ]
    worst = max(r["fd_max_error"] for r in records)
    verdict = f"morse: n={args.n} max fd error {worst:.3e}"
    if failing:
        verdict += f"; failing n: {failing}"
    return Run(lines, header, verdict, not failing)


def cmd_lemma52(args: argparse.Namespace) -> Run:
    per_branch = max(1, args.count // 20)
    records = cover.ladder_records(args.seed, ((), ()), args.count, per_branch)
    failures = cover.ladder_failures(records, args.seed, per_branch)
    worst = max(r["max_residual"] for r in records)
    verdict = f"lemma52: max residual {worst:.3e}, branch coverage {cover.ladder_coverage(records)}"
    verdict = "; ".join([verdict, *failures])
    return Run([_json_line(r) for r in records], None, verdict, not failures)


def cmd_link_sample(args: argparse.Namespace) -> Run:
    n, *rest = _parse_n_spec(args.n)
    if rest:
        raise UsageError("link-sample expects a single n, not a range")
    zs = morse.link_samples(n, args.count, np.random.default_rng((args.seed,)))
    sphere, quad = morse.link_defects(n, zs)
    bad = np.flatnonzero((sphere > morse.LINK_TOL) | (quad > morse.LINK_TOL)).tolist()
    real = np.all(zs.imag == 0.0, axis=-1)
    header = None
    if args.format == "csv":
        header, *lines = morse.link_csv(zs).splitlines()
    else:
        rows = zip(np.stack([zs.real, zs.imag], axis=-1).tolist(), real.tolist())
        lines = [_json_line({"index": i, "zs": row, "is_real": tag}) for i, (row, tag) in enumerate(rows)]
    verdict = f"link-sample: n={n} count={args.count} real-tagged {int(real.sum())}"
    if bad:
        verdict += f"; {_failing(args.seed, bad)}"
    return Run(lines, header, verdict, not bad)


def cmd_selftest(args: argparse.Namespace) -> Run:
    ok, lines = selftest.run_selftest(seed=args.seed)
    return Run(lines, None, f"selftest: {'ok' if ok else 'FAILED'}", ok)


def _seed(text: str) -> int:
    """A --seed value: every key starts with it, and key entries are
    non-negative ints."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_sampling(parser: argparse.ArgumentParser, count_default: int, seed_help: str = SEED_HELP) -> None:
    parser.add_argument("--count", type=int, default=count_default, help="number of samples")
    parser.add_argument("--seed", type=_seed, default=0, help=seed_help)


def _add_output(parser: argparse.ArgumentParser, csv: bool = False) -> None:
    if csv:
        parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--sorted", action="store_true", help="sort output lines")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it takes a few milliseconds, a large share of
    a small campaign."""
    parser = argparse.ArgumentParser(
        prog="charvar",
        description="Traceless SU(2) character varieties of punctured spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample the k-punctured variety, classify, fingerprint")
    p.add_argument("--k", type=int, required=True, help="number of punctures (3..16)")
    _add_sampling(p, count_default=10)
    _add_output(p, csv=True)
    p.set_defaults(fn="cmd_sample")

    c = sub.add_parser("cover", help="the 2-fold branched cover at k = 6")
    csub = c.add_subparsers(dest="subaction", required=True)

    p = csub.add_parser("push", help="pushforward of sampled 6-punctured classes")
    _add_sampling(p, count_default=10)
    _add_output(p)
    p.set_defaults(fn="cmd_cover_push")

    p = csub.add_parser("extend", help="lift sampled surface classes along both sheets")
    _add_sampling(p, count_default=10)
    _add_output(p)
    p.set_defaults(fn="cmd_cover_extend")

    p = csub.add_parser("roundtrip", help="verify pushforward after extend is the identity")
    _add_sampling(p, count_default=100)
    _add_output(p)
    p.set_defaults(fn="cmd_cover_roundtrip")

    p = csub.add_parser("fiber", help="enumerate both sheets over surface classes")
    _add_sampling(p, count_default=100)
    _add_output(p)
    p.add_argument(
        "--abelian-points",
        action="store_true",
        help="use the 16 abelian classes of the 6-punctured sphere as inputs",
    )
    p.set_defaults(fn="cmd_cover_fiber")

    p = sub.add_parser("morse", help="Hessian certification at the abelian points")
    p.add_argument("--n", required=True, help="half the puncture count: an integer or a range like 2..8")
    _add_output(p, csv=True)
    p.set_defaults(fn="cmd_morse")

    p = sub.add_parser("lemma52", help="case-ladder solver campaign with branch coverage")
    _add_sampling(p, count_default=1000)
    _add_output(p)
    p.set_defaults(fn="cmd_lemma52")

    p = sub.add_parser("link-sample", help="sample the link quadric at an abelian point")
    p.add_argument("--n", required=True, help="half the puncture count (single integer)")
    _add_sampling(p, count_default=100, seed_help="seed of the one generator that draws the points in order")
    _add_output(p, csv=True)
    p.set_defaults(fn="cmd_link_sample")

    p = sub.add_parser("selftest", help="run the named verification suite at reduced counts")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn="cmd_selftest")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "count", 1) < 1:
            raise UsageError("count must be >= 1")
        run = globals()[args.fn](args)  # looked up by name now, so a wrapped cmd_* runs
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # every validation error of the library: an invariant failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        # selftest has no --sorted
        _emit(run.lines, args.out, getattr(args, "sorted", False), run.header)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(run.verdict, file=sys.stderr)
    return 0 if run.ok else 1


if __name__ == "__main__":
    sys.exit(main())
