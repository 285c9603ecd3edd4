"""Command line front end.

Every subcommand prints a JSON envelope {"config": ..., "version": ...,
"result": ...} with sorted keys to stdout, so a fixed invocation (config
+ seed) produces identical bytes no matter the thread count or machine.
config is read off the parsed arguments: the command and the six settings
N, alpha, grid_budget, seed, out and threads, each as given or at its
default.  --out names only a file a command makes besides its envelope:
the base path of construct's CSV and hits files, or interp's interpolant.

Exit codes: 0 success, 2 validation failure (a report that says "no"),
1 runtime or usage error.

The argument parser is built once per process, on the first call of
main, and reused by every later call.  Its handlers are this module's
functions, and they look up what they call when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .convexseq import ConvexSequence, construct, validate
from .expsum import (
    DEFAULT_BUDGET,
    ExpSumSpec,
    canonical_grid,
    sup_norm_Lp,
)
from .experiments import EXPERIMENTS, intersection_scan, regress
from .interp import build_c1, knots_from_sequence, upgrade_c2
from .rational import count_fractions, enumerate_fractions


def _emit(args: argparse.Namespace, result) -> None:
    # config: the command, with experiment's A, B or C, and six settings,
    # each as parsed or at its default where the command has no such option
    given = vars(args)
    config = {key: given.get(key, default) for key, default in (
        ("N", None), ("alpha", None), ("grid_budget", DEFAULT_BUDGET), ("seed", 0),
        ("out", None), ("threads", None))}
    for key in ("N", "alpha"):  # one value is a one-element list, as scan's are
        if isinstance(config[key], (int, float)):
            config[key] = [config[key]]
    config["command"] = " ".join(filter(None, (args.command, given.get("which"))))
    doc = {"config": config, "version": __version__, "result": result}
    # a non-finite float is no JSON: it fails here as one `error:` line
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.split(",") if tok]


def _float_list(s: str) -> list[float]:
    return [float(tok) for tok in s.split(",") if tok]


def _load_spec(path: str) -> ExpSumSpec:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # syntax, nesting, not UTF-8
            raise ValueError(f"spec file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"spec file {path}: not a JSON object")
    for field in ("N", "xi", "eta", "b"):
        if field not in raw:
            raise ValueError(f"spec file {path}: missing field '{field}'")
    # type(), not isinstance: int() would truncate 2.7 and read true as 1,
    # and np.asarray would read true as 1.0 and "2" as 2.0
    if type(raw["N"]) is not int:
        raise ValueError(f"spec file {path}: N must be an integer, got {raw['N']!r}")
    for field in ("xi", "eta", "b"):
        if not (isinstance(raw[field], list)
                and all(type(v) in (int, float) for v in raw[field])):
            raise ValueError(f"spec file {path}: {field} must be a list of numbers")
    try:  # an integer past the float range overflows
        return ExpSumSpec(**{field: raw[field] for field in ("N", "xi", "eta", "b")})
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"spec file {path}: {exc}") from exc


def cmd_construct(args) -> int:
    seq = construct(args.N, args.alpha)
    report = validate(seq)
    base = args.out or "seq"
    seq.to_csv(base + ".csv")
    seq.hits_to_json(base + ".hits.json")
    result = {
        "csv": base + ".csv",
        "hits_json": base + ".hits.json",
        "hit_count": len(seq.hits or []),
        "meta": seq.meta,
        "validation": report,
    }
    _emit(args, result)
    return 0 if report["pass"] else 2


def cmd_validate(args) -> int:
    seq = ConvexSequence.from_csv(args.path, hits_path=args.hits)
    report = validate(seq)
    _emit(args, report)
    return 0 if report["pass"] else 2


def cmd_interp(args) -> int:
    if args.path:
        seq = ConvexSequence.from_csv(args.path)
        args.N = args.alpha = None  # unused, so the envelope records null
    else:
        seq = construct(args.N, args.alpha)
    f = upgrade_c2(build_c1(knots_from_sequence(seq.values)))
    xs, ys, ps = f.knots.T
    vals, derivs, seconds = f.eval_many(xs)
    interp_err = float(max(np.abs(vals - ys).max(), np.abs(derivs - ps).max()))
    curv_err = float(np.abs(seconds / f.D - 1.0).max())
    grid = np.linspace(f.x_min(), f.x_max(), 2000)
    convex_ok = bool(np.all(np.diff(f.eval_many(grid)[1]) > -1e-12))
    ok = interp_err <= 1e-10 and curv_err <= 1e-6 and convex_ok
    result = {
        "knots": len(f.knots),
        "D": f.D,
        "interp_err": interp_err,
        "knot_curvature_rel_err": curv_err,
        "convex": convex_ok,
        "pass": ok,
    }
    if args.out:
        f.dump_json(args.out)
        result["interpolant"] = args.out
    _emit(args, result)
    return 0 if ok else 2


def cmd_farey(args) -> int:
    if args.count_only:
        result = {"count": count_fractions(args.lo, args.hi, args.qmax)}
    else:
        fracs = enumerate_fractions(args.lo, args.hi, args.qmax)
        result = {"count": len(fracs), "fractions": fracs}  # pairs print as lists
    _emit(args, result)
    return 0


def cmd_expsum(args) -> int:
    spec = _load_spec(args.spec)
    grid = canonical_grid(spec.N, args.grid_budget)
    if args.levels:
        norm, levels = sup_norm_Lp(spec, grid, args.direction, args.p,
                                   threads=args.threads, with_levels=True)
        result = {"norm": norm, "levels": levels}
    else:
        result = {"norm": sup_norm_Lp(spec, grid, args.direction, args.p,
                                      threads=args.threads)}
    _emit(args, result)
    return 0


def cmd_experiment(args) -> int:
    if args.seed < 0:  # B and C seed NumPy's generator, which takes no negative seed
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    fn = EXPERIMENTS[args.which]
    rep = fn(args.N, grid_budget=args.grid_budget, seed=args.seed, threads=args.threads)
    _emit(args, rep)
    return 0 if rep["identity"]["pass"] else 2


def cmd_scan(args) -> int:
    _emit(args, intersection_scan(args.N, args.alpha))
    return 0


def cmd_regress(args) -> int:
    with open(args.points) as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # syntax, nesting, not UTF-8
            raise ValueError(f"{args.points}: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError(f"{args.points}: not a JSON list of [N, value] pairs")
    pts = []
    for entry in raw:
        try:  # type(), not isinstance: a JSON true is no number here
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(type(v) in (int, float) for v in entry)):
                raise TypeError(f"not an [N, value] pair of numbers: {json.dumps(entry)}")
            pts.append((float(entry[0]), float(entry[1])))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"{args.points}: entry {len(pts) + 1}: {exc}") from None
    _emit(args, regress(pts))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one `error:` line, like any other bad input.

    argparse's own exit code 2 is this program's "validation failed".
    """

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="convexsums",
        description="Convex sequence constructions and exponential sum experiments",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a sequence, emit CSV + hits JSON")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", help="output base path (default: seq)")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("validate", help="check convexity windows of a CSV sequence")
    p.add_argument("path")
    p.add_argument("--hits", help="hits JSON to attach")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("interp", help="interpolate a sequence, run the invariant suite")
    p.add_argument("path", nargs="?", help="sequence CSV (else construct --N/--alpha)")
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", help="dump interpolant JSON here")
    p.set_defaults(fn=cmd_interp)

    p = sub.add_parser("farey", help="enumerate bounded-denominator fractions")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_farey)

    p = sub.add_parser("expsum", help="norms / level sets for a spec JSON file")
    p.add_argument("spec", help="JSON file with fields N, xi, eta, b")
    p.add_argument("--direction", choices=["t", "x"], default="t")
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--levels", action="store_true")
    p.add_argument("--grid-budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=cmd_expsum)

    p = sub.add_parser("experiment", help="run witness experiment A, B, or C")
    p.add_argument("which", choices=list(EXPERIMENTS))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("scan", help="hit-count scaling over N and alpha lists")
    p.add_argument("--N", type=_int_list, required=True, help="comma separated")
    p.add_argument("--alpha", type=_float_list, required=True, help="comma separated")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("regress", help="log-log slope of (N, value) pairs")
    p.add_argument("points", help="JSON file: [[N, value], ...]")
    p.set_defaults(fn=cmd_regress)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
