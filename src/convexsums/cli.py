"""Command line front end.

Every subcommand prints a JSON envelope {"config": ..., "version": ...,
"result": ...} with sorted keys, so a fixed invocation (config + seed)
produces identical bytes no matter the thread count or machine.  Bulk
sequence data goes to CSV; everything else is JSON.

Exit codes: 0 success, 2 validation failure (a report that says "no"),
1 runtime or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .convexseq import (
    ConstructionError,
    ConvexSequence,
    construct,
    validate,
)
from .expsum import (
    DEFAULT_BUDGET,
    ExpSumSpec,
    canonical_grid,
    sup_norm_Lp,
)
from .experiments import EXPERIMENTS, intersection_scan, regress
from .interp import build_c1, knots_from_sequence, upgrade_c2
from .rational import count_fractions, enumerate_fractions


@dataclass(frozen=True)
class RunConfig:
    command: str
    N: list[int] | None = None
    alpha: list[float] | None = None
    grid_budget: int = DEFAULT_BUDGET
    seed: int = 0
    out: str | None = None
    threads: int | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _emit(config: RunConfig, result, out: str | None) -> None:
    doc = {"config": config.to_json_dict(), "version": __version__, "result": result}
    # a non-finite float is no JSON: it fails here as one `error:` line
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.split(",") if tok]


def _float_list(s: str) -> list[float]:
    return [float(tok) for tok in s.split(",") if tok]


def _load_spec(path: str) -> ExpSumSpec:
    with open(path) as fh:
        raw = json.load(fh)
    for field in ("N", "xi", "eta", "b"):
        if field not in raw:
            raise ValueError(f"spec file {path}: missing field '{field}'")
    try:
        return ExpSumSpec(
            N=int(raw["N"]),
            xi=np.asarray(raw["xi"], dtype=float),
            eta=np.asarray(raw["eta"], dtype=float),
            b=np.asarray(raw["b"], dtype=float),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"spec file {path}: {exc}") from exc


def cmd_construct(args) -> int:
    cfg = RunConfig(
        command="construct", N=[args.N], alpha=[args.alpha], out=args.out,
    )
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
        "validation": report.to_json_dict(),
    }
    _emit(cfg, result, None)
    return 0 if report.passed else 2


def cmd_validate(args) -> int:
    cfg = RunConfig(command="validate", out=args.out)
    seq = ConvexSequence.from_csv(args.path, hits_path=args.hits)
    report = validate(seq, theta=args.theta)
    _emit(cfg, report.to_json_dict(), args.out)
    return 0 if report.passed else 2


def cmd_interp(args) -> int:
    cfg = RunConfig(
        command="interp", N=[args.N], alpha=[args.alpha], out=args.out,
    )
    if args.path:
        seq = ConvexSequence.from_csv(args.path)
    else:
        seq = construct(args.N, args.alpha)
    f = upgrade_c2(build_c1(knots_from_sequence(seq)))
    xs = np.array([k.x for k in f.knots])
    ys = np.array([k.y for k in f.knots])
    ps = np.array([k.p for k in f.knots])
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
    _emit(cfg, result, None)
    return 0 if ok else 2


def cmd_farey(args) -> int:
    cfg = RunConfig(command="farey", out=args.out)
    if args.count_only:
        result = {"count": count_fractions(args.lo, args.hi, args.qmax)}
    else:
        fracs = enumerate_fractions(args.lo, args.hi, args.qmax)
        result = {
            "count": len(fracs),
            "fractions": [[f.numerator, f.denominator] for f in fracs],
        }
    _emit(cfg, result, args.out)
    return 0


def cmd_expsum(args) -> int:
    cfg = RunConfig(
        command="expsum", grid_budget=args.grid_budget, out=args.out,
        threads=args.threads,
    )
    spec = _load_spec(args.spec)
    grid = canonical_grid(spec.N, args.grid_budget)
    if args.levels:
        norm, rep = sup_norm_Lp(spec, grid, args.direction, args.p,
                                threads=args.threads, with_levels=True)
        result = {"norm": norm.to_json_dict(), "levels": rep.to_json_dict()}
    else:
        norm = sup_norm_Lp(spec, grid, args.direction, args.p, threads=args.threads)
        result = {"norm": norm.to_json_dict()}
    _emit(cfg, result, args.out)
    return 0


def cmd_experiment(args) -> int:
    cfg = RunConfig(
        command=f"experiment {args.which}", N=[args.N],
        grid_budget=args.grid_budget, seed=args.seed, out=args.out,
        threads=args.threads,
    )
    fn = EXPERIMENTS[args.which]
    rep = fn(args.N, grid_budget=args.grid_budget, seed=args.seed, threads=args.threads)
    _emit(cfg, rep.to_json_dict(), args.out)
    return 0 if rep.exact_identity_pass else 2


def cmd_scan(args) -> int:
    cfg = RunConfig(command="scan", N=args.N, alpha=args.alpha, out=args.out)
    results = intersection_scan(args.N, args.alpha)
    _emit(cfg, [r.to_json_dict() for r in results], args.out)
    return 0


def cmd_regress(args) -> int:
    cfg = RunConfig(command="regress", out=args.out)
    with open(args.points) as fh:
        raw = json.load(fh)
    pts = []
    try:
        for n, v in raw:
            pts.append((float(n), float(v)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{args.points}: entry {len(pts) + 1}: {exc}") from None
    _emit(cfg, regress(pts).to_json_dict(), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one `error:` line, like any other bad input.

    argparse's own exit code 2 is this program's "validation failed".
    """

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


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
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--out")
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
    p.add_argument("--out")
    p.set_defaults(fn=cmd_farey)

    p = sub.add_parser("expsum", help="norms / level sets for a spec JSON file")
    p.add_argument("spec", help="JSON file with fields N, xi, eta, b")
    p.add_argument("--direction", choices=["t", "x"], default="t")
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--levels", action="store_true")
    p.add_argument("--grid-budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_expsum)

    p = sub.add_parser("experiment", help="run witness experiment A, B, or C")
    p.add_argument("which", choices=["A", "B", "C"])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("scan", help="hit-count scaling over N and alpha lists")
    p.add_argument("--N", type=_int_list, required=True, help="comma separated")
    p.add_argument("--alpha", type=_float_list, required=True, help="comma separated")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("regress", help="log-log slope of (N, value) pairs")
    p.add_argument("points", help="JSON file: [[N, value], ...]")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_regress)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConstructionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
