"""convexsums benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs one workload (see workloads.py) in-process through
`convexsums.cli.main`, the path users take, as a closed loop: one caller
runs the workload's ops back to back.  Every op is run once, then the ops
are cycled again while the next one still fits in `--seconds`.  Every
envelope is checked.  Times are per-op medians summed over one pass of the
op list.

The gated times are in calibration units (`cal`): each op's time divided by
that of a fixed computation (`calibration`) timed just before and after it.
A shared host runs everything up to half again slower for seconds to
minutes at a time; the ratio cancels that swing, while a change to the
program moves it as much as it moves the op's own time.  The raw seconds
are printed on the lines before the result.

With `--trace 0` the result line holds the end-to-end metrics; with
`--trace 1` each op is also run with spans recorded around the calls into
every module (tracing.py), and the result line holds the per-layer metrics
plus the tracing overhead against the untraced samples of the same run.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

SETUP_SAMPLES = 5
CALIBRATE_EVERY_S = 0.25  # at most this much op time between calibrations
CALIBRATION_FFT_INPUT = np.random.default_rng(0).normal(size=(64, 4096))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="prepare inputs and run the warm-up op, then exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def run_op(cli, argv) -> tuple[int, str, float, float]:
    """(exit code, stdout, wall s, cpu s) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that raises counts as failed; the run goes on
        rc = -1
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if rc != 0:
        sys.stderr.write(f"op {' '.join(argv)} exited {rc}: {err.getvalue()[-400:]}\n")
    return rc, out.getvalue(), wall, cpu


def prepare(workload: str, seed: int, work: Path):
    """Imports, inputs from the seed, one untimed warm-up op: the set-up."""
    from convexsums import cli
    from workloads import build

    ops, warm = build(workload, seed, work, HERE / "data")
    rc, _, _, _ = run_op(cli, warm.argv)
    if rc != 0:
        raise RuntimeError(f"warm-up op {' '.join(warm.argv)} exited {rc}")
    return cli, ops


def setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that only set up, start to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr[-400:]}")
    return out


def calibration() -> float:
    """Wall s of a fixed computation, about 12 ms on a 2.1 GHz Xeon.

    Exact rational arithmetic (the interpreter and small objects) and real
    FFTs (numpy and memory), the two kinds of work the program does.  It
    does not touch the program, so a change to the program leaves it alone.
    Wall time, not CPU time: Linux may count CPU time in scheduler ticks
    (4 ms at 250 Hz), too coarse for a computation this short.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for q in range(2, 60):
        for p in range(1, q):
            acc += Fraction(p, q)
    for _ in range(4):
        np.fft.rfft(CALIBRATION_FFT_INPUT, axis=1)
    return time.perf_counter() - t0


class Sample(NamedTuple):
    start: float
    end: float
    wall: float
    cpu: float
    bases: dict | None


class Bench:
    """Samples of each (op, traced) pair, with the check of every output."""

    def __init__(self, cli, ops, checker, tracer=None) -> None:
        self.cli, self.ops, self.checker, self.tracer = cli, ops, checker, tracer
        self.samples: dict[tuple[int, bool], list[Sample]] = {}
        # (start, end, wall s) of each calibration, in time order
        self.calibrations: list[tuple[float, float, float]] = []
        self.attempted = self.failed = 0
        self.reasons: list[str] = []
        self.first_pass_rss_mb = 0.0

    def calibrate(self) -> None:
        start = time.perf_counter()
        wall = calibration()
        self.calibrations.append((start, time.perf_counter(), wall))

    def run(self, i: int, traced: bool) -> None:
        from tracing import layer_bases

        op = self.ops[i]
        if time.perf_counter() - self.calibrations[-1][1] > CALIBRATE_EVERY_S:
            self.calibrate()
        if traced:
            first = len(self.tracer.spans)
            self.tracer.op = op.name
            self.tracer.install()
        start = time.perf_counter()
        try:
            rc, text, wall, cpu = run_op(self.cli, op.argv)
        finally:
            if traced:
                self.tracer.uninstall()
        bases = None
        if traced:
            bases = layer_bases(self.tracer.spans[first:], first)
            bases["cli.envelope_bytes"] = len(text.encode())
        reason = self.checker.check(op, rc, text)
        self.attempted += 1
        if reason:
            self.failed += 1
            self.reasons.append(f"{op.name}: {reason}")
        sample = Sample(start, time.perf_counter(), wall, cpu, bases)
        self.samples.setdefault((i, traced), []).append(sample)

    def loop(self, seconds: float, modes: tuple[bool, ...]) -> None:
        """Each op once per mode, then cycle again while the next op fits."""
        start = time.perf_counter()
        self.calibrate()
        pairs = [(i, m) for i in range(len(self.ops)) for m in modes]
        try:
            for i, m in pairs:
                self.run(i, m)
            # later passes only add allocator fragmentation; a user runs one
            # command per process, so the peak of one pass is what they see
            self.first_pass_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            while True:
                for i, m in pairs:
                    est = statistics.median(s.wall for s in self.samples[i, m])
                    if time.perf_counter() - start + est > seconds:
                        return
                    self.run(i, m)
        finally:
            self.calibrate()

    def cal(self, s: Sample) -> float:
        """Mean wall s of the calibrations just before and after s."""
        before = self.calibrations[
            bisect.bisect_right([c[1] for c in self.calibrations], s.start) - 1]
        after = self.calibrations[
            bisect.bisect_left([c[0] for c in self.calibrations], s.end)]
        return (before[2] + after[2]) / 2

    def per_pass(self, traced: bool, value) -> float:
        """Sum over ops of the median of value(sample)."""
        return sum(
            statistics.median(value(s) for s in self.samples[i, traced])
            for i in range(len(self.ops))
        )

    def layer_base(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for i in range(len(self.ops)):
            runs = [s.bases for s in self.samples[i, True]]
            for key in set().union(*runs):
                total[key] = total.get(key, 0.0) + statistics.median(
                    r.get(key, 0.0) for r in runs)
        return total


def provenance(seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def _git_commit() -> str:
    try:
        # the ceiling keeps git from looking for a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "convexsums" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import Checker, grid_reference

    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            prepare(args.workload, args.seed, work)
            return 0
        setup = setup_seconds(args)
        cli, ops = prepare(args.workload, args.seed, work)
        reference = json.loads((HERE / "reference.json").read_text())
        checker = Checker(reference | grid_reference(ops))
        tracer = Tracer() if args.trace else None
        bench = Bench(cli, ops, checker, tracer)
        bench.loop(args.seconds, (False, True) if args.trace else (False,))
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = bench.per_pass(False, lambda s: s.wall)
    cpu = bench.per_pass(False, lambda s: s.cpu)
    if args.trace:
        overhead = bench.per_pass(True, lambda s: s.wall) - wall
        values = layer_metrics(bench.layer_base(), overhead)
        metrics = {k: _metric(v, LAYER_METRICS[k][0]) for k, v in values.items()}
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(str(spans))
        print(f"spans: {spans.relative_to(ROOT)} ({len(tracer.spans)} spans); "
              f"untraced wall_s {wall:.4f} s")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_cal": _metric(
                bench.per_pass(False, lambda s: s.wall / bench.cal(s)), "cal"),
            "cpu_cal": _metric(
                bench.per_pass(False, lambda s: s.cpu / bench.cal(s)), "cal"),
            "peak_rss_mb": _metric(bench.first_pass_rss_mb, "MiB"),
        }
    for reason in bench.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    cal_wall = statistics.median(c[2] for c in bench.calibrations)
    print(f"raw: wall_s = {wall:.6g} s, cpu_s = {cpu:.6g} s, one cal = "
          f"{cal_wall * 1e3:.4g} ms (median of {len(bench.calibrations)})")
    print(f"fail_rate = {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} ops)")
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
