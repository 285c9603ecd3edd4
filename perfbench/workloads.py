"""The four workloads: seeded op lists, their input files and output checks.

An op is one `convexsums` command line.  `build` derives every input from
the workload seed (dense spec files, Farey windows, experiment `--seed`s)
and writes the files into a scratch directory; the program only sees the
generated command lines and files.

Each op's envelope is checked two ways:

* against reference values on the fields listed in FIELDS: exact for
  counts, verdicts and error values that must be 0.0, within REL_TOL for
  norms and level-set values.  Ops whose inputs do not depend on the seed
  are compared with `reference.json` (written by `make_reference.py`);
  `dense` ops with the values gridoracle.py computes for their spec files
  (`grid_reference`);
* by an independent oracle where one exists: an exact Farey count, and a
  direct evaluation of |f| at the reported argmax of an expsum run.

An op with no reference values fails its check, unless it is a Farey count.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("witness", "dense", "tilted", "sequences")
WITNESS_N = (64, 128, 256, 512, 1024)
LEVELS_N = (64, 128, 256)  # sheared experiment-A specs, criterion 8's inputs
DENSE_N = (256, 1024)
TILTED_N = (64, 128, 256)
# --grid-budget of the `dense` and `tilted` ops: a quarter of the default
# 2**24 nodes keeps each op under 2 s, so the calibrations around it
# (run.py) track the host's speed during it
GRID_BUDGET = str(2**22)
SCAN_N = "256,1024,4096"
SCAN_ALPHA = "0.25,0.5,1,1.5,2"
SEQ_N = 4096
FAREY_WINDOWS = 60
REL_TOL = 1e-9

# envelope fields compared with the reference values, per op kind
FIELDS = {
    "experiment": ("hit_count", "identity.pass", "norm.value", "norm.grid.Mx",
                   "norm.grid.Mt"),
    # A and C at power-of-two N: the aligned-point identity holds with error 0.0
    "experiment_exact": ("hit_count", "identity.pass", "identity.max_rel_err",
                         "norm.value", "norm.grid.Mx", "norm.grid.Mt"),
    "expsum": ("norm.value", "norm.argmax.abs_f", "norm.grid.Mx", "norm.grid.Mt",
               "levels.max_stat", "levels.max_abs_f", "levels.alphas",
               "levels.measures", "levels.stats"),
    "scan": ("",),
    "interp": ("knots", "pass", "convex", "D"),
    "construct": ("hit_count", "validation.pass", "validation.tightest_C"),
    "validate": ("pass", "tightest_C"),
    "farey": ("count",),
}
FIELDS["dense"] = FIELDS["expsum"]  # on a seeded spec file, against gridoracle.py


@dataclass(frozen=True)
class Op:
    name: str  # unique within a workload
    argv: tuple[str, ...]
    kind: str  # key into FIELDS
    ref: str  # key into the reference values
    same_as: str | None = None  # op whose result section must be byte-identical


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _seeds(rng: np.random.Generator, n: int) -> list[str]:
    return [str(int(s)) for s in rng.integers(0, 2**31, size=n)]


def dense_spec(rng: np.random.Generator, N: int) -> dict:
    """Criterion 7's construction: eta uniform sorted times N, b normal."""
    eta = np.sort(rng.uniform(0, 1, size=N)) * N
    b = rng.normal(size=N)
    xi = np.arange(1, N + 1) / N
    return {"N": N, "xi": xi.tolist(), "eta": eta.tolist(), "b": b.tolist()}


def farey_windows(rng: np.random.Generator, n: int) -> list[tuple[float, float, int]]:
    """Criterion 4's window generator: alternately wide and dense, or short."""
    out = []
    for i in range(n):
        if i % 2:
            lo = float(rng.uniform(0, 0.4))
            length = float(rng.uniform(0.5, 1.0))
            qmax = int(rng.integers(150, 201))
        else:
            lo = float(rng.uniform(0, 2.0))
            length = float(rng.uniform(0.01, 0.5))
            qmax = int(rng.integers(1, 201))
        out.append((lo, lo + length, qmax))
    return out


def _experiment(which: str, N: int, seed: str, *extra: str, name: str | None = None,
                same_as: str | None = None) -> Op:
    kind = "experiment" if which == "B" else "experiment_exact"
    ref = f"{which}-N{N}"
    argv = ("experiment", which, "--N", str(N), "--seed", seed, *extra)
    return Op(name or ref, argv, kind, ref, same_as)


def build(workload: str, seed: int, work: Path, data: Path) -> tuple[list[Op], Op]:
    """(timed ops, untimed warm-up op) for one workload and seed.

    Files the ops read or write live in `work`; `data` holds the inputs
    checked in with the benchmark.
    """
    if workload == "witness":
        rng = _rng(seed, 1)
        ops = []
        seeds = _seeds(rng, 2 * len(WITNESS_N))
        for N, sa, sb in zip(WITNESS_N, seeds[::2], seeds[1::2]):
            ops.append(_experiment("A", N, sa))
            ops.append(_experiment("B", N, sb))
        for N in LEVELS_N:
            spec = str(data / f"sheared_A_N{N}.json")
            ops.append(Op(f"levels-A-N{N}", ("expsum", spec, "--direction", "t",
                                             "--levels"), "expsum", f"levels-A-N{N}"))
        # the same run at one and two threads must give identical results
        (s,) = _seeds(rng, 1)
        ops.append(_experiment("A", 512, s, "--threads", "1", name="A-N512-threads1"))
        ops.append(_experiment("A", 512, s, "--threads", "2", name="A-N512-threads2",
                               same_as="A-N512-threads1"))
        warm = _experiment("A", 64, "0")
    elif workload == "dense":
        rng = _rng(seed, 2)
        ops = []
        for N in DENSE_N:
            path = work / f"dense_N{N}.json"
            path.write_text(json.dumps(dense_spec(rng, N)))
            for d in ("t", "x"):
                name = f"dense-N{N}-{d}"
                ops.append(Op(name, ("expsum", str(path), "--direction", d, "--levels",
                                     "--threads", "1", "--grid-budget", GRID_BUDGET),
                              "dense", name))
        small = work / "dense_warmup.json"
        small.write_text(json.dumps(dense_spec(_rng(seed, 3), 64)))
        warm = Op("warmup", ("expsum", str(small), "--levels", "--threads", "1",
                             "--grid-budget", "65536"), "expsum", "")
    elif workload == "tilted":
        seeds = _seeds(_rng(seed, 4), len(TILTED_N))
        ops = [_experiment("C", N, s, "--grid-budget", GRID_BUDGET)
               for N, s in zip(TILTED_N, seeds)]
        warm = _experiment("C", 64, "0", "--grid-budget", "65536")
    elif workload == "sequences":
        seq = str(work / "seq")
        ops = [
            Op("scan", ("scan", "--N", SCAN_N, "--alpha", SCAN_ALPHA), "scan", "scan"),
            Op("interp-a1", ("interp", "--N", str(SEQ_N), "--alpha", "1"), "interp",
               "interp-a1"),
            Op("interp-a2", ("interp", "--N", str(SEQ_N), "--alpha", "2"), "interp",
               "interp-a2"),
            Op("construct-a2", ("construct", "--N", str(SEQ_N), "--alpha", "2", "--out",
                                seq), "construct", "construct-a2"),
            Op("validate-a2", ("validate", seq + ".csv"), "validate", "validate-a2"),
        ]
        for i, (lo, hi, q) in enumerate(farey_windows(_rng(seed, 5), FAREY_WINDOWS)):
            ops.append(Op(f"farey-{i:02d}", ("farey", "--lo", repr(lo), "--hi", repr(hi),
                                             "--qmax", str(q), "--count-only"), "farey", ""))
        warm = Op("warmup", ("interp", "--N", "256", "--alpha", "1"), "interp", "")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, warm


def grid_reference(ops: list[Op]) -> dict[str, dict]:
    """Reference values of the `dense` ops, one gridoracle.py process per grid."""
    by_grid: dict[tuple[str, ...], dict] = {}
    out = {}
    for op in ops:
        if op.kind != "dense":
            continue
        grid = (op.argv[1],)
        if "--grid-budget" in op.argv:
            grid += (op.argv[op.argv.index("--grid-budget") + 1],)
        if grid not in by_grid:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("gridoracle.py")), *grid],
                capture_output=True, text=True, timeout=170, check=True)
            by_grid[grid] = json.loads(proc.stdout)
        out[op.ref] = by_grid[grid][op.argv[op.argv.index("--direction") + 1]]
    return out


def _get(doc, path: str):
    for part in filter(None, path.split(".")):
        doc = doc[part]
    return doc


def signature(kind: str, result) -> dict:
    return {path: _get(result, path) for path in FIELDS[kind]}


def _mismatch(got, want, where: str) -> str | None:
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            return None
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            bad = _mismatch(g, w, f"{where}[{i}]")
            if bad:
                return bad
        return None
    elif isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        for k in want:
            bad = _mismatch(got[k], want[k], f"{where}.{k}" if where else k)
            if bad:
                return bad
        return None
    elif type(got) is type(want) and got == want:
        return None
    return f"{where or 'result'}: got {got!r}, reference {want!r}"


def farey_count(lo: float, hi: float, qmax: int) -> int:
    """Reduced fractions p/q in [lo, hi] with q <= qmax, in exact arithmetic."""
    lo_q, hi_q = Fraction(lo), Fraction(hi)
    return sum(
        1
        for q in range(1, qmax + 1)
        for p in range(math.ceil(lo_q * q), math.floor(hi_q * q) + 1)
        if math.gcd(p, q) == 1
    )


def direct_abs(spec: dict, x: float, t: float) -> float:
    """|f(x, t)| summed term by term, phases reduced mod 1 in longdouble."""
    xi = np.asarray(spec["xi"], dtype=np.longdouble)
    eta = np.asarray(spec["eta"], dtype=np.longdouble)
    phase = np.longdouble(x) * xi + np.longdouble(t) * eta
    phase = (phase - np.floor(phase)).astype(float)
    return abs(complex(np.sum(np.asarray(spec["b"]) * np.exp(2j * math.pi * phase))))


class Checker:
    """Verdict for one op's output; identical outputs are checked once."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self._verdicts: dict[tuple[str, str], str | None] = {}
        self._results: dict[str, str] = {}
        self._specs: dict[str, dict] = {}

    def check(self, op: Op, rc: int, text: str) -> str | None:
        """None when the op passed, else the reason it failed."""
        if rc != 0:
            return f"exit code {rc}"
        key = (op.name, text)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op, text)
        return self._verdicts[key]

    def _check(self, op: Op, text: str) -> str | None:
        try:
            result = json.loads(text)["result"]
            sig = signature(op.kind, result)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable envelope: {exc!r}"
        canonical = json.dumps(result, sort_keys=True)
        self._results[op.name] = canonical
        if op.same_as and self._results.get(op.same_as) != canonical:
            return f"result differs from {op.same_as}"
        oracle = self._oracle(op, result)
        if oracle:
            return oracle
        if op.ref in self.reference:
            return _mismatch(sig, self.reference[op.ref], "")
        if op.kind == "farey":
            return None  # checked by its oracle alone
        return f"no reference value for {op.ref}"

    def _oracle(self, op: Op, result) -> str | None:
        if op.kind == "farey":
            a = op.argv
            want = farey_count(float(a[2]), float(a[4]), int(a[6]))
            return None if result["count"] == want else (
                f"count {result['count']} != exact {want}")
        if op.kind in ("expsum", "dense"):
            path = op.argv[1]
            if path not in self._specs:
                self._specs[path] = json.loads(Path(path).read_text())
            spec = self._specs[path]
            arg = result["norm"]["argmax"]
            got = direct_abs(spec, arg["x"], arg["t"])
            scale = float(np.sum(np.abs(spec["b"])))
            if abs(got - arg["abs_f"]) > REL_TOL * scale:
                return f"|f| at argmax {arg['abs_f']!r} != direct {got!r}"
            if result["levels"]["max_abs_f"] != arg["abs_f"]:
                return "levels max_abs_f differs from norm max"
        return None
