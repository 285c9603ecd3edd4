"""Regenerate the benchmark's checked-in inputs and reference values.

    python3 perfbench/make_reference.py

Writes data/sheared_A_N{64,128,256}.json (criterion 8's sheared experiment-A
specs) and reference.json: the checked fields (workloads.FIELDS) of every
op whose output does not depend on the seed.  The `dense` ops are checked
against gridoracle.py instead.  Run it only when a change to the program is
meant to change these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from convexsums import cli  # noqa: E402
from convexsums.convexseq import construct_dirichlet_like, shear  # noqa: E402
from convexsums.experiments import _hit_coefficients  # noqa: E402
from run import run_op  # noqa: E402
from workloads import LEVELS_N, WORKLOADS, build, signature  # noqa: E402


def write_sheared_specs(data: Path) -> None:
    data.mkdir(exist_ok=True)
    for N in LEVELS_N:
        c = construct_dirichlet_like(N, 1.0)
        a = shear(c, -1.0 / N**2)
        spec = {
            "N": N,
            "xi": (np.arange(1, N + 1) / N).tolist(),
            "eta": a.values.tolist(),
            "b": _hit_coefficients(c).tolist(),
        }
        (data / f"sheared_A_N{N}.json").write_text(json.dumps(spec) + "\n")


def main() -> int:
    write_sheared_specs(HERE / "data")
    work = HERE / "out" / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    ref: dict = {}
    try:
        for workload in WORKLOADS:
            ops, _ = build(workload, 0, work, HERE / "data")
            for op in ops:
                if op.kind == "dense" or not op.ref or op.ref in ref:
                    continue
                rc, text, wall, _ = run_op(cli, op.argv)
                if rc != 0:
                    raise SystemExit(f"{op.name} exited {rc}")
                ref[op.ref] = signature(op.kind, json.loads(text)["result"])
                print(f"{op.ref}: {wall:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
