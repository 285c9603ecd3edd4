"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that a short run emits every metric BENCHMARK.json names, with its
unit, that each op is scaled by the calibrations around it, that a
corrupted reference value makes an op count as failed, and that
gridoracle.py agrees with the program on a small dense spec.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

from run import Bench, Sample, run_op  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import Checker, Op, _rng, dense_spec, grid_reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "witness", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section):
    res = _run(trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in res["metrics"].values())


def test_layer_table_matches_benchmark_json():
    want = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert want == LAYER_METRICS


def test_each_sample_is_scaled_by_the_calibrations_around_it():
    bench = Bench(None, [], None)
    bench.calibrations = [(0.0, 0.1, 0.010), (1.0, 1.1, 0.030), (2.0, 2.1, 0.050)]
    assert bench.cal(Sample(0.2, 0.9, 0.5, 0.5, None)) == pytest.approx(0.020)
    assert bench.cal(Sample(1.2, 1.9, 0.5, 0.5, None)) == pytest.approx(0.040)


@pytest.mark.parametrize("field,corrupt", [
    ("hit_count", lambda v: v + 1),
    ("norm.value", lambda v: v * (1 + 1e-6)),
    ("identity.max_rel_err", lambda v: 1e-17),
])
def test_corrupted_reference_fails_the_op(field, corrupt):
    from convexsums import cli

    op = Op("A-N64", ("experiment", "A", "--N", "64"), "experiment_exact", "A-N64")
    rc, text, _, _ = run_op(cli, op.argv)
    assert Checker(REFERENCE).check(op, rc, text) is None
    bad = copy.deepcopy(REFERENCE)
    bad["A-N64"][field] = corrupt(bad["A-N64"][field])
    assert Checker(bad).check(op, rc, text) is not None


@pytest.mark.parametrize("direction", ["t", "x"])
def test_grid_oracle_checks_dense_ops(tmp_path, direction):
    from convexsums import cli

    spec = tmp_path / "dense.json"
    spec.write_text(json.dumps(dense_spec(_rng(7, 2), 64)))
    op = Op("d", ("expsum", str(spec), "--direction", direction, "--levels"), "dense", "d")
    rc, text, _, _ = run_op(cli, op.argv)
    ref = grid_reference([op])
    assert Checker(ref).check(op, rc, text) is None
    ref["d"]["levels.measures"][0] *= 2  # the top band holds the max, so it is > 0
    assert Checker(ref).check(op, rc, text) is not None
