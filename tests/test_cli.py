import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convexsums
from convexsums import expsum
from convexsums.cli import main
from convexsums.expsum import (
    ExpSumSpec,
    canonical_grid,
    dyadic_level_report,
    eval_grid,
    level_set_projection,
    sup_norm_Lp,
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstructValidate:
    def test_construct_emits_files(self, tmp_path, capsys):
        base = str(tmp_path / "s")
        code, out, _ = run_cli(
            ["construct", "--N", "256", "--alpha", "1", "--out", base], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["version"]
        assert doc["config"]["command"] == "construct"
        assert doc["result"]["validation"]["pass"] is True
        csv_lines = (tmp_path / "s.csv").read_text().splitlines()
        assert csv_lines[0] == "n,a_n,exact_num,exact_den"
        assert len(csv_lines) == 257
        hits = json.loads((tmp_path / "s.hits.json").read_text())
        assert len(hits) == doc["result"]["hit_count"] >= 2

    def test_validate_roundtrip_exit0(self, tmp_path, capsys):
        base = str(tmp_path / "s")
        run_cli(["construct", "--N", "256", "--alpha", "1.5", "--out", base], capsys)
        code, out, _ = run_cli(["validate", base + ".csv"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["pass"] is True

    def test_validate_arithmetic_progression_exit2(self, tmp_path, capsys):
        p = tmp_path / "ap.csv"
        rows = ["n,a_n,exact_num,exact_den"]
        rows += [f"{n},{n / 64},{n},64" for n in range(1, 65)]
        p.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(["validate", str(p)], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["result"]["pass"] is False
        # flat second differences sit below the floor, tightest_C blows up
        assert doc["result"]["second_diff_max"] == pytest.approx(0.0, abs=1e-15)

    def test_missing_file_exit1(self, capsys):
        code, _, err = run_cli(["validate", "/nonexistent/x.csv"], capsys)
        assert code == 1
        assert "error:" in err

    def test_validate_non_finite_csv_exit1(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("n,a_n,exact_num,exact_den\n1,0.1,,\n2,0.3,,\n3,nan,,\n4,1.0,,\n")
        code, out, err = run_cli(["validate", str(p)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "row 3" in err
        assert len(err.splitlines()) == 1

    def test_construct_large_exponent_alpha(self, tmp_path, capsys):
        # alpha = 777/1000 makes N**p too large for a float: this once
        # raised OverflowError out of main
        base = str(tmp_path / "s")
        code, out, _ = run_cli(
            ["construct", "--N", "1000", "--alpha", "0.777", "--out", base], capsys
        )
        assert code == 0
        assert json.loads(out)["result"]["validation"]["pass"] is True


class TestOtherCommands:
    def test_farey_count(self, capsys):
        code, out, _ = run_cli(
            ["farey", "--lo", "0.25", "--hi", "0.75", "--qmax", "3", "--count-only"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"]["count"] == 3  # 1/3, 1/2, 2/3

    def test_farey_list_matches_count(self, capsys):
        code, out, _ = run_cli(
            ["farey", "--lo", "0.2", "--hi", "0.8", "--qmax", "5"], capsys
        )
        doc = json.loads(out)["result"]
        assert code == 0
        assert len(doc["fractions"]) == doc["count"]

    @pytest.mark.parametrize("lo,hi", [("0", "inf"), ("nan", "1")])
    def test_farey_non_finite_endpoint_exit1(self, lo, hi, capsys):
        code, out, err = run_cli(
            ["farey", "--lo", lo, "--hi", hi, "--qmax", "5"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert len(err.splitlines()) == 1

    def test_interp_suite(self, capsys):
        code, out, _ = run_cli(["interp", "--N", "128", "--alpha", "1"], capsys)
        assert code == 0
        r = json.loads(out)["result"]
        assert r["pass"] is True
        assert r["interp_err"] <= 1e-10
        assert r["knot_curvature_rel_err"] <= 1e-6

    def test_scan(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--N", "256,1024,4096", "--alpha", "1"], capsys
        )
        assert code == 0
        (r,) = json.loads(out)["result"]
        assert abs(r["slope"] - r["target"]) <= 0.15

    def test_regress(self, tmp_path, capsys):
        p = tmp_path / "pts.json"
        p.write_text(json.dumps([[64, 8.0], [256, 16.0], [1024, 32.0]]))
        code, out, _ = run_cli(["regress", str(p)], capsys)
        assert code == 0
        assert json.loads(out)["result"]["slope"] == pytest.approx(0.5)

    def test_expsum_spec_file(self, tmp_path, capsys):
        spec = {
            "N": 8,
            "xi": [n / 8 for n in range(1, 9)],
            "eta": [n * (n + 1) / 128 for n in range(1, 9)],
            "b": [1.0] * 8,
        }
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        code, out, _ = run_cli(
            ["expsum", str(p), "--grid-budget", "4096", "--levels"], capsys
        )
        assert code == 0
        r = json.loads(out)["result"]
        assert r["norm"]["value"] > 0
        assert len(r["levels"]["alphas"]) >= 1

    def test_expsum_non_finite_spec_exit1(self, tmp_path, capsys):
        spec = {"N": 2, "xi": [0.5, 1.0], "eta": [0.0, float("nan")], "b": [1.0, 1.0]}
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(spec))  # json writes the NaN literal
        code, out, err = run_cli(["expsum", str(p)], capsys)
        assert code == 1
        assert err.startswith("error:") and "eta" in err
        assert out == ""

    def test_envelope_config_keys(self, capsys):
        code, out, _ = run_cli(
            ["farey", "--lo", "0", "--hi", "1", "--qmax", "2", "--count-only"], capsys
        )
        assert code == 0
        assert set(json.loads(out)["config"]) == {
            "command", "N", "alpha", "grid_budget", "seed", "out", "threads",
        }

    def test_expsum_malformed_names_field(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"N": 8, "xi": [0.5], "b": [1.0]}))
        code, _, err = run_cli(["expsum", str(p)], capsys)
        assert code == 1
        assert "eta" in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["construct", "--N", "x", "--alpha", "1"],
        ["farey", "--lo", "-inf", "--hi", "0", "--qmax", "3"],
    ])
    def test_usage_error_exit1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 1
        assert out.out == ""
        assert out.err.startswith("error:")
        assert len(out.err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit0(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out


# N = 32 specs on a grid of Mx = 128 by Mt = 700 t-rows: three row blocks,
# the last one partial
SWEEP_N = 32
SWEEP_BUDGET = 128 * 700


def _sweep_spec(tmp_path, canonical):
    rng = np.random.default_rng(5 if canonical else 6)
    N = SWEEP_N
    xi = np.arange(1, N + 1) / N if canonical else np.sort(rng.uniform(0, 1, N))
    doc = {"N": N, "xi": xi.tolist(), "eta": (np.sort(rng.uniform(0, 1, N)) * N).tolist(),
           "b": rng.normal(size=N).tolist()}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path, ExpSumSpec(N=N, xi=xi, eta=np.array(doc["eta"]), b=np.array(doc["b"]))


def _levels_argv(path, direction, *extra):
    return ["expsum", str(path), "--direction", direction, "--levels",
            "--grid-budget", str(SWEEP_BUDGET), *extra]


@pytest.mark.parametrize("direction", ["t", "x"])
@pytest.mark.parametrize("canonical", [True, False], ids=["fft", "separable"])
class TestExpsumSingleSweep:
    def test_levels_result_matches_library(self, tmp_path, capsys, canonical, direction):
        path, spec = _sweep_spec(tmp_path, canonical)
        code, out, _ = run_cli(_levels_argv(path, direction), capsys)
        assert code == 0
        grid = canonical_grid(SWEEP_N, SWEEP_BUDGET)
        assert grid.Mt == 700
        norm = sup_norm_Lp(spec, grid, direction, 4.0)
        rep = dyadic_level_report(spec, grid, direction)
        want = {"norm": norm.to_json_dict(), "levels": rep.to_json_dict()}
        assert json.loads(out)["result"] == json.loads(json.dumps(want))
        # the fused reductions against the whole grid and banded passes
        a = np.abs(eval_grid(spec, grid))
        assert norm.max_abs == rep.max_abs == a.max()
        l_star = round((norm.argmax_t - grid.t_lo) / grid.dt)
        k_star = round((norm.argmax_x - grid.x_lo) / grid.dx)
        assert a[l_star, k_star] == a.max()
        for alpha, measure in zip(rep.alphas[:6], rep.measures[:6]):
            assert measure == level_set_projection(spec, grid, alpha, direction)

    def test_levels_generates_each_block_once(
        self, tmp_path, capsys, monkeypatch, canonical, direction
    ):
        path, _ = _sweep_spec(tmp_path, canonical)
        name = "_rows_fast" if canonical else "_rows_naive"
        rows, blocks = getattr(expsum, name), []

        def counting(spec, grid, t_index):
            blocks.append(len(t_index))
            return rows(spec, grid, t_index)

        monkeypatch.setattr(expsum, name, counting)
        code, _, _ = run_cli(_levels_argv(path, direction, "--threads", "1"), capsys)
        assert code == 0
        assert len(blocks) == math.ceil(700 / 256)
        assert sum(blocks) == 700

    def test_levels_thread_count_invariant(self, tmp_path, capsys, canonical, direction):
        path, _ = _sweep_spec(tmp_path, canonical)
        results = []
        for threads in ("1", "3"):
            code, out, _ = run_cli(_levels_argv(path, direction, "--threads", threads),
                                   capsys)
            assert code == 0
            results.append(json.dumps(json.loads(out)["result"], sort_keys=True))
        assert results[0] == results[1]


class TestExperimentDeterminism:
    def test_experiment_A_exit0(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["experiment", "A", "--N", "64", "--grid-budget", "65536"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["identity"]["pass"] is True

    def test_run_twice_byte_identical(self, tmp_path, capsys):
        argv = [
            "experiment", "B", "--N", "64", "--seed", "7",
            "--grid-budget", "65536",
        ]
        _, out1, _ = run_cli(argv + ["--threads", "1"], capsys)
        _, out2, _ = run_cli(argv + ["--threads", "4"], capsys)
        # config echoes the thread flag; the result payload must not
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["result"] == d2["result"]
        assert json.dumps(d1["result"], sort_keys=True) == json.dumps(
            d2["result"], sort_keys=True
        )
        _, out3, _ = run_cli(argv, capsys)
        assert json.loads(out3) == json.loads(run_cli(argv, capsys)[1])

    def test_entry_point_subprocess(self):
        # the child does not inherit pytest's sys.path: hand it the directory
        # the package under test was imported from
        src = str(Path(convexsums.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        r = subprocess.run(
            [sys.executable, "-m", "convexsums.cli", "--version"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert r.returncode == 0
        assert r.stdout.strip() == "0.1.0"
