import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexsums
from convexsums import cli, experiments, expsum
from convexsums.cli import main
from convexsums.convexseq import ConvexSequence, construct, validate
from convexsums.experiments import intersection_scan, regress
from convexsums.expsum import (
    DEFAULT_BUDGET,
    ExpSumSpec,
    canonical_grid,
    dyadic_level_report,
    eval_grid,
    level_set_projection,
    sup_norm_Lp,
)
from convexsums.interp import build_c1, knots_from_sequence, upgrade_c2


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


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
        doc = strict_json(out)
        assert doc["result"]["pass"] is False
        # flat second differences sit below the floor: no finite C exists
        assert doc["result"]["second_diff_max"] == pytest.approx(0.0, abs=1e-15)
        assert doc["result"]["tightest_C"] is None

    def test_validate_concave_exit2(self, tmp_path, capsys):
        p = tmp_path / "concave.csv"
        p.write_text("n,a_n,exact_num,exact_den\n1,0.1,,\n2,0.3,,\n3,0.4,,\n4,0.45,,\n")
        code, out, _ = run_cli(["validate", str(p)], capsys)
        assert code == 2
        r = strict_json(out)["result"]
        assert r["pass"] is False and r["tightest_C"] is None

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

    def test_validate_a_n_off_its_exact_value_exit1(self, tmp_path, capsys):
        # validate would read the exact column (linear) and interp the a_n
        # floats (convex with C = 1.6): such a file is refused
        p = tmp_path / "off.csv"
        p.write_text("n,a_n,exact_num,exact_den\n1,0.1,1,4\n2,0.3,1,2\n3,0.6,3,4\n4,1.0,1,1\n")
        code, out, err = run_cli(["validate", str(p)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "row 1" in err
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
        # the float 0.2 lies just above 1/5, so 1/5 is out and 4/5 is in
        assert doc["fractions"] == [
            [1, 4], [1, 3], [2, 5], [1, 2], [3, 5], [2, 3], [3, 4], [4, 5]
        ]

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

    def test_interp_out_file(self, tmp_path, capsys):
        path = str(tmp_path / "f.json")
        code, out, _ = run_cli(["interp", "--N", "64", "--alpha", "1", "--out", path], capsys)
        assert code == 0
        r = json.loads(out)["result"]
        assert r["interpolant"] == path
        knots = knots_from_sequence(construct(64, 1.0).values)
        f = upgrade_c2(build_c1(knots))
        doc = json.loads(Path(path).read_text())
        assert doc == json.loads(json.dumps(f.to_json_dict()))
        assert [[k["x"], k["y"], k["p"]] for k in doc["knots"]] == knots.tolist()
        assert set(doc) == {"mode", "D", "pad_end", "knots", "pieces"}
        assert (len(doc["knots"]), doc["D"]) == (r["knots"], r["D"])

    def test_out_file_holds_the_envelope(self, tmp_path, capsys):
        path = str(tmp_path / "farey.json")
        argv = ["farey", "--lo", "0.2", "--hi", "0.8", "--qmax", "5"]
        code, out, _ = run_cli([*argv, "--out", path], capsys)
        assert code == 0 and out == ""
        code, out, _ = run_cli(argv, capsys)
        doc = json.loads(out)
        doc["config"]["out"] = path
        want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert Path(path).read_text() == want

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

    @pytest.mark.parametrize("N", [2.7, True], ids=["float", "bool"])
    def test_expsum_non_integer_N_exit1(self, N, tmp_path, capsys):
        spec = {"N": N, "xi": [0.5, 1.0], "eta": [0.0, 1.0], "b": [1.0, 1.0]}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        code, out, err = run_cli(["expsum", str(p)], capsys)
        assert code == 1
        assert err.startswith("error:") and "N must be an integer" in err
        assert len(err.splitlines()) == 1
        assert out == ""

    def test_envelope_config_keys(self, capsys):
        code, out, _ = run_cli(
            ["farey", "--lo", "0", "--hi", "1", "--qmax", "2", "--count-only"], capsys
        )
        assert code == 0
        assert set(json.loads(out)["config"]) == {
            "command", "N", "alpha", "grid_budget", "seed", "out", "threads",
        }

    @pytest.mark.parametrize("argv, want", [
        (["construct", "--N", "128", "--alpha", "1", "--out", "B"],
         {"N": [128], "alpha": [1.0], "out": "B"}),
        (["validate", "seq.csv"], {}),
        (["interp", "seq.csv"], {}),  # --N and --alpha are unused with a CSV
        (["farey", "--lo", "0", "--hi", "1", "--qmax", "3"], {}),
        (["expsum", "spec.json", "--threads", "2", "--grid-budget", "4096"],
         {"grid_budget": 4096, "threads": 2}),
        (["experiment", "A", "--N", "96"], {"command": "experiment A", "N": [96]}),
        (["scan", "--N", "64,128,256", "--alpha", "0.5,1"],
         {"N": [64, 128, 256], "alpha": [0.5, 1.0]}),
        (["regress", "pts.json"], {}),
    ], ids=["construct", "validate", "interp", "farey", "expsum", "experiment", "scan",
            "regress"])
    def test_envelope_config_values(self, argv, want, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _quadratic_csv(tmp_path)
        _write_json(tmp_path, {"N": 8, "xi": [n / 8 for n in range(1, 9)],
                               "eta": [n * n / 16 for n in range(1, 9)], "b": [1.0] * 8},
                    "spec.json")
        _write_json(tmp_path, [[64, 8.0], [256, 16.0], [1024, 32.0]], "pts.json")
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        defaults = {"command": argv[0], "N": None, "alpha": None,
                    "grid_budget": DEFAULT_BUDGET, "seed": 0, "out": None, "threads": None}
        assert json.loads(out)["config"] == defaults | want

    def test_expsum_malformed_names_field(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"N": 8, "xi": [0.5], "b": [1.0]}))
        code, _, err = run_cli(["expsum", str(p)], capsys)
        assert code == 1
        assert "eta" in err

    @pytest.mark.parametrize("doc", ["N xi eta b", 8, None, [8, [0.5], [0.0], [1.0]]],
                             ids=["string", "number", "null", "list"])
    def test_expsum_spec_not_an_object_exit1(self, doc, tmp_path, capsys):
        path = _write_json(tmp_path, doc)
        err = _error_exit(["expsum", path], capsys)
        assert err == f"error: spec file {path}: not a JSON object\n"


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


def _fresh_cli(argv, cwd):
    """(exit code, stdout, stderr) of `python -m convexsums.cli argv` in cwd.

    The child does not inherit pytest's sys.path: it is handed the directory
    the package under test was imported from.
    """
    src = str(Path(convexsums.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-m", "convexsums.cli", *argv], cwd=cwd,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    return r.returncode, r.stdout, r.stderr


class TestReusedMain:
    """main called many times in one process, as the benchmark drives it."""

    def test_calls_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        for d in (here, fresh):
            d.mkdir()
            (d / "spec.json").write_text(json.dumps({
                "N": 8,
                "xi": [n / 8 for n in range(1, 9)],
                "eta": [n * (n + 1) / 128 for n in range(1, 9)],
                "b": [1.0] * 8,
            }))
            (d / "pts.json").write_text(json.dumps([[64, 8.0], [256, 16.0], [1024, 32.0]]))
        monkeypatch.chdir(here)
        cli._parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--N", "x", "--alpha", "1"])
        err = capsys.readouterr()
        assert exc.value.code == 1 and err.out == ""
        assert err.err.startswith("error:") and len(err.err.splitlines()) == 1
        runs = [
            ["construct", "--N", "64", "--alpha", "1", "--out", "s"],
            ["validate", "s.csv", "--hits", "s.hits.json"],
            ["interp", "--N", "64", "--alpha", "1"],
            ["farey", "--lo", "0.25", "--hi", "0.75", "--qmax", "12"],
            ["expsum", "spec.json", "--grid-budget", "4096", "--levels"],
            ["experiment", "A", "--N", "64", "--grid-budget", "65536", "--seed", "1"],
            ["scan", "--N", "64,128", "--alpha", "1"],
            ["regress", "pts.json"],
        ]
        for argv in runs:
            code, out, _ = run_cli(argv, capsys)
            assert (code, out) == _fresh_cli(argv, fresh)[:2], argv[0]
        for name in ("s.csv", "s.hits.json"):
            assert (here / name).read_bytes() == (fresh / name).read_bytes()
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, len(runs))


def _error_exit(argv, capsys):
    """Run argv, require exit 1 with one `error:` line and no stdout."""
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    return err


def _quadratic_csv(tmp_path, header="n,a_n,exact_num,exact_den"):
    """a_n = n/64 + n^2/8192 as floats only, so validate takes the float path."""
    rows = [header] + [f"{n},{n / 64 + n * n / 8192!r},," for n in range(1, 65)]
    p = tmp_path / "seq.csv"
    p.write_text("\n".join(rows) + "\n")
    return p


def _write_json(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))  # json writes NaN and Infinity literals
    return str(p)


class TestBadInput:
    @pytest.mark.parametrize("which", ["A", "B", "C"])
    def test_experiment_negative_seed_exit1(self, which, capsys):
        err = _error_exit(["experiment", which, "--N", "64", "--seed", "-1",
                           "--grid-budget", "4096"], capsys)
        assert err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("b, extra", [
        ([1e-100, 0.0], []), ([1e-100, 0.0], ["--levels"]), ([1e308, 1e308], []),
        ([1.0, 0.0, 0.0, 0.0], ["--p", "1e308"]), ([1e308, 0.0], ["--p", "1"]),
        ([1e100, 0.0], ["--p", "1", "--levels"]), ([1e160, 0.0], ["--p", "1", "--levels"]),
        ([0.6e77, 0.6e77], ["--p", "1", "--levels"]), ([10**400, 1.0], []),
        ([1e100, 0.0], []),
    ], ids=["underflow", "underflow-levels", "b1-overflow", "huge-p", "fsum-overflow",
            "b2-fourth-overflow", "b2-square-overflow", "level-alpha-fourth-overflow",
            "int-past-float-range", "power-overflow"])
    def test_expsum_float_limits_exit1(self, b, extra, tmp_path, capsys):
        N = len(b)
        spec = {"N": N, "xi": [(n + 1) / N for n in range(N)],
                "eta": [float(n * n) for n in range(N)], "b": b}
        path = _write_json(tmp_path, spec)
        _error_exit(["expsum", path, "--grid-budget", "1024", *extra], capsys)

    @pytest.mark.parametrize("field, entries", [
        ("eta", [True, False]), ("b", ["1", 2.0]), ("xi", 0.5),
    ], ids=["bool", "string", "not-a-list"])
    def test_expsum_non_number_entry_exit1(self, field, entries, tmp_path, capsys):
        # np.asarray would read true as 1.0 and "1" as 1.0
        spec = {"N": 2, "xi": [0.5, 1.0], "eta": [0.0, 0.5], "b": [1.0, 2.0]}
        path = _write_json(tmp_path, spec | {field: entries})
        err = _error_exit(["expsum", path, "--grid-budget", "1024"], capsys)
        assert err == f"error: spec file {path}: {field} must be a list of numbers\n"

    def test_non_finite_envelope_exit1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "count_fractions", lambda *a: math.inf)
        err = _error_exit(["farey", "--lo", "0", "--hi", "1", "--qmax", "5",
                           "--count-only"], capsys)
        assert "JSON" in err

    @pytest.mark.parametrize("theta", ["0", "-1", "nan"])
    def test_validate_theta_exit1(self, theta, tmp_path, capsys):
        path = str(_quadratic_csv(tmp_path))
        assert run_cli(["validate", path], capsys)[0] == 0
        err = _error_exit(["validate", path, f"--theta={theta}"], capsys)
        assert "theta" in err

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_expsum_non_finite_p_exit1(self, p, tmp_path, capsys):
        spec = {"N": 4, "xi": [0.25, 0.5, 0.75, 1.0], "eta": [0.0, 0.5, 1.5, 3.0],
                "b": [1.0] * 4}
        path = _write_json(tmp_path, spec)
        err = _error_exit(["expsum", path, "--p", p, "--grid-budget", "1024"], capsys)
        assert "p must be finite" in err

    @pytest.mark.parametrize("point", [[256, math.nan], [256, math.inf], [math.inf, 16.0],
                                       [math.nan, 16.0]],
                             ids=["nan-value", "inf-value", "inf-N", "nan-N"])
    def test_regress_non_finite_exit1(self, point, tmp_path, capsys):
        path = _write_json(tmp_path, [[64, 8.0], point, [1024, 32.0]])
        err = _error_exit(["regress", path], capsys)
        assert "finite" in err

    def test_regress_one_distinct_N_exit1(self, tmp_path, capsys):
        path = _write_json(tmp_path, [[64, 8], [64, 8], [64, 9]])
        err = _error_exit(["regress", path], capsys)
        assert "distinct N" in err

    def test_scan_one_distinct_N_exit1(self, capsys):
        err = _error_exit(["scan", "--N", "64,64,64", "--alpha", "1"], capsys)
        assert "distinct N" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.parametrize("cmd", [["interp", "--N", "64"], ["construct", "--N", "64"],
                                     ["scan", "--N", "64,128,256"]],
                             ids=["interp", "construct", "scan"])
    def test_non_finite_alpha_exit1(self, cmd, alpha, tmp_path, capsys):
        out = ["--out", str(tmp_path / "s")] if cmd[0] == "construct" else []
        err = _error_exit([*cmd, "--alpha", alpha, *out], capsys)
        assert err == f"error: alpha must be a finite number in [0, 2], got {alpha}\n"

    @pytest.mark.parametrize("cmd", ["validate", "interp"])
    def test_csv_without_a_n_column_exit1(self, cmd, tmp_path, capsys):
        path = str(_quadratic_csv(tmp_path, header="n,value,exact_num,exact_den"))
        err = _error_exit([cmd, path], capsys)
        assert path in err and "a_n" in err

    def test_csv_zero_exact_den_exit1(self, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        p.write_text("n,a_n,exact_num,exact_den\n1,0.5,1,2\n2,1.0,1,0\n3,2.0,2,1\n")
        err = _error_exit(["validate", str(p)], capsys)
        assert str(p) in err and "row 2" in err and "exact_den" in err

    @pytest.mark.parametrize("cmd", ["validate", "interp"])
    def test_csv_not_utf8_names_file_exit1(self, cmd, tmp_path, capsys):
        # the message used to name neither the file nor the row: the rows
        # were decoded outside the reader's per-row error handling
        p = tmp_path / "latin.csv"
        p.write_bytes(b"n,a_n,exact_num,exact_den\n1,0.1,,\n\xff\xfe,0.2,,\n")
        err = _error_exit([cmd, str(p)], capsys)
        assert err == (f"error: {p}: 'utf-8' codec can't decode byte 0xff in position 34:"
                       " invalid start byte\n")

    def test_csv_field_past_csv_limit_exit1(self, tmp_path, capsys):
        # csv.Error is no ValueError, so this used to end in a traceback
        p = tmp_path / "long.csv"
        p.write_text("n,a_n\n1," + "1" * 200_000 + "\n")
        err = _error_exit(["validate", str(p)], capsys)
        assert err == f"error: {p}: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("hits", [[[24, 1.0, 10, 1]], {"n": 24}, 5],
                             ids=["list-of-lists", "object", "number"])
    def test_hits_not_list_of_objects_exit1(self, hits, tmp_path, capsys):
        csv_path = str(_quadratic_csv(tmp_path))
        path = _write_json(tmp_path, hits, "hits.json")
        err = _error_exit(["validate", csv_path, "--hits", path], capsys)
        assert path in err

    @pytest.mark.parametrize("text, message", [
        ("[1,\n", "Expecting value: line 2 column 1 (char 4)"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["syntax", "nesting"])
    @pytest.mark.parametrize("reader", ["spec", "regress", "hits"])
    def test_json_syntax_error_names_file_exit1(self, reader, text, message, tmp_path,
                                                 capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        argv = {"spec": ["expsum", str(path)], "regress": ["regress", str(path)],
                "hits": ["validate", str(_quadratic_csv(tmp_path)), "--hits", str(path)]}
        prefix = "spec file " if reader == "spec" else ""
        err = _error_exit(argv[reader], capsys)
        assert err.startswith(f"error: {prefix}{path}: {message}")

    @staticmethod
    def _constructed(tmp_path, capsys):
        """(CSV path, hits) of construct --N 256 --alpha 1, whose hits validate."""
        base = str(tmp_path / "s")
        run_cli(["construct", "--N", "256", "--alpha", "1", "--out", base], capsys)
        hits_path = base + ".hits.json"
        assert run_cli(["validate", base + ".csv", "--hits", hits_path], capsys)[0] == 0
        return base + ".csv", json.loads(Path(hits_path).read_text())

    @pytest.mark.parametrize("change, word", [
        ({"n": "x"}, "integers"), ({"num": 1.5}, "integers"), ({"den": 0}, "den"),
        ({"n": 0}, "outside"), ({"n": 257}, "outside"), ({"alpha": "1"}, "alpha"),
    ], ids=["n-string", "num-float", "den-zero", "n-zero", "n-past-N", "alpha-string"])
    def test_validate_malformed_hit_exit1(self, change, word, tmp_path, capsys):
        csv_path, hits = self._constructed(tmp_path, capsys)
        hits[1].update(change)
        path = _write_json(tmp_path, hits, "bad.hits.json")
        err = _error_exit(["validate", csv_path, "--hits", path], capsys)
        assert path in err and "hit 2" in err and word in err

    def test_validate_mismatched_hit_exit1(self, tmp_path, capsys):
        csv_path, hits = self._constructed(tmp_path, capsys)
        hits[0]["num"] += 1
        path = _write_json(tmp_path, hits, "bad.hits.json")
        err = _error_exit(["validate", csv_path, "--hits", path], capsys)
        assert path in err and "hit 1" in err and f"a_{hits[0]['n']} =" in err

    @pytest.mark.parametrize("points, where", [
        ([[16, 4.0], [64], [1024, 32.0]], "entry 2"),
        ([[16, 4.0], [64, None], [1024, 32.0]], "entry 2"),
        ([[16, 4.0], [64, 8.0, 1.0], [1024, 32.0]], "entry 2"),
        ([[16, 4.0], "64", [1024, 32.0]], "entry 2"),  # a str unpacks into two digit strings
        ([[16, 4.0], [64, True], [1024, 32.0]], "entry 2"),  # JSON true is a Python int
        ([[16, 4.0], [10**400, 8.0], [1024, 32.0]], "entry 2"),  # no float holds it
        ({"12": 0, "34": 0, "56": 0}, "not a JSON list"),  # iterating an object yields its keys
    ], ids=["single", "null", "triple", "string", "bool", "huge-int", "object"])
    def test_regress_entry_not_a_pair_exit1(self, points, where, tmp_path, capsys):
        path = _write_json(tmp_path, points)
        err = _error_exit(["regress", path], capsys)
        assert path in err and where in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("cmd", [["experiment", "A", "--N", "64"],
                                     ["experiment", "B", "--N", "64"],
                                     ["experiment", "C", "--N", "64"], ["expsum"]],
                             ids=["A", "B", "C", "expsum"])
    def test_grid_budget_below_one_exit1(self, cmd, budget, tmp_path, capsys):
        if cmd == ["expsum"]:
            spec = {"N": 2, "xi": [0.5, 1.0], "eta": [0.0, 0.5], "b": [1.0, 1.0]}
            cmd = ["expsum", _write_json(tmp_path, spec)]
        err = _error_exit([*cmd, f"--grid-budget={budget}"], capsys)
        assert err == f"error: grid budget must be >= 1, got {budget}\n"


class TestConstructInterpProperty:
    @given(N=st.integers(10, 4096), alpha=st.floats(0.0, 2.0))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_exit_code_and_strict_json(self, N, alpha):
        with tempfile.TemporaryDirectory() as tmp:
            for argv in (["construct", "--out", os.path.join(tmp, "s")], ["interp"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([*argv, "--N", str(N), "--alpha", repr(alpha)])
                assert code in (0, 1, 2)
                assert "Traceback" not in err.getvalue()
                if code == 1:
                    assert out.getvalue() == "" and err.getvalue().startswith("error:")
                else:
                    strict_json(out.getvalue())


class TestTracingContract:
    """perfbench/tracing.py rebinds these functions by name to time them."""

    @staticmethod
    def _tracing(monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
        spec.loader.exec_module(tracing)
        return tracing

    def test_tracer_spans_and_uninstall(self, capsys, monkeypatch):
        tracing = self._tracing(monkeypatch)
        mods = {m: importlib.import_module(f"convexsums.{m}") for m in tracing.MODULES}
        before = {(m, k): v for m, mod in mods.items() for k, v in vars(mod).items()
                  if callable(v)}
        table = dict(experiments.EXPERIMENTS)
        eval_many = mods["interp"].ConvexInterpolant.eval_many
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = cli.main(["experiment", "A", "--N", "64", "--grid-budget", "65536"])
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert code == 0
        names = [s.name for s in tracer.spans]
        assert "experiments.experiment_A" in names
        assert "expsum.sup_norm_Lp" in names
        sweep = tracer.spans[names.index("expsum.sup_norm_Lp")]
        assert tracer.spans[sweep.parent].name == "experiments.experiment_A"
        after = {(m, k): v for m, mod in mods.items() for k, v in vars(mod).items()
                 if callable(v)}
        assert all(after[key] is fn for key, fn in before.items())
        assert experiments.EXPERIMENTS == table
        assert mods["interp"].ConvexInterpolant.eval_many is eval_many

    def test_interp_layer_spans(self, capsys, monkeypatch):
        tracing = self._tracing(monkeypatch)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = cli.main(["interp", "--N", "64", "--alpha", "1"])
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert code == 0
        spans = {s.name: s for s in tracer.spans}
        assert {"interp.build_c1", "interp.upgrade_c2", "interp.eval_many"} <= set(spans)
        # 64 knots from knots_from_sequence: 63 pairs, two pieces each
        assert spans["interp.upgrade_c2"].attrs == {"pieces": 126}
        evals = [s for s in tracer.spans if s.name == "interp.eval_many"]
        assert [s.attrs["points"] for s in evals[-2:]] == [64, 2000]


# N = 32 specs on a grid of Mx = 128 by Mt = 1100 t-rows: five row blocks,
# the last one partial; 140,800 nodes, past expsum._BLOCK_NODES, so that
# more than one thread starts a pool
SWEEP_N = 32
SWEEP_BUDGET = 128 * 1100


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
    def test_levels_result_matches_library(
        self, tmp_path, capsys, band_measure, canonical, direction
    ):
        path, spec = _sweep_spec(tmp_path, canonical)
        code, out, _ = run_cli(_levels_argv(path, direction), capsys)
        assert code == 0
        grid = canonical_grid(SWEEP_N, SWEEP_BUDGET)
        assert grid.Mt == 1100
        norm = sup_norm_Lp(spec, grid, direction, 4.0)
        rep = dyadic_level_report(spec, grid, direction)
        want = {"norm": norm, "levels": rep}
        assert json.loads(out)["result"] == json.loads(json.dumps(want))
        # the fused reductions against the whole grid and banded passes
        a = np.abs(eval_grid(spec, grid))
        assert norm["argmax"]["abs_f"] == rep["max_abs_f"] == a.max()
        l_star = round((norm["argmax"]["t"] - grid.t_lo) / grid.dt)
        k_star = round((norm["argmax"]["x"] - grid.x_lo) / grid.dx)
        assert a[l_star, k_star] == a.max()
        for alpha, measure in zip(rep["alphas"][:6], rep["measures"][:6]):
            assert measure == level_set_projection(spec, grid, alpha, direction)
            assert measure == band_measure(spec, grid, alpha, direction)

    def test_norm_only_result_matches_library(self, tmp_path, capsys, canonical, direction):
        path, spec = _sweep_spec(tmp_path, canonical)
        argv = ["expsum", str(path), "--direction", direction,
                "--grid-budget", str(SWEEP_BUDGET)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        norm = sup_norm_Lp(spec, canonical_grid(SWEEP_N, SWEEP_BUDGET), direction, 4.0)
        assert json.loads(out)["result"] == json.loads(json.dumps({"norm": norm}))

    def test_levels_generates_each_block_once(
        self, tmp_path, capsys, monkeypatch, canonical, direction
    ):
        path, _ = _sweep_spec(tmp_path, canonical)
        name = "_rows_fast" if canonical else "_rows_naive"
        make_rows, blocks = getattr(expsum, name), []

        def counting(spec, grid, anchors):
            rows = make_rows(spec, grid, anchors)

            def counted(s, out):
                blocks.append((s, len(out)))
                return rows(s, out)

            return counted

        monkeypatch.setattr(expsum, name, counting)
        code, _, _ = run_cli(_levels_argv(path, direction, "--threads", "1"), capsys)
        assert code == 0
        # a separable block holds at most (2^16 - 1) // (K Mx) = 15 rows (K = 32,
        # Mx = 128), so that OpenBLAS keeps the product on the calling thread
        h = 256 if canonical else 15
        assert blocks == [(s, min(h, 1100 - s)) for s in range(0, 1100, h)]

    def test_levels_thread_count_invariant(
        self, tmp_path, capsys, pools, canonical, direction
    ):
        path, _ = _sweep_spec(tmp_path, canonical)
        results = []
        for threads in ("1", "3"):
            code, out, _ = run_cli(_levels_argv(path, direction, "--threads", threads),
                                   capsys)
            assert code == 0
            results.append(json.dumps(json.loads(out)["result"], sort_keys=True))
        assert results[0] == results[1]
        assert pools == [3]


def _validate_case(tmp_path, seq):
    path = str(tmp_path / "seq.csv")
    seq.to_csv(path)
    return ["validate", path], validate(seq)


def _regress_case(tmp_path):
    pts = [(64, 5.0), (128, 7.5), (256, 11.0)]
    return ["regress", _write_json(tmp_path, pts)], regress(pts)


def _experiment_case(which):
    fn = experiments.EXPERIMENTS[which]
    return (["experiment", which, "--N", "64", "--seed", "3", "--grid-budget", "65536"],
            fn(64, grid_budget=65536, seed=3))


def _expsum_case(tmp_path, *extra):
    path, spec = _sweep_spec(tmp_path, canonical=True)
    grid = canonical_grid(SWEEP_N, SWEEP_BUDGET)
    if extra:
        norm, levels = sup_norm_Lp(spec, grid, "x", 4.0, with_levels=True)
        want = {"norm": norm, "levels": levels}
    else:
        want = {"norm": sup_norm_Lp(spec, grid, "x", 4.0)}
    return ["expsum", str(path), "--direction", "x", "--grid-budget", str(SWEEP_BUDGET),
            *extra], want


@pytest.mark.parametrize("case, code", [
    (lambda tmp: _validate_case(tmp, construct(64, 1.0)), 0),
    (lambda tmp: _validate_case(
        tmp, ConvexSequence(N=4, values=np.array([0.0, 1.0, 1.5, 1.75]))), 2),
    (_regress_case, 0),
    (lambda tmp: (["scan", "--N", "64,128,256", "--alpha", "0.5,1"],
                  intersection_scan([64, 128, 256], [0.5, 1.0])), 0),
    (lambda tmp: _experiment_case("A"), 0),
    (lambda tmp: _experiment_case("B"), 0),
    (lambda tmp: _experiment_case("C"), 0),
    (_expsum_case, 0),
    (lambda tmp: _expsum_case(tmp, "--levels"), 0),
], ids=["validate-pass", "validate-fail", "regress", "scan", "experiment-A",
        "experiment-B", "experiment-C", "expsum", "expsum-levels"])
def test_result_is_the_library_dict(case, code, tmp_path, capsys):
    """Each command prints the dict its library function returns, as JSON."""
    argv, want = case(tmp_path)
    got_code, out, _ = run_cli(argv, capsys)
    assert got_code == code
    assert json.loads(out)["result"] == json.loads(json.dumps(want))


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

    def test_entry_point_subprocess(self, tmp_path):
        code, out, _ = _fresh_cli(["--version"], tmp_path)
        assert code == 0
        assert out.strip() == "0.1.0"


def test_package_exports_resolve():
    # a star import binds every name in __all__, each to the package's object
    namespace = {}
    exec("from convexsums import *", namespace)
    assert len(set(convexsums.__all__)) == len(convexsums.__all__)
    for name in convexsums.__all__:
        assert namespace[name] is getattr(convexsums, name)
