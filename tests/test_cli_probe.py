"""The CLI contract, probed over a few hundred argvs in-process.

Edge values of N, alpha, budgets, seeds and --threads; hostile spec files;
Farey windows with NaN and infinities; malformed scan lists; sequence CSVs
at the edge of the float range.  Whatever the input, main must

- exit 0, 1 or 2 (a SystemExit counts as its code);
- on exit 1, write exactly one stderr line, starting `error: `;
- on exit 0 or 2, print strict JSON (no NaN, no Infinity) on stdout;
- print no traceback.

It asserts the contract, not particular messages.  Sizes stay small (N <= 4096,
qmax <= 10^4, budgets <= 2^20), thread pools run serially, and every file
goes to the test's temporary directory.
"""

import itertools
import json
from fractions import Fraction

from convexsums import expsum
from convexsums.cli import main
from convexsums.convexseq import ConvexSequence, construct
from test_cli import strict_json

NS = ["-1", "0", "1", "2", "3", "10", "257", "4096", "1.5", "x"]
ALPHAS = ["-1", "0", "5e-324", "0.3", "1", "2", "3", "1e300", "nan", "inf", "-inf", "x"]
BIG = str(2**20)
BUDGETS = ["-1", "0", "1", "2", "1024", BIG, "1e3", "x"]
SEEDS = ["-1", "0", "2", str(2**64), "x"]
THREADS = ["-1", "0", "1", "2", str(10**6), "x"]
FLOATS = ["nan", "inf", "-inf", "-1", "0", "0.5", "1", "1e300", "5e-324", "x"]
BUDGET = ["--grid-budget", "4096"]
EDGE_CSVS = {  # sequences at the float range's edge; integers are written exact
    "exact-overflow": [int(1.7e308), -int(1.7e308), int(1.7e308)],  # differences overflow
    "exact-huge-C": [0, 1, 3, 10**308],  # finite differences, C past the range
    "float-overflow": [1.7e308, -1.7e308, 1.7e308],
    "near-max": [0.0, 1e308, 1.7e308, 1.79e308],  # interp's end extension overflows
}


class _SerialPool:
    """ThreadPoolExecutor's map, run in the calling thread."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


def _files(tmp_path):
    """name -> path of the sequence, hits, spec and points files the argvs read."""
    seq = construct(64, 1.0)
    seq.to_csv(str(tmp_path / "seq.csv"))
    seq.hits_to_json(str(tmp_path / "seq.hits.json"))
    files = {"csv": tmp_path / "seq.csv", "hits": tmp_path / "seq.hits.json"}
    for name, values in EDGE_CSVS.items():
        exact = [Fraction(v) for v in values] if type(values[0]) is int else None
        files[name] = tmp_path / f"{name}.csv"
        ConvexSequence(N=len(values), values=[float(v) for v in values],
                       exact_values=exact).to_csv(str(files[name]))
    n = 8
    ok = {"N": n, "xi": [(i + 1) / n for i in range(n)],
          "eta": [i * i / n for i in range(n)], "b": [1.0] * n}
    # 64 terms with irregular frequencies: at 2^20 nodes the sweep opens a pool
    wide = {"N": 64, "xi": [(i + 1) / 64 for i in range(64)],
            "eta": sorted(i * 0.6180339887 % 1 * 64 for i in range(64)), "b": [1.0] * 64}
    specs = {
        "ok": ok,
        "wide": wide,
        "N0": {"N": 0, "xi": [], "eta": [], "b": []},
        "Nneg": ok | {"N": -3},
        "huge-b": ok | {"b": [1e300] * n},
        "huge-eta": ok | {"eta": [1e300] * n},
        "huge-xi": ok | {"xi": [1e300] * n},
        "tiny": ok | {"eta": [5e-324] * n, "b": [5e-324] * n},
        "mismatched": ok | {"eta": ok["eta"][:-1]},
        "zero-b": ok | {"b": [0.0] * n},
    }
    points = {
        "points-ok": [[64, 8.0], [256, 16.0], [1024, 32.0]],
        "points-one-N": [[64, 8.0], [64, 9.0]],
        "points-huge": [[64, 1e300], [1e300, 1.0]],
        "points-empty": [],
        "points-not-pairs": [[64], [1, 2, 3]],
    }
    for name, doc in (specs | points).items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    (tmp_path / "broken.json").write_text("{")
    files["broken"] = tmp_path / "broken.json"
    return {name: str(path) for name, path in files.items()}, list(specs)


def _argvs(tmp_path):
    files, specs = _files(tmp_path)
    out = str(tmp_path / "out")
    yield from ([], ["bogus"], ["construct"], ["farey", "--lo", "0"], ["expsum"])
    for N, alpha in itertools.product(NS, ALPHAS):
        yield ["construct", "--N", N, "--alpha", alpha, "--out", out]
        yield ["interp", "--N", N, "--alpha", alpha, "--out", out + ".json"]
    yield ["construct", "--N", "64", "--alpha", "1"]  # the default base, seq
    yield ["validate", files["csv"], "--hits", files["hits"]]
    for path in (files["csv"], *(files[name] for name in EDGE_CSVS), files["ok"],
                 files["broken"], str(tmp_path / "missing.csv")):
        yield ["validate", path]
        yield ["interp", path]
    for lo, hi in itertools.product(FLOATS[:-1], repeat=2):
        yield ["farey", "--lo", lo, "--hi", hi, "--qmax", "100", "--count-only"]
        if abs(float(hi) - float(lo)) <= 1:  # at most about 3,000 terms
            yield ["farey", "--lo", lo, "--hi", hi, "--qmax", "100"]
    for qmax in ["-1", "0", "1", "10000", "1e3", "x"]:
        yield ["farey", "--lo", "0", "--hi", "1", "--qmax", qmax, "--count-only"]
        yield ["farey", "--lo", "0", "--hi", "1e-4", "--qmax", qmax]
    for spec in [*specs, "broken"]:
        yield ["expsum", files[spec], *BUDGET]
        yield ["expsum", files[spec], "--levels", *BUDGET]
        yield ["expsum", files[spec], "--direction", "x", "--p", "1", *BUDGET]
    for p in FLOATS:
        yield ["expsum", files["ok"], "--p", p, *BUDGET]
    for budget in BUDGETS:
        yield ["expsum", files["ok"], "--levels", "--grid-budget", budget]
        yield ["experiment", "A", "--N", "64", "--grid-budget", budget]
    for threads in THREADS:
        yield ["expsum", files["wide"], "--levels", "--threads", threads, "--grid-budget", BIG]
        yield ["experiment", "C", "--N", "64", "--threads", threads, *BUDGET]
    for which, N in itertools.product("ABC", ["-1", "0", "3", "63", "64", "128"]):
        yield ["experiment", which, "--N", N, *BUDGET]
    for seed in SEEDS:
        yield ["experiment", "C", "--N", "64", "--seed", seed, *BUDGET]
    for Ns in ["", ",", "64,", "64,128", "0,64", "-64,128", "64,64", "a,b", "64;128",
               "1e2", "4096,64", "3,4"]:
        yield ["scan", "--N", Ns, "--alpha", "1"]
    for alphas in ["", ",", "1,nan", "inf", "0,1", "-1", "1,,2", "2.5", "x"]:
        yield ["scan", "--N", "64,128", "--alpha", alphas]
    for name in ["points-ok", "points-one-N", "points-huge", "points-empty",
                 "points-not-pairs", "broken", "ok"]:
        yield ["regress", files[name]]


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's exits
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _breach(code, out, err):
    """What the run did against the contract, or None."""
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if "Traceback" in err:
        return "traceback"
    if code == 1:
        if not (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")):
            return f"exit 1 with stderr {err!r}"
        return None
    try:
        strict_json(out)
    except ValueError as exc:
        return f"exit {code} with stdout that is not strict JSON: {exc}"
    return None


def test_out_refused_where_the_envelope_is_the_only_output(tmp_path, capsys):
    # the envelope goes to stdout; --out names only files construct and interp make
    files, _ = _files(tmp_path)
    argvs = {  # each succeeds without --out
        "validate": ["validate", files["csv"], "--hits", files["hits"]],
        "farey": ["farey", "--lo", "0", "--hi", "1", "--qmax", "10"],
        "expsum": ["expsum", files["ok"], *BUDGET],
        "experiment": ["experiment", "A", "--N", "64", *BUDGET],
        "scan": ["scan", "--N", "64,128,256", "--alpha", "1"],
        "regress": ["regress", files["points-ok"]],
    }
    for cmd, argv in argvs.items():
        assert _run(argv, capsys)[0] == 0, cmd
        target = tmp_path / f"{cmd}.out.json"
        code, out, err = _run([*argv, "--out", str(target)], capsys)
        assert (code, out) == (1, ""), cmd
        assert err.startswith("error: ") and err.count("\n") == 1, cmd
        assert not target.exists(), cmd


def test_every_argv_keeps_the_contract(tmp_path, monkeypatch, capsys):
    # as on 64 CPUs, so that --threads above 1 asks for a pool on any host
    monkeypatch.setattr(expsum.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    pools = []
    monkeypatch.setattr(expsum, "ThreadPoolExecutor",
                        lambda max_workers: pools.append(max_workers) or _SerialPool())
    monkeypatch.chdir(tmp_path)  # construct's default files land here
    argvs = list(_argvs(tmp_path))
    breaches, codes = [], []
    for argv in argvs:
        try:
            code, out, err = _run(argv, capsys)
        except Exception as exc:  # an error main let escape
            breaches.append((argv, f"{type(exc).__name__}: {exc}"))
            continue
        codes.append(code)
        if (why := _breach(code, out, err)) is not None:
            breaches.append((argv, why))
    assert not breaches, "\n".join(f"{argv}: {why}" for argv, why in breaches[:20])
    assert len(argvs) >= 300
    assert {0, 1, 2} <= set(codes)  # the probe reaches every outcome
    assert pools  # some sweep asked for threads and ran serially
