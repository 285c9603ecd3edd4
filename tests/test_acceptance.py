"""Acceptance gate.

Eight criteria, each as one test in order, each printing a single verdict
line (straight to the terminal, bypassing capture) of the form

    [criterion k] PASS|FAIL - detail

Tolerances and runtime budgets are pinned in the constants below.  The
criteria assert honestly: a criterion that does not hold at these scales
fails here rather than being weakened.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction as Q
from math import gcd

import numpy as np
import pytest

from convexsums.convexseq import (
    construct_dirichlet_like,
    construct_small_alpha,
    intersect_count,
    shear,
    validate,
)
from convexsums.expsum import (
    ExpSumSpec,
    canonical_grid,
    dyadic_level_report,
    eval_grid,
    eval_point,
    level_set_projection,
    sup_norm_Lp,
)
from convexsums.experiments import (
    _hit_coefficients,
    experiment_A,
    experiment_B,
    experiment_C,
    intersection_scan,
    regress,
)
from convexsums.interp import _eval_pieces, _slope, build_c1, upgrade_c2
from convexsums.rational import enumerate_fractions, power_value

SEED = 20260822
NS = (64, 128, 256)

# per-criterion wall-clock budgets, seconds
T_IDENTITY = 300.0
T_CONVEXITY = 120.0
T_INTERP = 60.0
T_FAREY = 60.0
T_SCAN = 180.0
T_NORMS = 900.0
T_EVAL = 120.0
T_LEVELS = 300.0


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_verdicts(capsys):
    # verdict lines must reach the terminal even for passing tests
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _verdict(k: int, ok: bool, detail: str) -> None:
    line = f"[criterion {k}] {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@pytest.fixture(scope="module")
def reports():
    """All nine experiment runs at the default grid budget, timed once."""
    t0 = time.perf_counter()
    out = {}
    for N in NS:
        out["A", N] = experiment_A(N, seed=SEED)
        out["B", N] = experiment_B(N, seed=SEED)
        out["C", N] = experiment_C(N, seed=SEED)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_1_exact_identities(reports):
    worst = 0.0
    ok = True
    for N in NS:
        a = reports["A", N]
        assert a["identity"]["checked_j"] == list(range(1, N + 1))
        for key in ("A", "B", "C"):
            r = reports[key, N]
            worst = max(worst, r["identity"]["max_rel_err"])
            ok = ok and r["identity"]["pass"]
    elapsed = reports["elapsed"]
    ok = ok and worst <= 1e-6 and elapsed <= T_IDENTITY
    _verdict(1, ok, f"identities A/B/C at N=64..256, max rel err {worst:.2e}, "
                    f"{elapsed:.1f}s")
    assert worst <= 1e-6
    assert ok


def test_criterion_2_convexity_and_hits():
    t0 = time.perf_counter()
    worst_C = 0.0
    checked_hits = 0
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for N in (256, 1024, 4096):
            seq = construct_dirichlet_like(N, alpha)
            rep = validate(seq)
            assert rep["pass"], f"alpha={alpha} N={N}: C={rep['tightest_C']}"
            assert rep["tightest_C"] <= 8.0
            worst_C = max(worst_C, rep["tightest_C"])
            step_q, exact = power_value(N, -Q(alpha).limit_denominator(10**6))
            assert exact  # these alpha, N give rational lattice steps
            assert seq.hits
            for h in seq.hits:
                assert h.alpha == alpha
                assert h.den == 1
                # values are snapped onto the lattice, so equality is exact
                assert seq.values[h.n - 1] == h.num * float(step_q)
                checked_hits += 1
    elapsed = time.perf_counter() - t0
    ok = worst_C <= 8.0 and elapsed <= T_CONVEXITY
    _verdict(2, ok, f"12 constructions, worst C {worst_C:.3f} <= 8, "
                    f"{checked_hits} hits exact on lattice, {elapsed:.1f}s")
    assert ok


def _random_knots(rng) -> np.ndarray:
    """2 to 8 random convex-interpolable knots, the rows x, y, p of an array."""
    n = int(rng.integers(2, 9))
    x = np.cumsum(rng.uniform(0.2, 1.0, size=n))
    p = 0.1 + np.cumsum(rng.uniform(0.1, 0.8, size=n))
    y = [float(rng.uniform(-1, 1))]
    for i in range(n - 1):
        u = rng.uniform(0.05, 0.95)
        chord = p[i] + u * (p[i + 1] - p[i])
        y.append(y[-1] + chord * (x[i + 1] - x[i]))
    return np.column_stack([x, y, p])


def test_criterion_3_interpolation_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    cases = [_random_knots(rng) for _ in range(100)]
    cases.append(np.array([(0, 0, 0), (1, 0.5, 1)], dtype=float))
    cases.append(np.array([(0, 0, 0), (1, 1 / 3, 1)], dtype=float))
    worst_area = worst_interp = worst_curv = worst_root = 0.0
    for knots in cases:
        f = upgrade_c2(build_c1(knots))
        x, y, p = knots.T
        # area: true closed-form integral over each segment equals dy
        to_hi, _, _ = _eval_pieces(f._cols[1], *f._cols)
        area = to_hi[0::2] + to_hi[1::2]  # knot pair i gives pieces 2i, 2i+1
        worst_area = max(worst_area, np.abs(area - np.diff(y)).max())
        vals, ders, secs = f.eval_many(x)
        worst_interp = max(
            worst_interp,
            np.abs(vals - y).max(),
            np.abs(ders - p).max(),
        )
        worst_curv = max(worst_curv, np.abs(secs / f.D - 1.0).max())
        grid = np.linspace(f.x_min(), f.x_max(), 10_000)
        _, gp, gs = f.eval_many(grid)
        assert np.all(np.diff(gp) > 0), "derivative must strictly increase"
        assert np.all(gs > 0), "second derivative must stay positive"
        a = f._cols[4]  # a linear piece has a NaN angle and no root
        root_err = np.abs(a / np.tan(a) - f.D / _slope(*f._cols[:4]))
        worst_root = max(worst_root, np.nanmax(root_err))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_area <= 1e-12
        and worst_interp <= 1e-10
        and worst_curv <= 1e-6
        and worst_root <= 1e-12
        and elapsed <= T_INTERP
    )
    _verdict(3, ok, f"102 knot sets: area {worst_area:.1e}, interp "
                    f"{worst_interp:.1e}, curvature {worst_curv:.1e}, "
                    f"root {worst_root:.1e}, {elapsed:.1f}s")
    assert worst_area <= 1e-12
    assert worst_interp <= 1e-10
    assert worst_curv <= 1e-6
    assert worst_root <= 1e-12
    assert ok


def _brute_fractions(lo: float, hi: float, qmax: int) -> int:
    count = 0
    for q in range(1, qmax + 1):
        for p in range(math.ceil(lo * q - 1e-12), math.floor(hi * q + 1e-12) + 1):
            if p >= 0 and gcd(p, q) == 1 and lo <= p / q <= hi:
                count += 1
    return count


def test_criterion_4_farey_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    density_cases = 0
    for i in range(200):
        if i % 2:
            lo = float(rng.uniform(0, 0.4))
            length = float(rng.uniform(0.5, 1.0))
            qmax = int(rng.integers(150, 201))
        else:
            lo = float(rng.uniform(0, 2.0))
            length = float(rng.uniform(0.01, 0.5))
            qmax = int(rng.integers(1, 201))
        hi = lo + length
        got = enumerate_fractions(lo, hi, qmax)
        expect = _brute_fractions(lo, hi, qmax)
        assert len(got) == expect, f"({lo}, {hi}, {qmax}): {len(got)} != {expect}"
        # strictly increasing: sorted and distinct, with no hashing
        assert all(a * d < c * b for (a, b), (c, d) in zip(got, got[1:]))
        if length * qmax >= 100:
            density_cases += 1
            dens = len(got) / (length * qmax**2)
            assert 0.15 <= dens <= 0.6, f"density {dens} at ({lo}, {hi}, {qmax})"
    elapsed = time.perf_counter() - t0
    ok = density_cases >= 50 and elapsed <= T_FAREY
    _verdict(4, ok, f"200 windows match brute force, {density_cases} density "
                    f"checks in [0.15, 0.6], {elapsed:.1f}s")
    assert ok


def test_criterion_5_intersection_scaling():
    t0 = time.perf_counter()
    results = intersection_scan([256, 1024, 4096], [1.0, 1.5, 2.0, 0.25])
    details = []
    ok = True
    for r in results:
        err = abs(r["slope"] - r["target"])
        details.append(f"a={r['alpha']}: {r['slope']:.3f} vs {r['target']:.3f}")
        ok = ok and err <= 0.15
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= T_SCAN
    _verdict(5, ok, "; ".join(details) + f", {elapsed:.1f}s")
    for r in results:
        assert abs(r["slope"] - r["target"]) <= 0.15, f"alpha={r['alpha']}"
    assert ok


def test_criterion_6_norm_scaling(reports):
    t0 = time.perf_counter()
    slopes = {}
    for key in ("A", "B"):
        pts = [
            (float(N),
             reports[key, N]["norm"]["value"] / math.sqrt(reports[key, N]["hit_count"]))
            for N in NS
        ]
        slopes[key] = regress(pts)["slope"]
    lo_a, hi_a = 7 / 12 - 0.1, 7 / 12 + 0.12
    lo_b, hi_b = 5 / 8 - 0.1, 2 / 3 + 0.1
    elapsed = time.perf_counter() - t0 + reports["elapsed"]
    ok = (
        lo_a <= slopes["A"] <= hi_a
        and lo_b <= slopes["B"] <= hi_b
        and elapsed <= T_NORMS
    )
    _verdict(6, ok, f"A slope {slopes['A']:.3f} in [{lo_a:.3f}, {hi_a:.3f}], "
                    f"B slope {slopes['B']:.3f} in [{lo_b:.3f}, {hi_b:.3f}], "
                    f"{elapsed:.1f}s")
    assert lo_a <= slopes["A"] <= hi_a
    assert lo_b <= slopes["B"] <= hi_b
    assert ok


def test_criterion_7_evaluator_checks():
    t0 = time.perf_counter()
    N = 256
    rng = np.random.default_rng(SEED)
    eta = np.sort(rng.uniform(0, 1, size=N)) * N
    b = rng.normal(size=N)
    spec = ExpSumSpec(N=N, xi=np.arange(1, N + 1) / N, eta=eta, b=b)
    grid = canonical_grid(N)
    fast = eval_grid(spec, grid)  # canonical xi on [0, N): the FFT rows
    scale = spec.norm_b1()

    rows = rng.integers(0, grid.Mt, size=1000)
    cols = rng.integers(0, grid.Mx, size=1000)
    worst = 0.0
    for l, k in zip(rows, cols):
        ref = eval_point(spec, grid.x_lo + k * grid.dx, grid.t_lo + l * grid.dt)
        worst = max(worst, abs(fast[l, k] - ref) / scale)

    # x-periodicity: canonical frequencies make f N-periodic in x
    per = 0.0
    for _ in range(50):
        x = float(rng.uniform(0, N))
        t = float(rng.uniform(0, N**2))
        per = max(per, abs(eval_point(spec, x + N, t) - eval_point(spec, x, t)) / scale)

    # grid Parseval per row: Mx = 4N nodes resolve all N frequencies
    power = (np.abs(fast) ** 2).mean(axis=1)
    parseval = float(np.abs(power - spec.norm_b2() ** 2).max() / spec.norm_b2() ** 2)

    r1 = sup_norm_Lp(spec, grid, "t", 4.0, threads=1)
    r4 = sup_norm_Lp(spec, grid, "t", 4.0, threads=4)
    det = json.dumps(r1, sort_keys=True) == json.dumps(r4, sort_keys=True)
    elapsed = time.perf_counter() - t0
    ok = (
        worst <= 1e-9
        and per <= 1e-9
        and parseval <= 1e-9
        and det
        and elapsed <= T_EVAL
    )
    _verdict(7, ok, f"FFT rows vs eval_point {worst:.1e}, periodicity {per:.1e}, "
                    f"Parseval {parseval:.1e}, thread-determinism {det}, "
                    f"{elapsed:.1f}s")
    assert worst <= 1e-9
    assert per <= 1e-9
    assert parseval <= 1e-9
    assert det
    assert ok


def _level_stat(spec: ExpSumSpec, grid) -> float:
    """max_j a_j^4 |pi_t U_{a_j}| / (N^(7/3) ||b||_2^4) on a_j = ||b||_1 2^-j.

    The ladder hangs from the trivial bound ||b||_1 rather than from powers
    of two: for the witness's 0/1 coefficients ||b||_1 = K is the attained
    maximum and, at these N, a power of two, and a band with that lower edge
    would hold only the nodes that reach it to the last bit.  Each lower band j adds at most 16^-j of
    the trivial bound.
    """
    denom = spec.N ** (7.0 / 3.0) * spec.norm_b2() ** 4
    stats = []
    for j in range(4):
        a = spec.norm_b1() * 2.0**-j
        stats.append(a**4 * level_set_projection(spec, grid, a, "t") / denom)
    return max(stats)


def test_criterion_8_level_set_stability():
    t0 = time.perf_counter()
    hits, S, R, drift, dyadic = {}, {}, {}, {}, {}
    for N in NS:
        c = construct_dirichlet_like(N, 1.0)
        a = shear(c, -1.0 / N**2)
        b = _hit_coefficients(c)
        grid = canonical_grid(N)
        xi = np.arange(1, N + 1) / N
        spec = ExpSumSpec(N=N, xi=xi, eta=a.values, b=b)
        scaled = ExpSumSpec(N=N, xi=xi, eta=a.values, b=0.75 * b)
        K = len(c.hits)
        hits[N] = K
        S[N] = _level_stat(spec, grid)
        # divide out the hit-count constant (K / N^(2/3))^2 that the
        # construction promises only up to a constant
        R[N] = S[N] / (K / N ** (2.0 / 3.0)) ** 2
        # the inequality is homogeneous in b, so S must not move under b -> 0.75 b
        drift[N] = abs(_level_stat(scaled, grid) - S[N]) / S[N]
        dyadic[N] = dyadic_level_report(spec, grid, "t")["max_stat"]
    ratio = max(R.values()) / min(R.values())
    elapsed = time.perf_counter() - t0
    ok = (
        ratio <= 2.0
        and all(r <= 1 + 1e-12 for r in R.values())
        and all(d <= 1e-12 for d in drift.values())
        and elapsed <= T_LEVELS
    )
    detail = (
        "; ".join(
            f"N={N}: K {hits[N]}, S {S[N]:.4f}, R {R[N]:.4f}, "
            f"dyadic max_stat {dyadic[N]:.4f}"
            for N in NS
        )
        + f"; R ratio {ratio:.2f} (required <= 2), "
        + f"max drift under b -> 0.75b {max(drift.values()):.1e}, {elapsed:.1f}s"
    )
    _verdict(8, ok, detail)
    for N in NS:
        assert R[N] <= 1 + 1e-12, (
            f"N={N}: level-set statistic R={R[N]:.6f} exceeds the trivial "
            f"bound 1 (K={hits[N]}, S={S[N]:.6f})"
        )
        assert drift[N] <= 1e-12, (
            f"N={N}: S moves by {drift[N]:.2e} relative under b -> 0.75b, "
            f"so it is read off a band edge"
        )
    assert ratio <= 2.0, (
        f"level-set statistic R varies {ratio:.2f}x across N={NS}: "
        + ", ".join(f"N={N}: K {hits[N]}, S {S[N]:.4f}, R {R[N]:.4f}" for N in NS)
    )
    assert ok
