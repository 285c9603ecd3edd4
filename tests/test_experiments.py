import json
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from convexsums import experiments, expsum
from convexsums.convexseq import construct_dirichlet_like, shear
from convexsums.experiments import (
    _cell,
    _hit_coefficients,
    _sup_norm_L4,
    experiment_A,
    experiment_B,
    experiment_C,
    intersection_scan,
    regress,
)
from convexsums.expsum import (
    ExpSumSpec,
    GridSpec,
    canonical_grid,
    dyadic_level_report,
    eval_point,
    level_set_projection,
    sup_norm_Lp,
)

SMALL_BUDGET = 2**18  # keeps unit tests fast; acceptance uses the default


class TestRegress:
    def test_exact_power_law(self):
        pts = [(float(n), 3.0 * n**0.625) for n in (64, 128, 256, 512)]
        r = regress(pts)
        assert abs(r["slope"] - 0.625) < 1e-12
        assert abs(math.exp(r["intercept"]) - 3.0) < 1e-12
        assert r["residual"] < 1e-13

    def test_noisy_power_law(self):
        rng = np.random.default_rng(7)
        pts = [
            (float(n), n**0.75 * math.exp(rng.normal(0, 0.01)))
            for n in (64, 128, 256, 512, 1024)
        ]
        r = regress(pts)
        assert abs(r["slope"] - 0.75) < 0.05

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            regress([(64.0, 1.0), (128.0, 2.0)])

    def test_nonpositive_value(self):
        with pytest.raises(ValueError):
            regress([(64.0, 1.0), (128.0, 0.0), (256.0, 2.0)])


class TestExperimentA:
    def test_identity_and_report(self):
        rep = experiment_A(64, grid_budget=SMALL_BUDGET)
        assert rep["identity"]["pass"]
        assert rep["identity"]["max_rel_err"] <= 1e-6
        assert rep["hit_count"] >= 2
        assert rep["identity"]["checked_j"] == list(range(1, 65))
        assert rep["norm"]["value"] > 0
        assert rep["ratio"] > 0

    def test_json_schema(self):
        d = experiment_A(64, grid_budget=SMALL_BUDGET)
        assert set(d) == {
            "id",
            "N",
            "alpha",
            "hit_count",
            "identity",
            "norm",
            "predicted_exponent",
            "ratio",
            "seed",
        }
        assert d["identity"]["pass"] is True
        assert d["norm"]["direction"] == "t"
        assert d["norm"]["p"] == 4.0
        # timing must stay out of the serialized form
        assert "runtime" not in json.dumps(d)
        json.dumps(d, sort_keys=True)  # must be serializable as-is

    def test_identity_is_exact_not_just_close(self):
        # power-of-two N makes every phase dyadic: the residual is 0.0
        rep = experiment_A(128, grid_budget=SMALL_BUDGET)
        assert rep["identity"]["max_rel_err"] == 0.0

    def test_narrow_cell_pool_gives_the_same_bits(self, pools):
        # a 4 x 131,072 cell (K = 4): 33 separable blocks of at most 4,095
        # rows, past _BLOCK_NODES, so two threads start a pool
        reps = [json.dumps(experiment_A(256, grid_budget=2**28, threads=t)) for t in (1, 2)]
        assert reps[0] == reps[1]
        assert pools == [2]


class TestExperimentB:
    def test_identity(self):
        rep = experiment_B(64, grid_budget=SMALL_BUDGET, seed=3)
        assert rep["identity"]["pass"]
        assert rep["alpha"] == 0.5
        assert len(rep["identity"]["checked_j"]) == 64
        assert all(1 <= j <= 64**1.5 for j in rep["identity"]["checked_j"])
        assert rep["norm"]["direction"] == "x"

    def test_seed_changes_sample(self):
        a = experiment_B(64, grid_budget=SMALL_BUDGET, seed=0)
        b = experiment_B(64, grid_budget=SMALL_BUDGET, seed=1)
        assert a["identity"]["checked_j"] != b["identity"]["checked_j"]
        assert a["identity"]["pass"] and b["identity"]["pass"]

    @pytest.mark.parametrize("N", [64, 128, 256])
    def test_ratio_near_saturation(self, N):
        # norm ~ ||b||_1 N^{1/2} with K ~ N^{1/2}: norm / (N^{3/4} ||b||_2)
        # stays near (K / N^{1/2})^{1/2}, which is 0.42-0.5 at these N
        rep = experiment_B(N, seed=1)
        assert rep["predicted_exponent"] == 0.75
        assert 0.4 <= rep["ratio"] <= 0.6

    def test_deterministic_json(self):
        a = experiment_B(64, grid_budget=SMALL_BUDGET, seed=5, threads=1)
        b = experiment_B(64, grid_budget=SMALL_BUDGET, seed=5, threads=4)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestExperimentC:
    def test_identity(self):
        rep = experiment_C(64, grid_budget=SMALL_BUDGET, seed=2)
        assert rep["identity"]["pass"]
        assert all(1 <= j <= 64**2 for j in rep["identity"]["checked_j"])
        # tilted frequencies force the naive path on a square grid
        side = int(math.isqrt(SMALL_BUDGET))
        assert rep["norm"]["grid"]["Mx"] == side
        assert rep["norm"]["grid"]["Mt"] == side
        assert rep["norm"]["grid"]["x_hi"] == 64.0**2

    def test_rejects_tiny_N(self):
        with pytest.raises(ValueError):
            experiment_C(32)


class _Captured(Exception):
    pass


def _identity_inputs(fn, N, monkeypatch):
    """The spec and point arrays fn(N) checks its identity on, in one call.

    The experiment stops at that call, before its norm sweep.
    """
    calls = []

    def spy(*args):
        calls.append(args)
        raise _Captured

    monkeypatch.setattr(experiments, "eval_point", spy)
    with pytest.raises(_Captured):
        fn(N, grid_budget=SMALL_BUDGET, seed=1)
    monkeypatch.undo()
    ((spec, xs, ts),) = calls
    return spec, xs, ts


def _bits(vals):
    return [(v.real.hex(), v.imag.hex()) for v in vals]


class TestIdentityBatch:
    """_witness evaluates all aligned points in one eval_point call, with the
    bits of one scalar call per point."""

    @pytest.mark.parametrize("N", [64, 1024])
    def test_A_points_exact_and_bitwise(self, N, monkeypatch):
        spec, xs, ts = _identity_inputs(experiment_A, N, monkeypatch)
        assert len(xs) == len(ts) == N
        got = eval_point(spec, xs, ts)
        assert _bits(got) == _bits(eval_point(spec, x, t) for x, t in zip(xs, ts))
        count = np.count_nonzero(spec.b)
        assert all(v == complex(count) for v in got)  # error exactly 0.0

    def test_B_seeded_points_bitwise(self, monkeypatch):
        spec, xs, ts = _identity_inputs(experiment_B, 128, monkeypatch)
        assert len(xs) == 64
        assert not np.all(ts == np.round(ts * 2**20) / 2**20)  # not all dyadic
        assert _bits(eval_point(spec, xs, ts)) == _bits(
            eval_point(spec, x, t) for x, t in zip(xs, ts)
        )

    @pytest.mark.parametrize("fn", [experiment_A, experiment_B, experiment_C])
    def test_one_call_per_experiment(self, fn, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return eval_point(*args)

        monkeypatch.setattr(experiments, "eval_point", counting)
        rep = fn(64, grid_budget=SMALL_BUDGET, seed=1)
        assert len(calls) == 1
        assert len(calls[0][1]) == len(rep["identity"]["checked_j"])


def _norm_inputs(fn, N, budget, monkeypatch):
    """The spec, grid and sup direction fn(N) takes its norm on, with no sweep."""
    calls = []

    def spy(*args):
        calls.append(args)
        raise _Captured

    monkeypatch.setattr(experiments, "_sup_norm_L4", spy)
    with pytest.raises(_Captured):
        fn(N, grid_budget=budget, seed=1)
    monkeypatch.undo()
    ((spec, grid, direction, _),) = calls
    return spec, grid, direction


def _record_sweeps(monkeypatch):
    """Route experiments' sup_norm_Lp through a spy; returns the list of the
    (grid, argmax abs_f) of each call, abs_f read before _sup_norm_L4 drops it."""
    swept = []

    def spy(spec, grid, *args, **kwargs):
        norm = sup_norm_Lp(spec, grid, *args, **kwargs)
        swept.append((grid, norm["argmax"]["abs_f"]))
        return norm

    monkeypatch.setattr(experiments, "sup_norm_Lp", spy)
    return swept


def _brute_cell(w):
    """(P, m) of {(i, j) : i a + j b integral for all (a, b) in w} by enumeration."""
    D = math.lcm(*(c.denominator for v in w for c in v))
    def inside(i, j):
        return all((i * a + j * b).denominator == 1 for a, b in w)

    return (min(i for i in range(1, D + 1) if any(inside(i, j) for j in range(D))),
            min(j for j in range(1, D + 1) if inside(0, j)))


class TestOuterPeriod:
    """Each experiment sweeps one cell of f's translation lattice, read off
    its floats (_cell), where the grid allows it, and the norm is the full
    grid's."""

    def test_cell_matches_enumeration(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            K = int(rng.integers(1, 4))
            xi = rng.integers(-16, 17, size=K) / 2.0 ** rng.integers(0, 4, size=K)
            eta = rng.integers(-16, 17, size=K) / 2.0 ** rng.integers(0, 4, size=K)
            dx, dt = rng.choice([0.25, 0.5, 0.75, 1.0, 3.0], size=2)
            spec = ExpSumSpec(N=K, xi=xi, eta=eta, b=np.ones(K))
            grid = GridSpec(x_lo=0.0, x_hi=5 * dx, Mx=5, t_lo=1.0, t_hi=1.0 + 7 * dt, Mt=7)
            for direction, steps in (("t", (dx, dt)), ("x", (dt, dx))):
                (nu, mu) = (xi, eta) if direction == "t" else (eta, xi)
                w = [(Q(steps[0]) * Q(a), Q(steps[1]) * Q(b))
                     for a, b in zip(nu.tolist(), mu.tolist())]
                assert _cell(spec, grid, direction) == _brute_cell(w)

    @pytest.mark.parametrize("fn, N, cell", [
        (experiment_A, 64, (1, 2048)), (experiment_A, 128, (4, 32768)),
        (experiment_A, 256, (4, 8192)), (experiment_A, 512, (2, 8192)),
        (experiment_A, 1024, (4, 4096)),
        (experiment_B, 64, (16, 128)), (experiment_B, 128, (2**53, 256)),
        (experiment_B, 256, (1, 1024)), (experiment_B, 1024, (1, 4096)),
    ], ids=["A-64", "A-128", "A-256", "A-512", "A-1024",
            "B-64", "B-128", "B-256", "B-1024"])
    def test_default_budget_cells(self, fn, N, cell, monkeypatch):
        assert _cell(*_norm_inputs(fn, N, expsum.DEFAULT_BUDGET, monkeypatch)) == cell

    @pytest.mark.parametrize("fn, N", [
        (fn, N) for fn in (experiment_A, experiment_B, experiment_C)
        for N in (64, 128, 256, 512)
    ], ids=[f"{w}-{N}" for w in "ABC" for N in (64, 128, 256, 512)])
    def test_reduced_norm_matches_full_grid(self, fn, N, monkeypatch):
        spec, grid, direction = _norm_inputs(fn, N, SMALL_BUDGET, monkeypatch)
        P, m = _cell(spec, grid, direction)
        m_out, m_in = (grid.Mx, grid.Mt) if direction == "t" else (grid.Mt, grid.Mx)
        swept = _record_sweeps(monkeypatch)
        norm = fn(N, grid_budget=SMALL_BUDGET, seed=1)["norm"]
        monkeypatch.undo()
        ((sub, max_abs),) = swept
        assert GridSpec(**norm["grid"]) == grid
        if m <= m_in:
            assert norm["swept_nodes"] == sub.Mx * sub.Mt == (P if m_out % P == 0 else m_out) * m
        else:
            assert sub == grid
        full = sup_norm_Lp(spec, grid, direction, 4.0)
        assert norm["value"] == pytest.approx(full["value"], rel=1e-12, abs=0)
        full_max = full["argmax"]["abs_f"]
        assert max_abs == pytest.approx(full_max, rel=1e-12, abs=0)
        assert abs(max_abs - full_max) <= 1e-12 * spec.norm_b1()
        x, t = norm["argmax"]["x"], norm["argmax"]["t"]
        k = (x - grid.x_lo) / grid.dx
        l = (t - grid.t_lo) / grid.dt
        assert k == int(k) and 0 <= k < grid.Mx
        assert l == int(l) and 0 <= l < grid.Mt
        got = abs(eval_point(spec, x, t))
        assert abs(got - max_abs) <= 1e-12 * spec.norm_b1()

    def test_irrational_sqrt_N_128_sweeps_a_cell(self):
        norm = experiment_B(128, grid_budget=SMALL_BUDGET, seed=1)["norm"]
        grid = norm["grid"]
        assert norm["swept_nodes"] == grid["Mt"] * 256 < grid["Mx"] * grid["Mt"]

    def test_irrational_sqrt_N_sweeps_full_grid(self):
        norm = experiment_B(512, grid_budget=SMALL_BUDGET, seed=1)["norm"]
        assert norm["swept_nodes"] == norm["grid"]["Mx"] * norm["grid"]["Mt"]

    def test_broken_lattice_vector_sweeps_full_grid(self, sheared_A, monkeypatch):
        N = 64
        spec = sheared_A(N)
        grid = canonical_grid(N, SMALL_BUDGET)
        assert _cell(spec, grid, "t") == (1, 128)
        eta = spec.eta.copy()
        eta[spec.support()[0]] += 2.0**-40
        broken = ExpSumSpec(N=N, xi=spec.xi, eta=eta, b=spec.b)
        assert _cell(broken, grid, "t")[1] > grid.Mt
        swept = _record_sweeps(monkeypatch)
        norm = _sup_norm_L4(broken, grid, "t", threads=None)
        assert norm["swept_nodes"] == grid.Mx * grid.Mt
        full = sup_norm_Lp(broken, grid, "t", 4.0)
        assert swept == [(grid, full["argmax"].pop("abs_f"))]
        assert norm == {**full, "swept_nodes": grid.Mx * grid.Mt}

    @pytest.mark.parametrize("t_hi, Mt, x_hi, Mx, cell", [
        (3.0, 3, 64.0, 256, (1, 512)),  # the inner period, 512 nodes, exceeds Mt
        (512.0, 128, 0.375, 6, (4, 128)),  # the outer period 4 does not divide Mx
    ], ids=["inner-not-closed", "period-not-dividing"])
    def test_grid_without_period(self, t_hi, Mt, x_hi, Mx, cell, sheared_A, monkeypatch):
        spec = sheared_A(64)
        grid = GridSpec(x_lo=0.0, x_hi=x_hi, Mx=Mx, t_lo=0.0, t_hi=t_hi, Mt=Mt)
        assert _cell(spec, grid, "t") == cell
        swept = _record_sweeps(monkeypatch)
        norm = _sup_norm_L4(spec, grid, "t", threads=None)
        assert norm["swept_nodes"] == grid.Mx * grid.Mt
        full = sup_norm_Lp(spec, grid, "t", 4.0)
        assert norm["value"] == pytest.approx(full["value"], rel=1e-12, abs=0)
        ((_, max_abs),) = swept
        assert max_abs == full["argmax"]["abs_f"]

    @pytest.mark.parametrize("fn", [experiment_A, experiment_B, experiment_C],
                             ids=["A", "B", "C"])
    def test_thread_count_invariant(self, fn):
        a, b = (json.dumps(fn(64, grid_budget=SMALL_BUDGET, seed=4, threads=k),
                           sort_keys=True) for k in (1, 2))
        assert a == b


def _swept_spec_and_grid(fn, N, monkeypatch):
    """The spec an experiment sweeps and the whole grid it reports."""
    swept = []

    def spy(spec, grid, *args, **kwargs):
        swept.append(spec)
        return sup_norm_Lp(spec, grid, *args, **kwargs)

    monkeypatch.setattr(experiments, "sup_norm_Lp", spy)
    rep = fn(N, grid_budget=SMALL_BUDGET, seed=1)
    monkeypatch.undo()
    return swept[0], GridSpec(**rep["norm"]["grid"])


class TestClosingGrids:
    """On a closing t-grid, one where every phase t_l eta_n lies on a lattice,
    the anchor x offset row factors stay within a few ulp of the direct
    exponentials, and to the bit on C's N = 64 grid (two terms, every phase a
    multiple of 1/4)."""

    @pytest.mark.parametrize("which, ulps", [("levels-A-64", 8), ("C-64", 0)],
                             ids=["levels-A-64", "C-64"])
    def test_rows_are_direct_exponentials(self, which, ulps, monkeypatch, sheared_A,
                                          direct_factors):
        if which == "C-64":
            spec, grid = _swept_spec_and_grid(experiment_C, 64, monkeypatch)
        else:
            spec, grid = sheared_A(64), canonical_grid(64)
        factors = expsum._t_factors(spec, grid, expsum._anchors(spec, grid))
        got = factors(0, grid.Mt)
        want = direct_factors(spec, grid, 0, grid.Mt)
        b = np.abs(spec.b[spec.support()])
        assert np.all(np.abs(got - want) <= ulps * np.finfo(float).eps * b)
        for s, r in [(0, 1), (37, 100), (grid.Mt - 5, 5)]:
            assert np.array_equal(factors(s, r), got[s:s + r])


@pytest.mark.parametrize("N, band", [(64, 64.0), (128, 30.0), (256, 58.5)])
def test_levels_A_top_band(N, band, sheared_A):
    """The levels-A ops' top dyadic band, as perfbench/reference.json holds it.

    ||b||_1 is a power of two, so the top band holds the nodes where |f|
    reaches it to the last bit (the caveat of expsum._level_report): the measure is set
    by rounding, and the t-factors' anchor spacing moves it (62.0, 30.0 and
    59.0 at _ANCHOR_ROWS = 128).
    """
    report = dyadic_level_report(sheared_A(N), canonical_grid(N), "t")
    assert report["measures"][0] == band


def level_ratio(spec, grid, K):
    """Criterion 8's R: the ladder statistic over its trivial bound (K/N^(2/3))^2.

    max_j a_j^4 |pi_t U_{a_j}| / (N^(7/3) ||b||_2^4) on a_j = ||b||_1 2^-j.
    """
    N = spec.N
    denom = N ** (7.0 / 3.0) * spec.norm_b2() ** 4
    alphas = [spec.norm_b1() * 2.0**-j for j in range(4)]
    S = max(a**4 * level_set_projection(spec, grid, a, "t") / denom for a in alphas)
    return S / (K / N ** (2.0 / 3.0)) ** 2


class TestLevelSetWitness:
    """The shear is what makes the experiment-A witness attain criterion 8's
    bound: on a 64-row t-grid the sheared spec reaches R = 1, the unsheared
    one (shear 0) stays far below it."""

    @pytest.mark.parametrize("N", [64, 128, 256])
    def test_shear_attains_bound_on_coarse_t_grid(self, N):
        c = construct_dirichlet_like(N, 1.0)
        b = _hit_coefficients(c)
        grid = canonical_grid(N, budget=256 * N)
        assert grid.Mt == 64
        R = {}
        for lam in (-1.0 / N**2, 0.0):
            spec = ExpSumSpec(N=N, xi=np.arange(1, N + 1) / N,
                              eta=shear(c, lam).values, b=b)
            R[lam] = level_ratio(spec, grid, len(c.hits))
        assert R[-1.0 / N**2] >= 0.99
        assert R[0.0] <= 0.7


class TestScan:
    def test_alpha_one_slope(self):
        (r,) = intersection_scan([256, 1024, 4096], [1.0])
        assert r["alpha"] == 1.0
        assert r["target"] == pytest.approx(2 / 3)
        assert abs(r["slope"] - r["target"]) <= 0.15

    def test_small_alpha_target(self):
        (r,) = intersection_scan([64, 256, 1024], [0.25])
        assert r["target"] == 0.25
        assert isinstance(r, dict)
        assert r["slope"] > 0
