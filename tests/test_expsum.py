"""Tests for grid evaluation of exponential sums and their maximal norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsums import expsum
from convexsums.expsum import (
    DEFAULT_BUDGET,
    ExpSumSpec,
    GridSpec,
    LevelSetReport,
    canonical_grid,
    dyadic_level_report,
    eval_grid,
    eval_point,
    level_set_projection,
    sup_norm_Lp,
)


def random_spec(N=64, seed=0, canonical=True, support=None):
    rng = np.random.default_rng(seed)
    xi = np.arange(1, N + 1) / N if canonical else rng.uniform(0, 1, N)
    eta = rng.uniform(0, 4, N)
    b = rng.normal(size=N) + 1j * rng.normal(size=N)
    if support is not None:
        mask = np.zeros(N, dtype=bool)
        mask[support] = True
        b = np.where(mask, b, 0)
    return ExpSumSpec(N=N, xi=xi, eta=eta, b=b)


def constant_spec(c=1.0):
    return ExpSumSpec(N=1, xi=np.zeros(1), eta=np.zeros(1), b=np.array([c]))


def forbid_rows(monkeypatch, name):
    """Make the row function `name` raise, pinning which path a call takes."""

    def refuse(*args):
        raise AssertionError(f"{name} must not run on this spec and grid")

    monkeypatch.setattr(expsum, name, refuse)


class TestEvalPoint:
    def test_constant(self):
        spec = constant_spec()
        for x, t in [(0, 0), (3.7, 12.1), (1e4, 1e6)]:
            assert eval_point(spec, x, t) == pytest.approx(1.0)

    def test_triangle_inequality(self):
        spec = random_spec(N=32, seed=3)
        rng = np.random.default_rng(4)
        b1 = spec.norm_b1()
        for _ in range(50):
            v = eval_point(spec, rng.uniform(0, 32), rng.uniform(0, 32**2))
            assert abs(v) <= b1 * (1 + 1e-12)

    def test_periodicity_in_x(self):
        # with xi_n = n/N the sum is N-periodic in x
        spec = random_spec(N=64, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(40):
            x, t = rng.uniform(0, 64), rng.uniform(0, 64**2)
            a, b = eval_point(spec, x, t), eval_point(spec, x + 64, t)
            assert abs(a - b) <= 1e-9 * spec.norm_b1()

    def test_huge_t_phase_reduction(self):
        # dyadic data at a phase-aligned point: the sum is exactly the count
        N = 256
        b = np.zeros(N)
        hits = [16, 64, 200]
        b[np.array(hits) - 1] = 1.0
        eta = np.zeros(N)
        for n in hits:
            eta[n - 1] = (3 * n) / N - n / N**2  # dyadic
        spec = ExpSumSpec(N=N, xi=np.arange(1, N + 1) / N, eta=eta, b=b)
        v = eval_point(spec, 7.0, 7 * N)  # x*xi + t*eta = 7*3n/N*... integer? no:
        # phase = 7n/N + 7N*(3n/N - n/N^2) = 7n/N + 21n - 7n/N = 21n, an integer
        assert v == pytest.approx(3.0, abs=1e-12)


# bytes of a longdouble that hold its value: the 80-bit x87 format pads to 16
_LD_PAYLOAD = 10 if np.finfo(np.longdouble).nmant == 63 else np.dtype(np.longdouble).itemsize
_LD_EDGES = [
    np.longdouble(v)
    for v in (0.0, -0.0, -1e-30, 1e-30, 0.5, -0.5, 2.5, -2.5, 2.0**63, -(2.0**63))
] + [np.longdouble(2.0**64) + np.longdouble(2)]


def _ld_payload(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint8).reshape(len(a), -1)[:, :_LD_PAYLOAD]


def _ld_value(exp10: float, low: float, neg: bool) -> np.longdouble:
    """+-10^exp10 with bits below double precision filled in from low."""
    hi = np.longdouble(10.0**exp10)
    a = hi + hi * np.longdouble(low) * np.longdouble(2.0**-60)
    return -a if neg else a


class TestFrac:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-30, 18), st.floats(0, 1), st.booleans()),
            min_size=1, max_size=64,
        ),
        st.lists(st.integers(-(2**62), 2**62), max_size=16),
    )
    def test_matches_floor_bitwise(self, terms, halves):
        vals = [_ld_value(*t) for t in terms]
        vals += [np.longdouble(k) + np.longdouble(0.5) for k in halves]
        a = np.array(vals + _LD_EDGES, dtype=np.longdouble)
        got = expsum._frac(a.copy())
        assert got.dtype == np.longdouble
        assert np.array_equal(_ld_payload(got), _ld_payload(a - np.floor(a)))


class TestEvalGrid:
    def test_all_ones_dft_row(self):
        N = 4
        spec = ExpSumSpec(
            N=N, xi=np.arange(1, N + 1) / N, eta=np.zeros(N), b=np.ones(N)
        )
        grid = GridSpec(0.0, 4.0, 4, 0.0, 1.0, 1)
        m = eval_grid(spec, grid)
        assert m.shape == (1, 4)
        assert np.allclose(m[0], [4, 0, 0, 0], atol=1e-12)

    def test_fast_matches_naive_matrix(self, monkeypatch):
        # x on [0, 64) takes the FFT rows, x on [0, 128) the separable product;
        # with dx = 0.5 on both, the first 128 columns share their nodes
        spec = random_spec(N=64, seed=7)
        with monkeypatch.context() as m:
            forbid_rows(m, "_rows_naive")
            fast = eval_grid(spec, GridSpec(0.0, 64.0, 128, 0.0, 4096.0, 32))
        with monkeypatch.context() as m:
            forbid_rows(m, "_rows_fast")
            naive = eval_grid(spec, GridSpec(0.0, 128.0, 256, 0.0, 4096.0, 32))
        assert np.max(np.abs(fast - naive[:, :128])) <= 1e-9 * spec.norm_b1()

    def test_fast_matches_eval_point_seeded_nodes(self, monkeypatch):
        spec = random_spec(N=256, seed=11)
        grid = GridSpec(0.0, 256.0, 1024, 0.0, float(256**2), 64)
        forbid_rows(monkeypatch, "_rows_naive")
        m = eval_grid(spec, grid)
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(0, grid.Mx))
            l = int(rng.integers(0, grid.Mt))
            direct = eval_point(spec, grid.x_lo + k * grid.dx, grid.t_lo + l * grid.dt)
            assert abs(m[l, k] - direct) <= 1e-9 * spec.norm_b1()

    def test_incompatible_grid_falls_back(self, monkeypatch):
        spec = random_spec(N=64, seed=1)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 10.0, 4)  # x range is not [0, N)
        forbid_rows(monkeypatch, "_rows_fast")
        m = eval_grid(spec, grid)
        for l, t in enumerate(grid.t_nodes()):
            for k, x in enumerate(grid.x_nodes()):
                assert abs(m[l, k] - eval_point(spec, x, t)) <= 1e-9 * spec.norm_b1()

    def test_grid_parseval(self):
        spec = random_spec(N=64, seed=13)
        grid = GridSpec(0.0, 64.0, 256, 0.0, float(64**2), 8)
        m = eval_grid(spec, grid)
        b2sq = spec.norm_b2() ** 2
        for row in m:
            assert np.mean(np.abs(row) ** 2) == pytest.approx(b2sq, rel=1e-9)

    def test_determinism_across_thread_counts(self):
        spec = random_spec(N=64, seed=17, support=[3, 10, 40])
        grid = canonical_grid(64, budget=2**15)
        a = eval_grid(spec, grid, threads=1)
        b = eval_grid(spec, grid, threads=4)
        assert np.array_equal(a, b)


class TestSupNorm:
    def test_constant_l4(self):
        spec = constant_spec(2.0)
        grid = GridSpec(0.0, 16.0, 64, 0.0, 256.0, 32)
        res = sup_norm_Lp(spec, grid, "t", 4.0)
        assert res.value == pytest.approx(2.0 * 16**0.25, rel=1e-12)
        assert res.max_abs == pytest.approx(2.0)

    def test_homogeneity(self):
        spec = random_spec(N=32, seed=19)
        doubled = ExpSumSpec(N=32, xi=spec.xi, eta=spec.eta, b=2 * spec.b)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 64)
        a = sup_norm_Lp(spec, grid, "t", 4.0).value
        b = sup_norm_Lp(doubled, grid, "t", 4.0).value
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_monotone_under_inner_refinement(self):
        spec = random_spec(N=32, seed=23)
        values = []
        for Mt in (16, 32, 64, 128):
            grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, Mt)
            values.append(sup_norm_Lp(spec, grid, "t", 4.0).value)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_sup_x_direction(self):
        spec = random_spec(N=32, seed=29)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 32)
        res = sup_norm_Lp(spec, grid, "x", 4.0)
        m = np.abs(eval_grid(spec, grid))
        want = (np.sum(m.max(axis=1) ** 4) * grid.dt) ** 0.25
        assert res.value == pytest.approx(float(want), rel=1e-12)

    def test_argmax_is_consistent(self):
        spec = random_spec(N=32, seed=31)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 32)
        res = sup_norm_Lp(spec, grid, "t", 4.0)
        v = eval_point(spec, res.argmax_x, res.argmax_t)
        assert abs(v) == pytest.approx(res.max_abs, rel=1e-9)

    @pytest.mark.parametrize("direction", ["t", "x"])
    def test_argmax_ties_take_first_node(self, direction):
        # |1 + e(x/2)| = 2 exactly at x = 2, 4, 6, 8 on every t-row, across
        # three row blocks: the first outer node wins, then the first inner
        spec = ExpSumSpec(N=2, xi=np.array([0.0, 0.5]), eta=np.zeros(2), b=np.ones(2))
        grid = GridSpec(0.5, 8.5, 16, 0.0, 600.0, 600)
        res = sup_norm_Lp(spec, grid, direction, 4.0)
        assert res.max_abs == 2.0
        assert (res.argmax_x, res.argmax_t) == (2.0, 0.0)

    def test_p_below_one_rejected(self):
        spec = constant_spec()
        grid = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            sup_norm_Lp(spec, grid, "t", 0.5)

    def test_determinism_across_thread_counts(self):
        spec = random_spec(N=64, seed=37)
        grid = canonical_grid(64, budget=2**16)
        a = sup_norm_Lp(spec, grid, "t", 4.0, threads=1)
        b = sup_norm_Lp(spec, grid, "t", 4.0, threads=3)
        assert a == b


class TestLevelSets:
    def test_constant_in_band(self):
        spec = constant_spec()
        grid = GridSpec(0.0, 16.0, 32, 0.0, 256.0, 16)
        assert level_set_projection(spec, grid, 2.0, "t") == pytest.approx(16.0)
        assert level_set_projection(spec, grid, 0.5, "t") == pytest.approx(0.0)

    def test_measures_bounded_by_domain(self):
        spec = random_spec(N=32, seed=41)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 64)
        for alpha in (0.5, 2.0, 8.0):
            m_t = level_set_projection(spec, grid, alpha, "t")
            m_x = level_set_projection(spec, grid, alpha, "x")
            assert 0.0 <= m_t <= 32.0
            assert 0.0 <= m_x <= 1024.0

    def test_dyadic_report_constant(self):
        # |f| = 1 sits in the single band [1, 2); stat = 16 N / N^{7/3}
        spec = constant_spec()
        N_domain = 16
        grid = GridSpec(0.0, float(N_domain), 32, 0.0, 256.0, 16)
        rep = dyadic_level_report(spec, grid, "t")
        assert rep.alphas[0] == pytest.approx(2.0)
        assert rep.measures[0] == pytest.approx(N_domain)
        assert rep.max_stat == pytest.approx(2.0**4 * N_domain / 1 ** (7 / 3))
        assert all(m == 0 for m in rep.measures[1:])

    def test_dyadic_report_matches_direct_projection(self):
        spec = random_spec(N=32, seed=43)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 64)
        rep = dyadic_level_report(spec, grid, "t")
        for alpha, measure in zip(rep.alphas[:6], rep.measures[:6]):
            assert measure == pytest.approx(
                level_set_projection(spec, grid, alpha, "t")
            )

    def test_ladder_covers_observed_range(self):
        spec = random_spec(N=32, seed=47)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 64)
        rep = dyadic_level_report(spec, grid, "t")
        assert rep.alphas[0] >= rep.max_abs
        assert len(rep.alphas) >= 40

    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            ExpSumSpec(N=2, xi=np.zeros(2), eta=np.zeros(2), b=np.zeros(2))

    def test_b2_fourth_power_underflow_rejected(self):
        spec = ExpSumSpec(N=2, xi=np.array([0.5, 1.0]), eta=np.zeros(2),
                          b=np.array([1e-100, 0.0]))
        grid = GridSpec(0.0, 2.0, 8, 0.0, 4.0, 16)
        with pytest.raises(ValueError, match=r"\|\|b\|\|_2\^4 = 0.0"):
            dyadic_level_report(spec, grid, "t")


class TestExpSumSpec:
    @pytest.mark.parametrize("name", ["xi", "eta", "b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, bad):
        fields = {"xi": np.arange(1, 5) / 4, "eta": np.zeros(4), "b": np.ones(4)}
        fields[name] = fields[name].copy()
        fields[name][1] = bad
        with pytest.raises(ValueError, match=name):
            ExpSumSpec(N=4, **fields)


class TestGridSpec:
    def test_canonical_budget_cap(self):
        g = canonical_grid(64)
        assert g.Mx == 256 and g.Mt == 16384  # 4N^2 = 16384 < budget cap
        g = canonical_grid(256)
        assert g.Mx == 1024 and g.Mt == DEFAULT_BUDGET // 1024

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, 4, 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0, 0.0, 1.0, 4)

    def test_right_open_nodes(self):
        g = GridSpec(0.0, 4.0, 4, 0.0, 2.0, 2)
        assert np.array_equal(g.x_nodes(), [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(g.t_nodes(), [0.0, 1.0])
