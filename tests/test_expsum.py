"""Tests for grid evaluation of exponential sums and their maximal norms."""

import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsums import expsum
from convexsums.expsum import (
    DEFAULT_BUDGET,
    ExpSumSpec,
    GridSpec,
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


def zero_spec():
    """f = e(x/2) - e(x/2): |f| is 0.0 at every node."""
    return ExpSumSpec(N=2, xi=np.array([0.5, 0.5]), eta=np.zeros(2), b=np.array([1.0, -1.0]))


def bits(v: complex) -> tuple[str, str]:
    """The exact bits of a complex, signed zeros included."""
    return v.real.hex(), v.imag.hex()


def t_factors(spec, grid):
    """The sweep's t-factors, factors(s, r), off a fresh anchor column."""
    return expsum._t_factors(spec, grid, expsum._anchors(spec, grid))


def period_rows(spec, grid):
    """The sweep's R for spec and grid."""
    return expsum._period_rows(expsum._anchors(spec, grid), grid.Mt)


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

    def test_arrays_match_scalar_calls_bitwise(self):
        spec = random_spec(N=128, seed=8, canonical=False)
        rng = np.random.default_rng(9)
        xs, ts = rng.uniform(0, 128, 200), rng.uniform(0, 128**2, 200)
        assert [bits(v) for v in eval_point(spec, xs, ts)] == [
            bits(eval_point(spec, float(x), float(t))) for x, t in zip(xs, ts)
        ]

    def test_compensated_sum(self):
        # a plain float sum of 1e16 + 1 - 1e16 loses the 1
        b = np.array([1e16, 1.0, -1e16])
        spec = ExpSumSpec(N=3, xi=np.zeros(3), eta=np.zeros(3), b=b)
        assert eval_point(spec, 0.0, 0.0) == 1.0
        assert eval_point(spec, np.zeros(2), np.ones(2)) == [1.0, 1.0]

    def test_float_input_gives_complex(self):
        spec = random_spec(N=16, seed=10)
        assert type(eval_point(spec, 1.5, 2.25)) is complex
        assert type(eval_point(spec, np.float64(1.5), np.float64(2.25))) is complex
        (v,) = eval_point(spec, np.array([1.5]), np.array([2.25]))
        assert bits(v) == bits(eval_point(spec, 1.5, 2.25))

    @pytest.mark.parametrize("x, t", [
        (np.zeros(3), np.zeros(4)),
        (0.0, np.zeros(2)),
        (np.zeros((2, 2)), np.zeros((2, 2))),
    ], ids=["unequal-length", "float-and-array", "two-dimensional"])
    def test_mismatched_arrays_rejected(self, x, t):
        with pytest.raises(ValueError, match="equal length"):
            eval_point(random_spec(N=16, seed=11), x, t)


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

    @pytest.mark.parametrize(
        "N, Mx, support",
        [(64, 256, None), (256, 1024, [0, 5, 200, 255]), (100, 64, None), (96, 8, None)],
    )
    def test_fast_rows_bitwise_at_power_of_two_mx(self, N, Mx, support):
        # the rows as a 2-D scatter of the t-factors then Mx times the
        # normalised inverse DFT; at power-of-two Mx the 1/Mx and Mx scalings
        # are exact, so the unnormalised inverse DFT gives the same bits
        # (Mx < N: folds collide)
        spec = random_spec(N=N, seed=N, support=support)
        grid = GridSpec(0.0, float(N), Mx, 0.0, float(N * N), 300)
        t_index = np.arange(37, 293)
        idx = spec.support()
        vals = t_factors(spec, grid)(37, len(t_index))
        c = np.zeros((len(t_index), Mx), dtype=complex)
        np.add.at(c, (np.arange(len(t_index))[:, None], (idx + 1)[None, :] % Mx), vals)
        want = Mx * np.fft.ifft(c, axis=1)
        out = np.full((len(t_index), Mx), np.nan, dtype=complex)  # every entry is written
        assert expsum._rows_fast(spec, grid, expsum._anchors(spec, grid))(37, out) is out
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("N, Mx", [(64, 16), (100, 7), (256, 60)])
    def test_fast_rows_colliding_folds(self, monkeypatch, N, Mx):
        # Mx < N folds several n onto one DFT bin, and the bin sums them all
        spec = random_spec(N=N, seed=N + Mx)
        grid = GridSpec(0.0, float(N), Mx, 3.0, 3.0 + N * N, 40)
        forbid_rows(monkeypatch, "_rows_naive")
        m = eval_grid(spec, grid)
        xs = grid.x_lo + np.arange(grid.Mx) * grid.dx
        ts = grid.t_lo + np.arange(grid.Mt) * grid.dt
        for l, t in enumerate(ts):
            for k, x in enumerate(xs):
                assert abs(m[l, k] - eval_point(spec, x, t)) <= 1e-9 * spec.norm_b1()

    def test_incompatible_grid_falls_back(self, monkeypatch):
        spec = random_spec(N=64, seed=1)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 10.0, 4)  # x range is not [0, N)
        forbid_rows(monkeypatch, "_rows_fast")
        m = eval_grid(spec, grid)
        xs = grid.x_lo + np.arange(grid.Mx) * grid.dx
        ts = grid.t_lo + np.arange(grid.Mt) * grid.dt
        for l, t in enumerate(ts):
            for k, x in enumerate(xs):
                assert abs(m[l, k] - eval_point(spec, x, t)) <= 1e-9 * spec.norm_b1()

    def test_grid_parseval(self):
        spec = random_spec(N=64, seed=13)
        grid = GridSpec(0.0, 64.0, 256, 0.0, float(64**2), 8)
        m = eval_grid(spec, grid)
        b2sq = spec.norm_b2() ** 2
        for row in m:
            assert np.mean(np.abs(row) ** 2) == pytest.approx(b2sq, rel=1e-9)

    def test_determinism_across_thread_counts(self, pools):
        spec = random_spec(N=64, seed=17, support=[3, 10, 40])
        grid = canonical_grid(64, budget=2**18)
        a = eval_grid(spec, grid, threads=1)
        b = eval_grid(spec, grid, threads=4)
        assert np.array_equal(a, b)
        assert pools == [4]


class TestTFactors:
    """Row l = qH + j of the t-factors is the anchor b e(t_{qH} eta) times
    the offset e(j dt eta)."""

    # Mt = 512 rows of step 128: every direct product l dt eta fits the
    # 64-bit longdouble mantissa, so the two sides differ by the factoring
    # alone, two rounded exponentials and one product against one
    SPEC, GRID = random_spec(N=256, seed=1), canonical_grid(256, budget=2**19)

    def test_near_direct_exponentials(self, monkeypatch, sheared_A, direct_factors):
        assert self.GRID.Mt == 512
        # the levels-A grid at N = 64 puts every phase on the lattice 1/Mt
        for spec, grid in [(self.SPEC, self.GRID), (sheared_A(64), canonical_grid(64))]:
            got = t_factors(spec, grid)(0, grid.Mt)
            want = direct_factors(spec, grid, 0, grid.Mt)
            b = np.abs(spec.b[spec.support()])
            assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * b)
        spec, grid = self.SPEC, self.GRID
        f = eval_grid(spec, grid)
        monkeypatch.setattr(expsum, "_t_factors",
                            lambda spec, grid, anchors:
                            functools.partial(direct_factors, spec, grid))
        assert np.max(np.abs(f - eval_grid(spec, grid))) <= 2 * np.spacing(spec.norm_b1())

    def test_rows_do_not_depend_on_the_block(self):
        factors = t_factors(self.SPEC, self.GRID)
        whole = factors(0, self.GRID.Mt)
        for s, r in [(0, 1), (63, 2), (64, 64), (100, 200), (511, 1)]:
            assert np.array_equal(factors(s, r), whole[s:s + r])

    def test_phases_reduced_per_anchor_not_per_row(self, monkeypatch):
        # 48-row blocks straddle the 64-row anchors; the sweep reduces the
        # anchors of each block, the H-row offset table once, and no
        # per-(row, term) phase
        spec = random_spec(N=64, seed=3)
        grid = canonical_grid(64, budget=2**18)
        assert grid.Mt == 1024
        K, H = len(spec.support()), expsum._ANCHOR_ROWS
        real, phases = expsum._frac, []

        def counting(a):
            phases.append(a.size)
            return real(a)

        monkeypatch.setattr(expsum, "_frac", counting)
        monkeypatch.setattr(expsum, "_BLOCK_NODES", 48 * grid.Mx)
        blocks = math.ceil(grid.Mt / 48)
        sup_norm_Lp(spec, grid, "t", 4.0, threads=1, with_levels=True)
        assert sum(phases) <= (math.ceil(grid.Mt / H) + 2 * blocks + H) * K < grid.Mt * K


class TestPeriodRows:
    """A sweep evaluates rows [0, R), R = _period_rows, and reuses row l mod R
    for every row l >= R."""

    @staticmethod
    def results(spec, grid, threads):
        # eval_grid on the same t-nodes with 64 x-nodes keeps the matrix small
        narrow = GridSpec(0.0, float(spec.N), 64, grid.t_lo, grid.t_hi, grid.Mt)
        out = [eval_grid(spec, narrow, threads).tobytes()]
        for d in ("t", "x"):
            norm, levels = sup_norm_Lp(spec, grid, d, 4.0, threads, with_levels=True)
            out.append(json.dumps([norm, levels]))
            out.append(repr(level_set_projection(spec, grid, spec.norm_b1() / 2, d, threads)))
        return out

    @pytest.mark.parametrize("N, R", [(64, 2048), (256, 8192)])
    def test_period_sweep_is_the_whole_grid_sweep(self, monkeypatch, sheared_A, N, R):
        # the levels-A specs: the anchors repeat bit for bit after R rows
        spec, grid = sheared_A(N), canonical_grid(N)
        assert period_rows(spec, grid) == R < grid.Mt
        got = [self.results(spec, grid, threads) for threads in (1, 2)]
        monkeypatch.setattr(expsum, "_period_rows", lambda anchors, Mt: Mt)
        want = self.results(spec, grid, 1)
        assert got == [want, want]

    def test_no_period_sweeps_every_row(self, sheared_A):
        # Mt <= H: one anchor, no shift to test
        for spec, grid in [(sheared_A(128), canonical_grid(128)),
                           (random_spec(N=64, seed=3), canonical_grid(64)),
                           (sheared_A(64), GridSpec(0.0, 64.0, 256, 0.0, 4096.0, 1)),
                           (sheared_A(64), GridSpec(0.0, 64.0, 256, 0.0, 4096.0, 64))]:
            assert period_rows(spec, grid) == grid.Mt

    def test_rows_repeat_their_period(self, sheared_A):
        spec, grid = sheared_A(64), canonical_grid(64)
        factors = t_factors(spec, grid)(0, grid.Mt).view(np.int64)
        R = period_rows(spec, grid)
        assert np.array_equal(factors, np.resize(factors[:R], factors.shape))

    def test_one_anchor_column_per_sweep(self, monkeypatch):
        # eta_1 = 0 repeats the first term's anchors, so _period_rows reads the
        # whole column, which _t_factors reads too: one build serves both
        rng = np.random.default_rng(5)
        eta = np.r_[0.0, rng.uniform(0, 4, 63)]
        spec = ExpSumSpec(N=64, xi=np.arange(1, 65) / 64, eta=eta, b=rng.normal(size=64))
        grid = canonical_grid(64, budget=2**18)
        real, widths = expsum._anchors, []

        def counting(spec, grid, *idx):
            a = real(spec, grid, *idx)
            widths.append(a.shape[1])
            return a

        monkeypatch.setattr(expsum, "_anchors", counting)
        sup_norm_Lp(spec, grid, "t", 4.0, threads=1)
        assert widths.count(64) == 1
        assert period_rows(spec, grid) == grid.Mt


class TestBlocks:
    def test_block_rows(self):
        heights = [expsum._block_rows(Mx) for Mx in (4, 512, 1024, 4096, 2**17, 2**18)]
        assert heights == [256, 256, 128, 32, 1, 1]

    def test_separable_products_stay_off_blas_threads(self, monkeypatch):
        # OpenBLAS threads a complex product of m n k >= 2^16: at K = 2 and
        # Mx = 256 a separable block holds 127 rows, not 256
        spec = random_spec(N=64, seed=5, canonical=False, support=[3, 40])
        grid = GridSpec(0.0, 64.0, 256, 0.0, 4096.0, 1000)
        sizes, matmul = [], np.matmul

        def spy(a, b, *args, **kwargs):
            sizes.append(a.shape[0] * a.shape[1] * b.shape[1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        for d in ("t", "x"):
            sup_norm_Lp(spec, grid, d, 4.0, threads=2, with_levels=True)
        assert max(sizes) == 127 * 2 * 256 < 2**16
        assert [expsum._block_rows(Mx, K) for Mx, K in [(256, 2), (4, 8), (128, 32), (4096, 8),
                                                         (2**18, 2)]] == [127, 256, 15, 2, 1]

    @pytest.mark.parametrize("canonical", [True, False], ids=["fft", "separable"])
    def test_partition_does_not_change_results(self, monkeypatch, pools, canonical):
        # _BLOCK_NODES = 2**10, 2**17, 2**24 make FFT blocks of 8, 256, 256
        # rows at Mx = 128 (Mt = 1030: the last block 6 rows) and of 1, 109,
        # 110 rows at Mx = 1200 (Mt = 110: the last block 1 row at 2**17);
        # separable blocks (K = 32) hold 8, 15, 15 and 1, 2, 2 rows; both
        # grids hold more than 2**17 nodes, so two threads start a pool
        # unless _BLOCK_NODES is 2**24
        spec = random_spec(N=32, seed=43, canonical=canonical)
        grids = [GridSpec(0.0, 32.0, 128, 0.0, 1024.0, 1030),
                 GridSpec(0.0, 32.0, 1200, 5.0, 1029.0, 110)]

        def results(grid, threads):
            out = [eval_grid(spec, grid, threads).tobytes()]
            for d in ("t", "x"):
                norm, levels = sup_norm_Lp(spec, grid, d, 4.0, threads, with_levels=True)
                out.append(json.dumps([norm, levels]))
                out.append(repr([level_set_projection(spec, grid, a, d, threads)
                                 for a in (2.0, 16.0)]))
            return out

        for grid in grids:
            want = results(grid, 1)
            for nodes in (2**10, 2**17, 2**24):
                monkeypatch.setattr(expsum, "_BLOCK_NODES", nodes)
                for threads in (1, 2):
                    started = len(pools)
                    assert results(grid, threads) == want
                    assert (len(pools) > started) == (threads == 2 and nodes < 2**24)

    def test_at_most_one_worker_per_block(self, monkeypatch, pools):
        # 4 blocks of 256 rows: a huge thread count starts 4 workers on 64
        # CPUs (the pools fixture), and 2 on 2 CPUs
        spec = random_spec(N=64, seed=17, support=[3, 10, 40])
        grid = canonical_grid(64, budget=2**18)
        want = eval_grid(spec, grid, 1)
        assert np.array_equal(eval_grid(spec, grid, threads=10**6), want)
        assert pools == [4]
        monkeypatch.setattr(expsum.os, "sched_getaffinity", lambda pid: {0, 1})
        assert np.array_equal(eval_grid(spec, grid, threads=10**6), want)
        assert pools == [4, 2]


class TestThreads:
    def test_default_is_the_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(expsum.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(expsum.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert expsum._threads(None) == 3
        assert expsum._threads(5) == 3  # an explicit count is clamped too
        assert expsum._threads(2) == 2
        monkeypatch.setattr(expsum.os, "sched_getaffinity", lambda pid: set(range(12)))
        assert expsum._threads(None) == 8

    def test_default_without_affinity_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(expsum.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(expsum.os, "cpu_count", lambda: 5)
        assert expsum._threads(None) == 5

    def test_caller_threads_sweep_at_once(self):
        # a sweep keeps its tables to itself: two callers, one on FFT rows and
        # one on separable rows, each sweeping in a pool, get the bits of the
        # same calls made one after another
        jobs = [(random_spec(N=64, seed=5), canonical_grid(64, budget=2**18)),
                (random_spec(N=32, seed=6, canonical=False),
                 GridSpec(0.0, 32.0, 128, 0.0, 1024.0, 1100))]

        def sweeps(spec, grid, repeats):
            return [json.dumps(sup_norm_Lp(spec, grid, d, 4.0, 2, with_levels=True))
                    for _ in range(repeats) for d in ("t", "x")]

        want = [sweeps(spec, grid, 4) for spec, grid in jobs]
        with ThreadPoolExecutor(2) as ex:
            got = list(ex.map(lambda job: sweeps(*job, 4), jobs))
        assert got == want


class TestSupNorm:
    def test_constant_l4(self):
        spec = constant_spec(2.0)
        grid = GridSpec(0.0, 16.0, 64, 0.0, 256.0, 32)
        res = sup_norm_Lp(spec, grid, "t", 4.0)
        assert res["value"] == pytest.approx(2.0 * 16**0.25, rel=1e-12)
        assert res["argmax"]["abs_f"] == pytest.approx(2.0)

    def test_homogeneity(self):
        spec = random_spec(N=32, seed=19)
        doubled = ExpSumSpec(N=32, xi=spec.xi, eta=spec.eta, b=2 * spec.b)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 64)
        a = sup_norm_Lp(spec, grid, "t", 4.0)["value"]
        b = sup_norm_Lp(doubled, grid, "t", 4.0)["value"]
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_monotone_under_inner_refinement(self):
        spec = random_spec(N=32, seed=23)
        values = []
        for Mt in (16, 32, 64, 128):
            grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, Mt)
            values.append(sup_norm_Lp(spec, grid, "t", 4.0)["value"])
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_sup_x_direction(self):
        spec = random_spec(N=32, seed=29)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 32)
        res = sup_norm_Lp(spec, grid, "x", 4.0)
        m = np.abs(eval_grid(spec, grid))
        want = (np.sum(m.max(axis=1) ** 4) * grid.dt) ** 0.25
        assert res["value"] == pytest.approx(float(want), rel=1e-12)

    def test_argmax_is_consistent(self):
        spec = random_spec(N=32, seed=31)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 32)
        res = sup_norm_Lp(spec, grid, "t", 4.0)
        v = eval_point(spec, res["argmax"]["x"], res["argmax"]["t"])
        assert abs(v) == pytest.approx(res["argmax"]["abs_f"], rel=1e-9)

    @pytest.mark.parametrize("direction", ["t", "x"])
    def test_argmax_ties_take_first_node(self, direction):
        # |1 + e(x/2)| = 2 exactly at x = 2, 4, 6, 8 on every t-row, across
        # three row blocks: the first outer node wins, then the first inner
        spec = ExpSumSpec(N=2, xi=np.array([0.0, 0.5]), eta=np.zeros(2), b=np.ones(2))
        grid = GridSpec(0.5, 8.5, 16, 0.0, 600.0, 600)
        res = sup_norm_Lp(spec, grid, direction, 4.0)
        assert res["argmax"]["abs_f"] == 2.0
        assert (res["argmax"]["x"], res["argmax"]["t"]) == (2.0, 0.0)

    @staticmethod
    def first_max(spec, grid, direction):
        """(x, t, abs_f) of the first maximum of |eval_grid|,
        outer node first, then inner."""
        a = np.abs(eval_grid(spec, grid, threads=1))
        by_outer = a.T if direction == "t" else a
        outer = int(np.argmax(by_outer.max(axis=1)))
        inner = int(np.argmax(by_outer[outer]))
        k, l = (outer, inner) if direction == "t" else (inner, outer)
        return grid.x_lo + k * grid.dx, grid.t_lo + l * grid.dt, float(a[l, k])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("direction", ["t", "x"])
    @pytest.mark.parametrize("canonical", [True, False], ids=["fft", "separable"])
    def test_argmax_is_the_first_grid_maximum(self, monkeypatch, pools, canonical,
                                              direction, threads):
        # 19 blocks of 16 rows; the maximum lies past block 0, whose own
        # maximum is lower
        spec = random_spec(N=32, seed=41, canonical=canonical)
        grid = GridSpec(0.0, 32.0, 128, 0.0, 1024.0, 300)
        monkeypatch.setattr(expsum, "_BLOCK_NODES", 16 * grid.Mx)
        a = np.abs(eval_grid(spec, grid, threads=1))
        assert a[:16].max() < a.max()
        res = sup_norm_Lp(spec, grid, direction, 4.0, threads)
        assert pools == [2] * (threads - 1)
        top = res["argmax"]
        assert (top["x"], top["t"], top["abs_f"]) == self.first_max(spec, grid, direction)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("direction", ["t", "x"])
    def test_argmax_merges_tied_blocks(self, monkeypatch, pools, direction, threads):
        # 8 blocks of 8 rows written from a fixed |f|: block 0's maximum is 4;
        # 5 is reached in block 1 at x-node 6 (row 10, and x-node 7 too), then
        # at x-node 1 in block 3 (rows 28 and 30) and in block 5 (row 45).  The
        # first maximum is x-node 1 at row 28 with t inner, row 10 at x-node 6
        # with x inner.  A merge that takes the last block, or the first node
        # of the first block at the maximum, reads another node
        f = np.zeros((64, 8), dtype=complex)
        f[:8] = 1.0
        f[3, 2] = 4.0
        f[10, 6] = f[10, 7] = f[28, 1] = f[30, 1] = f[45, 1] = 5.0
        spec = random_spec(N=8, seed=1)
        grid = GridSpec(0.0, 8.0, 8, 0.0, 64.0, 64)

        def writer(spec, grid, anchors):
            def rows(s, out):
                out[:] = f[s:s + len(out)]
                return out
            return rows

        for name in ("_rows_fast", "_rows_naive"):
            monkeypatch.setattr(expsum, name, writer)
        monkeypatch.setattr(expsum, "_BLOCK_NODES", 8 * grid.Mx)
        res = sup_norm_Lp(spec, grid, direction, 4.0, threads)
        assert pools == [2] * (threads - 1)
        want = (1.0, 28.0, 5.0) if direction == "t" else (6.0, 10.0, 5.0)
        top = res["argmax"]
        assert (top["x"], top["t"], top["abs_f"]) == want
        assert self.first_max(spec, grid, direction) == want

    def test_p_below_one_rejected(self):
        spec = constant_spec()
        grid = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            sup_norm_Lp(spec, grid, "t", 0.5)

    def test_determinism_across_thread_counts(self, pools):
        spec = random_spec(N=64, seed=37)
        grid = canonical_grid(64, budget=2**18)
        a = sup_norm_Lp(spec, grid, "t", 4.0, threads=1)
        b = sup_norm_Lp(spec, grid, "t", 4.0, threads=3)
        assert a == b
        assert pools == [3]


class TestLevelSets:
    def test_constant_in_band(self):
        spec = constant_spec()
        grid = GridSpec(0.0, 16.0, 32, 0.0, 256.0, 16)
        assert level_set_projection(spec, grid, 2.0, "t") == pytest.approx(16.0)
        assert level_set_projection(spec, grid, 0.5, "t") == pytest.approx(0.0)

    @pytest.mark.parametrize("alpha, measure", [
        (1.5, 16.0), (2.0, 16.0), (math.nextafter(2.0, 0), 16.0),
        (math.nextafter(1.0, 3), 16.0), (1.0, 0.0), (3.0, 0.0), (math.nextafter(2.0, 3), 0.0),
    ])
    def test_band_edges(self, alpha, measure):
        # |f| = 1 lies in [alpha/2, alpha) exactly when 1 < alpha <= 2
        grid = GridSpec(0.0, 16.0, 32, 0.0, 256.0, 16)
        assert level_set_projection(constant_spec(), grid, alpha, "t") == measure

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0, 0.0, 5e-324, 2.0**-1022])
    def test_alpha_out_of_range_rejected(self, alpha):
        # at 5e-324 the band [alpha/2, alpha) rounded to [0, 5e-324) and took
        # every zero of f: the whole domain
        grid = GridSpec(0.0, 2.0, 8, 0.0, 4.0, 16)
        with pytest.raises(ValueError, match="alpha"):
            level_set_projection(zero_spec(), grid, alpha, "t")

    def test_unknown_direction_rejected(self):
        grid = GridSpec(0.0, 16.0, 32, 0.0, 256.0, 16)
        for call in (lambda: level_set_projection(constant_spec(), grid, 2.0, "y"),
                     lambda: dyadic_level_report(constant_spec(), grid, "y"),
                     lambda: sup_norm_Lp(constant_spec(), grid, "y", 4.0)):
            with pytest.raises(ValueError, match="direction must be 't' or 'x'"):
                call()

    def test_zero_sum_has_no_level_sets(self):
        grid = GridSpec(0.0, 2.0, 8, 0.0, 4.0, 16)
        for d in ("t", "x"):
            assert level_set_projection(zero_spec(), grid, 2.0**-1021, d) == 0.0
        rep = dyadic_level_report(zero_spec(), grid, "t")
        assert rep["measures"] == [0.0] and rep["max_abs_f"] == 0.0

    def test_top_band_just_below_power_of_two(self):
        # |f| = nextafter(64, 0) lies in [32, 64); log2 of it rounds to 6.0
        spec = ExpSumSpec(N=1, xi=[1.0], eta=[0.0], b=[math.nextafter(64.0, 0.0)])
        rep = dyadic_level_report(spec, GridSpec(0.0, 1.0, 4, 0.0, 1.0, 4), "t")
        assert rep["alphas"][:2] == [64.0, 32.0]
        assert rep["measures"][:2] == [1.0, 0.0]

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
        assert rep["alphas"][0] == pytest.approx(2.0)
        assert rep["measures"][0] == pytest.approx(N_domain)
        assert rep["max_stat"] == pytest.approx(2.0**4 * N_domain / 1 ** (7 / 3))
        assert all(m == 0 for m in rep["measures"][1:])

    def test_dyadic_report_matches_direct_projection(self, band_measure):
        spec = random_spec(N=32, seed=43)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 64)
        rep = dyadic_level_report(spec, grid, "t")
        for alpha, measure in zip(rep["alphas"][:6], rep["measures"][:6]):
            assert measure == pytest.approx(
                level_set_projection(spec, grid, alpha, "t")
            )
            assert measure == band_measure(spec, grid, alpha, "t")

    def test_bottom_band_holds_only_its_band(self, band_measure):
        # f = 1e-15 (e(x/4) + e(3x/4 + t (1/2 + 1/3))) after an exact cancellation:
        # max |f| ~ 2e-15 puts the report's last band at its lowest, [2^-60,
        # 2^-59) for ||b||_1 just above 2, and 44 nonzero nodes lie below it
        spec = ExpSumSpec(N=4, xi=np.array([0.5, 0.5, 0.25, 0.75]),
                          eta=np.array([1.0, 1.0, 0.0, 0.5 + 1 / 3]),
                          b=np.array([1.0, -1.0, 1e-15, 1e-15]))
        grid = GridSpec(0.0, 4.0, 64, 0.0, 16.0, 4096)
        rep = dyadic_level_report(spec, grid, "t")
        assert rep["alphas"][-1] == 2.0**-59
        for alpha, measure in zip(rep["alphas"], rep["measures"]):
            assert measure == band_measure(spec, grid, alpha, "t")

    def test_ladder_covers_observed_range(self):
        spec = random_spec(N=32, seed=47)
        grid = GridSpec(0.0, 32.0, 64, 0.0, 1024.0, 64)
        rep = dyadic_level_report(spec, grid, "t")
        assert rep["alphas"][0] >= rep["max_abs_f"]
        assert len(rep["alphas"]) >= 40

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

    @pytest.mark.parametrize("name", ["xi", "eta", "b"])
    def test_short_field_rejected(self, name):
        fields = {"xi": np.arange(1, 5) / 4, "eta": np.zeros(4), "b": np.ones(4)}
        fields[name] = fields[name][:3]
        with pytest.raises(ValueError, match="length N"):
            ExpSumSpec(N=4, **fields)

    def test_equality_and_hash_are_identity(self):
        # array fields: a field-wise == or hash would raise for N >= 2
        def spec():
            return ExpSumSpec(N=2, xi=np.array([0.5, 1.0]), eta=np.zeros(2), b=np.ones(2))

        a, b = spec(), spec()
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert hash(a) == hash(a)
        assert {a: "a", b: "b"}[b] == "b"

    def test_caller_arrays_stay_writable(self):
        xi, eta, b = np.array([0.5, 1.0]), np.zeros(2), np.ones(2, dtype=complex)
        spec = ExpSumSpec(N=2, xi=xi, eta=eta, b=b)
        for name, arr in (("xi", xi), ("eta", eta), ("b", b)):
            assert arr.flags.writeable, name
            arr[0] = 7
            assert getattr(spec, name)[0] != 7, name
            assert not getattr(spec, name).flags.writeable, name

    def test_non_1d_rejected(self):
        # length N along the first axis: the length check alone lets it through
        with pytest.raises(ValueError, match="xi must be 1-D"):
            ExpSumSpec(N=4, xi=[[0.25, 0.5]] * 4, eta=np.zeros(4), b=np.ones(4))


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
        assert np.array_equal(g.x_lo + np.arange(g.Mx) * g.dx, [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(g.t_lo + np.arange(g.Mt) * g.dt, [0.0, 1.0])
