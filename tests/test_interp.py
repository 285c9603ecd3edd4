"""Tests for the convex C1/C2 interpolation machinery."""

import math

import numpy as np
import pytest

from convexsums import interp
from convexsums.convexseq import construct_dirichlet_like
from convexsums.interp import (
    ConvexInterpolant,
    InterpolationError,
    Knot,
    build_c1,
    knots_from_sequence,
    solve_x_cot_x,
    upgrade_c2,
)
from test_acceptance import _random_knots


def quad_knots(n=5, a=0.7, b=0.3):
    """Knots sampled from f(x) = a*x^2/2 + b*x^3/3 on [1, 2], exact slopes."""
    xs = np.linspace(1.0, 2.0, n)
    return [
        Knot(x=x, y=a * x**2 / 2 + b * x**3 / 3, p=a * x + b * x**2) for x in xs
    ]


class TestSolveXCotX:
    def test_known_value(self):
        assert abs(solve_x_cot_x(0.5) - 1.16556) < 1e-4

    def test_endpoints(self):
        assert abs(solve_x_cot_x(math.pi / 4) - math.pi / 4) < 1e-10
        assert abs(solve_x_cot_x(0.0) - math.pi / 2) < 1e-10

    def test_residual_small(self):
        for y in np.linspace(0.01, math.pi / 4, 25):
            x = solve_x_cot_x(float(y))
            assert abs(x * math.cos(x) / math.sin(x) - y) < 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            solve_x_cot_x(1.0)

    def test_array_matches_scalar_calls(self):
        ys = np.concatenate([np.linspace(0.0, math.pi / 4, 10_000), [math.pi / 4 + 1e-12]])
        got = solve_x_cot_x(ys)
        assert got.shape == ys.shape
        assert got.tolist() == [solve_x_cot_x(y) for y in ys.tolist()]

    @pytest.mark.parametrize("n", [0, 1, 5, 47, 48, 49])
    def test_small_arrays_match_scalar_calls(self, n):
        ys = np.linspace(0.0, math.pi / 4, n)
        got = solve_x_cot_x(ys)
        assert isinstance(got, np.ndarray) and got.shape == (n,)
        assert got.tolist() == [solve_x_cot_x(y) for y in ys.tolist()]

    @pytest.mark.parametrize("n", [9, 100])
    @pytest.mark.parametrize("bad", [-1e-3, 1.0, math.nan])
    def test_array_with_one_out_of_range_raises(self, bad, n):
        ys = np.linspace(0.1, 0.7, n)
        ys[4] = bad
        with pytest.raises(ValueError, match="no root"):
            solve_x_cot_x(ys)


class TestBuildC1:
    def test_symmetric_pair(self):
        f = build_c1([Knot(0, 0, 0), Knot(1, 0.5, 1)])
        left, right = f.pieces
        assert left.x_hi == pytest.approx(0.5)  # split node x0
        assert left.p_hi == pytest.approx(0.5)  # slope there
        val, der, _ = f.eval(0.5)
        assert val == pytest.approx(1 / 8)
        assert der == pytest.approx(0.5)

    def test_asymmetric_pair(self):
        f = build_c1([Knot(0, 0, 0), Knot(1, 1 / 3, 1)])
        left, _ = f.pieces
        # chord 1/3, split ratio 1/2, interior node at 2/3 with slope 1/3
        assert left.x_hi == pytest.approx(2 / 3)
        assert left.p_hi == pytest.approx(1 / 3)

    def test_interpolates(self):
        knots = quad_knots()
        f = build_c1(knots)
        for k in knots:
            val, der, _ = f.eval(k.x)
            assert val == pytest.approx(k.y, abs=1e-14)
            assert der == pytest.approx(k.p, abs=1e-14)

    def test_derivative_nondecreasing(self):
        f = build_c1(quad_knots(n=8))
        x = np.linspace(f.x_min(), f.x_max(), 2000)
        _, fp, _ = f.eval_many(x)
        assert np.all(np.diff(fp) > -1e-12)

    def test_rejects_bad_chord(self):
        # chord slope equals the left prescribed slope: not strictly between
        with pytest.raises(InterpolationError):
            build_c1([Knot(0, 0, 1), Knot(1, 1, 2)])

    def test_rejects_nonincreasing(self):
        with pytest.raises(InterpolationError):
            build_c1([Knot(0, 0, 1), Knot(1, 1, 1)])
        with pytest.raises(InterpolationError):
            build_c1([Knot(0, 0, 0)])


class TestUpgradeC2:
    def test_curvature_floor(self):
        f1 = build_c1(quad_knots(n=6))
        f2 = upgrade_c2(f1)
        assert f2.D == pytest.approx((math.pi / 4) * f1.min_segment_slope())
        x = np.linspace(f2.x_min(), f2.x_max(), 5000)
        _, _, fpp = f2.eval_many(x)
        assert np.all(fpp >= f2.D - 1e-10)

    def test_second_derivative_matches_at_joints(self):
        f2 = upgrade_c2(build_c1(quad_knots(n=6)))
        for piece in f2.pieces:
            for x in (piece.x_lo, piece.x_hi):
                _, _, fpp = f2.eval(min(x, f2.x_max() - 1e-13))
                assert fpp == pytest.approx(f2.D, rel=1e-6)

    def test_still_interpolates(self):
        knots = quad_knots(n=7)
        f2 = upgrade_c2(build_c1(knots))
        for k in knots:
            val, der, _ = f2.eval(k.x)
            assert val == pytest.approx(k.y, abs=1e-13)
            assert der == pytest.approx(k.p, abs=1e-13)

    def test_derivative_continuous(self):
        f2 = upgrade_c2(build_c1(quad_knots(n=6)))
        x = np.linspace(f2.x_min(), f2.x_max(), 4000)
        _, fp, _ = f2.eval_many(x)
        dx = x[1] - x[0]
        # jump in f' at any node would show as a spike versus f'' * dx
        assert np.max(np.abs(np.diff(fp))) < 2.0 * np.max(np.abs(fp)) * dx + 1e-6

    def test_padding(self):
        f2 = upgrade_c2(build_c1(quad_knots()))
        g = f2.with_padding(3.0)
        assert g.x_max() == pytest.approx(3.0)
        val_end, der_end, sec_end = g.eval(3.0)
        # padding keeps f'' = D constant
        assert sec_end == pytest.approx(g.D)
        _, der_joint, sec_joint = g.eval(f2.x_max())
        assert sec_joint == pytest.approx(g.D, rel=1e-6)
        assert der_end == pytest.approx(der_joint + g.D * (3.0 - f2.x_max()))


class TestEval:
    def test_eval_many_matches_scalar(self):
        f = upgrade_c2(build_c1(quad_knots(n=6)))
        xs = np.linspace(f.x_min(), f.x_max(), 37)
        fv, dv, sv = f.eval_many(xs)
        for i, x in enumerate(xs):
            a, b, c = f.eval(float(x))
            assert a == fv[i] and b == dv[i] and c == sv[i]

    def test_out_of_domain(self):
        f = build_c1(quad_knots())
        with pytest.raises(ValueError):
            f.eval(0.5)

    def test_json_roundtrip(self, tmp_path):
        f = upgrade_c2(build_c1(quad_knots(n=5))).with_padding(2.5)
        path = tmp_path / "interp.json"
        f.dump_json(str(path))
        g = ConvexInterpolant.load_json(str(path))
        xs = np.linspace(f.x_min(), f.x_max(), 101)
        for a, b in zip(f.eval_many(xs), g.eval_many(xs)):
            assert np.array_equal(a, b)


def _reference_piece(pc, x: float) -> tuple[float, float, float]:
    """(integral of f' from x_lo, f', f'') at x: the module docstring's
    formulas for one piece, in scalar math."""
    u = x - pc.x_lo
    slope = (pc.p_hi - pc.p_lo) / (pc.x_hi - pc.x_lo)
    if pc.kind == "linear":
        return pc.p_lo * u + 0.5 * slope * u * u, pc.p_lo + slope * u, slope
    a = pc.angle
    m = 0.5 * (pc.x_lo + pc.x_hi)
    h = 0.5 * (pc.x_hi - pc.x_lo)
    amp = (pc.p_hi - pc.p_lo) / (2.0 * math.sin(a))
    mean = 0.5 * (pc.p_lo + pc.p_hi)
    phase = a * (x - m) / h
    return (
        mean * u - (amp / (a / h)) * (math.cos(phase) - math.cos(-a)),
        mean + amp * math.sin(phase),
        slope * (a / math.sin(a)) * math.cos(phase),
    )


def _reference_eval(f: ConvexInterpolant, x: float) -> tuple[float, float, float]:
    """(f, f', f'') at x, one piece at a time in scalar math.

    The piece is the last one with x_lo <= x (the first if none).  f there
    is the knot value at the piece's left end, or else the running sum of
    trapezoid areas since the last knot, plus the piece's integral.
    """
    pieces = f.pieces
    i = max([j for j, pc in enumerate(pieces) if pc.x_lo <= x] or [0])
    y_at = {k.x: k.y for k in f.knots}
    anchor = f.knots[0].y
    for pc in pieces[:i]:
        anchor = y_at.get(pc.x_lo, anchor) + 0.5 * (pc.p_lo + pc.p_hi) * (pc.x_hi - pc.x_lo)
    anchor = y_at.get(pieces[i].x_lo, anchor)
    integral, deriv, second = _reference_piece(pieces[i], x)
    return anchor + integral, deriv, second


class TestArrayKernel:
    """eval_many gathers per-point piece parameters; pin it to scalar math."""

    @staticmethod
    def _interpolants(rng):
        f1 = build_c1(_random_knots(rng))
        f2 = upgrade_c2(f1)
        return f1, f2, f2.with_padding(f2.x_max() + float(rng.uniform(0.1, 2.0)))

    def test_eval_many_bit_identical_to_scalar_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            for f in self._interpolants(rng):
                xs = np.concatenate([
                    np.linspace(f.x_min(), f.x_max(), 41),
                    [pc.x_lo for pc in f.pieces],
                    [k.x for k in f.knots],
                ])
                got = np.column_stack(f.eval_many(xs))
                want = np.array([_reference_eval(f, x) for x in xs.tolist()])
                assert np.array_equal(got, want), f.mode

    def test_piece_methods_bit_identical_to_scalar_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            for f in self._interpolants(rng):
                for pc in f.pieces:
                    x = np.linspace(pc.x_lo, pc.x_hi, 7)
                    got = np.column_stack(
                        [pc.integral_from_lo(x), pc.deriv(x), pc.second(x)]
                    )
                    want = np.array([_reference_piece(pc, v) for v in x.tolist()])
                    assert np.array_equal(got, want)
                    assert pc.deriv(pc.x_hi) == want[-1, 1]

    def test_mixed_pieces_equal_each_piece_alone(self):
        rng = np.random.default_rng(13)
        f = upgrade_c2(build_c1(_random_knots(rng))).with_padding(12.0)
        assert {pc.kind for pc in f.pieces} == {"sinusoid", "linear"}
        xs = np.sort(rng.uniform(f.x_min(), f.x_max(), 500))
        together = f.eval_many(xs)
        idx = np.searchsorted([pc.x_lo for pc in f.pieces], xs, side="right") - 1
        for i in np.unique(idx):
            alone = f.eval_many(xs[idx == i])
            for a, b in zip(together, alone):
                assert np.array_equal(a[idx == i], b)

    def test_pieces_survive_json(self, tmp_path):
        f = upgrade_c2(build_c1(_random_knots(np.random.default_rng(14)))).with_padding(20.0)
        path = tmp_path / "f.json"
        f.dump_json(str(path))
        g = ConvexInterpolant.load_json(str(path))
        assert g.pieces == f.pieces and g.knots == f.knots
        assert (g.mode, g.D, g.pad_end) == (f.mode, f.D, f.pad_end)
        xs = np.concatenate([np.linspace(f.x_min(), f.x_max(), 301),
                             [pc.x_lo for pc in f.pieces]])
        for a, b in zip(f.eval_many(xs), g.eval_many(xs)):
            assert np.array_equal(a, b)

    def test_anchors_built_once_per_construction(self, monkeypatch):
        # build_c1 -> upgrade_c2 -> with_padding -> eval_many: only the
        # interpolant that is evaluated computes its anchors
        calls = []
        real = interp._anchors
        monkeypatch.setattr(interp, "_anchors", lambda *a: calls.append(1) or real(*a))
        construct_dirichlet_like(64, 1.0)
        assert len(calls) == 1


class TestKnotsFromSequence:
    def test_quadratic_sequence(self):
        N = 10
        n = np.arange(1, N + 1)
        a = n / (2 * N) + n**2 / (2 * N**2)
        knots = knots_from_sequence(a, N)
        assert len(knots) == N
        assert knots[0].x == pytest.approx(1 / N)
        assert knots[-1].x == pytest.approx(1.0)
        # slope at i is the exact derivative midpoint for a quadratic
        for i, k in enumerate(knots, start=1):
            assert k.y == pytest.approx(a[i - 1])
            assert k.p == pytest.approx(N * (1 / (2 * N) + i / N**2))
        f = upgrade_c2(build_c1(knots))
        x = np.linspace(f.x_min(), f.x_max(), 1000)
        _, _, fpp = f.eval_many(x)
        assert np.all(fpp > 0)

    def test_rejects_concave(self):
        N = 5
        a = np.sqrt(np.arange(1, N + 1) / N)
        with pytest.raises(InterpolationError):
            knots_from_sequence(a, N)
