"""Tests for the convex C1/C2 interpolation machinery."""

import json
import math
from functools import cached_property

import numpy as np
import pytest

from convexsums.convexseq import construct_dirichlet_like
from convexsums.interp import (
    ConvexInterpolant,
    InterpolationError,
    _eval_pieces,
    _slope,
    build_c1,
    knots_from_sequence,
    solve_x_cot_x,
    upgrade_c2,
)
from test_acceptance import _random_knots


def quad_knots(n=5, a=0.7, b=0.3):
    """(x, y, p) knots sampled from f(x) = a*x^2/2 + b*x^3/3 on [1, 2], exact slopes."""
    xs = np.linspace(1.0, 2.0, n).tolist()
    return [(x, a * x**2 / 2 + b * x**3 / 3, a * x + b * x**2) for x in xs]


def _at(f, x):
    """(f, f', f'') at the single point x."""
    return tuple(float(v[0]) for v in f.eval_many(np.array([x])))


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

    def test_within_8_ulp_of_longdouble_bisection(self):
        ys = np.linspace(0.0, math.pi / 4, 10_001)
        y = ys.astype(np.longdouble)
        # the bracket holds every root, also those just past the float pi/4, pi/2
        lo = np.full(y.shape, np.longdouble(0.75))
        hi = np.full(y.shape, np.longdouble(1.6))
        for _ in range(80):
            mid = (lo + hi) / 2
            above = mid * np.cos(mid) / np.sin(mid) > y
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        ref = (lo + hi) / 2
        err = np.abs(solve_x_cot_x(ys).astype(np.longdouble) - ref)
        assert np.all(err <= 8 * np.spacing(ref.astype(float)))

    @pytest.mark.parametrize("n", [9, 100])
    @pytest.mark.parametrize("bad", [-1e-3, 1.0, math.nan])
    def test_array_with_one_out_of_range_raises(self, bad, n):
        ys = np.linspace(0.1, 0.7, n)
        ys[4] = bad
        with pytest.raises(ValueError, match="no root"):
            solve_x_cot_x(ys)


class TestBuildC1:
    def test_symmetric_pair(self):
        f = build_c1([(0, 0, 0), (1, 0.5, 1)])
        left, right = f.pieces
        assert left["x_hi"] == pytest.approx(0.5)  # split node x0
        assert left["p_hi"] == pytest.approx(0.5)  # slope there
        val, der, _ = _at(f, 0.5)
        assert val == pytest.approx(1 / 8)
        assert der == pytest.approx(0.5)

    def test_asymmetric_pair(self):
        f = build_c1([(0, 0, 0), (1, 1 / 3, 1)])
        left, _ = f.pieces
        # chord 1/3, split ratio 1/2, interior node at 2/3 with slope 1/3
        assert left["x_hi"] == pytest.approx(2 / 3)
        assert left["p_hi"] == pytest.approx(1 / 3)

    def test_interpolates(self):
        knots = quad_knots()
        f = build_c1(knots)
        for x, y, p in knots:
            val, der, _ = _at(f, x)
            assert val == pytest.approx(y, abs=1e-14)
            assert der == pytest.approx(p, abs=1e-14)

    def test_derivative_nondecreasing(self):
        f = build_c1(quad_knots(n=8))
        x = np.linspace(f.x_min(), f.x_max(), 2000)
        _, fp, _ = f.eval_many(x)
        assert np.all(np.diff(fp) > -1e-12)

    def test_rejects_bad_chord(self):
        # chord slope equals the left prescribed slope: not strictly between
        with pytest.raises(InterpolationError):
            build_c1([(0, 0, 1), (1, 1, 2)])

    def test_rejects_split_ratio_out_of_range(self):
        # the chord slope 1e-7 lies between p1 = 0 and p2 = 1, but hugs p1
        with pytest.raises(InterpolationError, match="split ratio"):
            build_c1([(0, 0, 0), (1, 1e-7, 1)])

    def test_rejects_nonincreasing(self):
        with pytest.raises(InterpolationError):
            build_c1([(0, 0, 1), (1, 1, 1)])
        with pytest.raises(InterpolationError):
            build_c1([(0, 0, 0)])

    @pytest.mark.parametrize("n", [2, 3, 64])  # n = 3: the knot array is square
    def test_triples_and_array_give_the_same_bits(self, n):
        triples = quad_knots(n)
        rows = np.array(triples)
        f, g = build_c1(triples), build_c1(rows)
        assert f.knots.shape == g.knots.shape == (n, 3)
        assert f.knots[:, 0].tolist() == [x for x, _, _ in triples]
        for a, b in [(f, g), (upgrade_c2(f), upgrade_c2(g))]:
            assert a._cols.tobytes() == b._cols.tobytes()
            assert a.knots.tobytes() == b.knots.tobytes()
            assert a.D == b.D
        rows[:] = 0.0  # the interpolant holds its own copy
        assert g.knots.tobytes() == f.knots.tobytes()

    @pytest.mark.parametrize("knots", [(0, 0, 0), [(0, 0), (1, 1)], np.zeros((3, 4))],
                             ids=["one-triple", "pairs", "four-columns"])
    def test_rejects_knots_not_n_by_3(self, knots):
        with pytest.raises(InterpolationError, match="shape"):
            build_c1(knots)


class TestUpgradeC2:
    def test_curvature_floor(self):
        f1 = build_c1(quad_knots(n=6))
        f2 = upgrade_c2(f1)
        assert f2.D == pytest.approx((math.pi / 4) * _slope(*f1._cols[:4]).min())
        x = np.linspace(f2.x_min(), f2.x_max(), 5000)
        _, _, fpp = f2.eval_many(x)
        assert np.all(fpp >= f2.D - 1e-10)

    def test_second_derivative_matches_at_joints(self):
        f2 = upgrade_c2(build_c1(quad_knots(n=6)))
        for piece in f2.pieces:
            for x in (piece["x_lo"], piece["x_hi"]):
                _, _, fpp = _at(f2, min(x, f2.x_max() - 1e-13))
                assert fpp == pytest.approx(f2.D, rel=1e-6)

    def test_still_interpolates(self):
        knots = quad_knots(n=7)
        f2 = upgrade_c2(build_c1(knots))
        for x, y, p in knots:
            val, der, _ = _at(f2, x)
            assert val == pytest.approx(y, abs=1e-13)
            assert der == pytest.approx(p, abs=1e-13)

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
        val_end, der_end, sec_end = _at(g, 3.0)
        # padding keeps f'' = D constant
        assert sec_end == pytest.approx(g.D)
        _, der_joint, sec_joint = _at(g, f2.x_max())
        assert sec_joint == pytest.approx(g.D, rel=1e-6)
        assert der_end == pytest.approx(der_joint + g.D * (3.0 - f2.x_max()))

    def test_padding_twice_equals_padding_once(self):
        # one padding piece, from the last knot: a second pad replaces the first
        f2 = upgrade_c2(build_c1([(0, 0, 0), (1, 0.5, 1)]))
        once, twice = f2.with_padding(3.0), f2.with_padding(2.0).with_padding(3.0)
        assert twice._cols.tobytes() == once._cols.tobytes()
        x = np.array([2.0, 2.5, 3.0])
        assert np.array_equal(twice.eval_many(x)[0], once.eval_many(x)[0])
        assert np.all(np.diff(twice.eval_many(np.linspace(1.0, 3.0, 201))[0]) > 0)

    def test_padding_inside_domain_is_a_no_op(self):
        f2 = upgrade_c2(build_c1(quad_knots()))
        for x_end in (f2.x_max(), 1.5):
            assert f2.with_padding(x_end) is f2

    def test_padding_needs_c2(self):
        with pytest.raises(InterpolationError, match="C2"):
            build_c1(quad_knots()).with_padding(3.0)

    def test_upgrade_needs_c1(self):
        f2 = upgrade_c2(build_c1(quad_knots()))
        for f in (f2, f2.with_padding(3.0)):
            with pytest.raises(InterpolationError, match="C1"):
                upgrade_c2(f)


class TestEval:
    def test_eval_many_matches_scalar(self):
        f = upgrade_c2(build_c1(quad_knots(n=6)))
        xs = np.linspace(f.x_min(), f.x_max(), 37)
        fv, dv, sv = f.eval_many(xs)
        for i in range(len(xs)):
            a, b, c = f.eval_many(xs[i : i + 1])
            assert a[0] == fv[i] and b[0] == dv[i] and c[0] == sv[i]

    def test_out_of_domain(self):
        f = build_c1(quad_knots())
        with pytest.raises(ValueError):
            f.eval_many(np.array([0.5]))

    def test_json_roundtrip(self, tmp_path):
        f = upgrade_c2(build_c1(quad_knots(n=5))).with_padding(2.5)
        path = tmp_path / "interp.json"
        f.dump_json(str(path))
        doc = json.loads(path.read_text())
        assert doc == json.loads(json.dumps(f.to_json_dict()))
        assert set(doc) == {"mode", "D", "pad_end", "knots", "pieces"}


def _reference_piece(pc, x: float) -> tuple[float, float, float]:
    """(integral of f' from x_lo, f', f'') at x: the module docstring's
    formulas for one piece, in scalar math."""
    x_lo, x_hi, p_lo, p_hi = pc["x_lo"], pc["x_hi"], pc["p_lo"], pc["p_hi"]
    u = x - x_lo
    slope = (p_hi - p_lo) / (x_hi - x_lo)
    if pc["kind"] == "linear":
        return p_lo * u + 0.5 * slope * u * u, p_lo + slope * u, slope
    a = pc["angle"]
    m = 0.5 * (x_lo + x_hi)
    h = 0.5 * (x_hi - x_lo)
    amp = (p_hi - p_lo) / (2.0 * math.sin(a))
    mean = 0.5 * (p_lo + p_hi)
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
    i = max([j for j, pc in enumerate(pieces) if pc["x_lo"] <= x] or [0])
    x_k, y_k, _ = f.knots.T.tolist()
    y_at = dict(zip(x_k, y_k))
    anchor = y_k[0]
    for pc in pieces[:i]:
        trapezoid = 0.5 * (pc["p_lo"] + pc["p_hi"]) * (pc["x_hi"] - pc["x_lo"])
        anchor = y_at.get(pc["x_lo"], anchor) + trapezoid
    anchor = y_at.get(pieces[i]["x_lo"], anchor)
    integral, deriv, second = _reference_piece(pieces[i], x)
    return anchor + integral, deriv, second


def _reference_json(f: ConvexInterpolant) -> str:
    """dump_json's text, with each piece built from one column of _cols in scalar math."""
    pieces = []
    for i in range(f._cols.shape[1]):
        x_lo, x_hi, p_lo, p_hi, angle = (float(v) for v in f._cols[:, i])
        linear = math.isnan(angle)
        pieces.append({"kind": "linear" if linear else "sinusoid", "x_lo": x_lo,
                       "x_hi": x_hi, "p_lo": p_lo, "p_hi": p_hi,
                       "angle": None if linear else angle})
    knots = [{"x": float(x), "y": float(y), "p": float(p)} for x, y, p in f.knots]
    doc = {"mode": f.mode, "D": f.D, "pad_end": f.pad_end, "knots": knots, "pieces": pieces}
    return json.dumps(doc, indent=2, sort_keys=True)


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
                    f._cols[0],
                    f.knots[:, 0],
                ])
                got = np.column_stack(f.eval_many(xs))
                want = np.array([_reference_eval(f, x) for x in xs.tolist()])
                assert np.array_equal(got, want), f.mode

    def test_piece_methods_bit_identical_to_scalar_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            for f in self._interpolants(rng):
                for i, pc in enumerate(f.pieces):
                    x = np.linspace(pc["x_lo"], pc["x_hi"], 7)
                    got = np.column_stack(_eval_pieces(x, *f._cols[:, i]))
                    want = np.array([_reference_piece(pc, v) for v in x.tolist()])
                    assert np.array_equal(got, want)
                    assert _eval_pieces(pc["x_hi"], *f._cols[:, i])[1] == want[-1, 1]

    def test_mixed_pieces_equal_each_piece_alone(self):
        rng = np.random.default_rng(13)
        f = upgrade_c2(build_c1(_random_knots(rng))).with_padding(12.0)
        assert {pc["kind"] for pc in f.pieces} == {"sinusoid", "linear"}
        xs = np.sort(rng.uniform(f.x_min(), f.x_max(), 500))
        together = f.eval_many(xs)
        idx = np.searchsorted(f._cols[0], xs, side="right") - 1
        for i in np.unique(idx):
            alone = f.eval_many(xs[idx == i])
            for a, b in zip(together, alone):
                assert np.array_equal(a[idx == i], b)

    def test_pieces_survive_json(self, tmp_path):
        # C1, unpadded C2 and padded C2: mode and pad_end follow from the
        # angle row alone, and the file holds every piece and knot to the bit
        f1 = build_c1(_random_knots(np.random.default_rng(14)))
        f2 = upgrade_c2(f1)
        cases = [(f1, "C1", None), (f2, "C2", None), (f2.with_padding(20.0), "C2", 20.0)]
        for f, mode, pad_end in cases:
            path = tmp_path / "f.json"
            f.dump_json(str(path))
            doc = json.loads(path.read_text())
            assert doc == json.loads(json.dumps(f.to_json_dict()))
            # the pieces are the columns of _cols: a null angle is NaN, and
            # kind is "linear" exactly where the angle is null
            rows = [[p[k] for k in ("x_lo", "x_hi", "p_lo", "p_hi")]
                    + [math.nan if p["angle"] is None else p["angle"]] for p in doc["pieces"]]
            assert np.array(rows).T.tobytes() == f._cols.tobytes()
            assert all((p["kind"] == "linear") == (p["angle"] is None) for p in doc["pieces"])
            assert path.read_text() == _reference_json(f)
            assert all(k.keys() == {"x", "y", "p"} for k in doc["knots"])
            assert np.array_equal([[k["x"], k["y"], k["p"]] for k in doc["knots"]], f.knots)
            assert (doc["mode"], doc["D"], doc["pad_end"]) == (mode, f1.D, pad_end)

    def test_anchors_built_once_per_construction(self, monkeypatch):
        # build_c1 -> upgrade_c2 -> with_padding -> eval_many: only the
        # interpolant that is evaluated computes its anchors
        calls = []
        real = ConvexInterpolant._f_lo.func
        spy = cached_property(lambda self: calls.append(1) or real(self))
        spy.__set_name__(ConvexInterpolant, "_f_lo")
        monkeypatch.setattr(ConvexInterpolant, "_f_lo", spy)
        construct_dirichlet_like(64, 1.0)
        assert len(calls) == 1


class TestKnotsFromSequence:
    def test_quadratic_sequence(self):
        N = 10
        n = np.arange(1, N + 1)
        a = n / (2 * N) + n**2 / (2 * N**2)
        knots = knots_from_sequence(a)
        assert knots.shape == (N, 3) and knots.dtype == np.float64
        assert len(knots) == N
        assert knots[0, 0] == pytest.approx(1 / N)
        assert knots[-1, 0] == pytest.approx(1.0)
        # slope at i is the exact derivative midpoint for a quadratic
        for i, (x, y, p) in enumerate(knots.tolist(), start=1):
            assert y == pytest.approx(a[i - 1])
            assert p == pytest.approx(N * (1 / (2 * N) + i / N**2))
        f = upgrade_c2(build_c1(knots))
        x = np.linspace(f.x_min(), f.x_max(), 1000)
        _, _, fpp = f.eval_many(x)
        assert np.all(fpp > 0)

    @pytest.mark.parametrize("a", [[0.0, 1e308, 1.7e308, 1.79e308], [0.0, 1e308, 0.0],
                                   0.8e308 * (np.arange(1, 11) / 10) ** 3],
                             ids=["end-extension", "second-difference", "slope"])
    def test_rejects_values_past_float_range(self, a):
        # each overflows at the named step and no earlier; a RuntimeWarning
        # (an error here) would mean the overflow went unchecked
        with pytest.raises(InterpolationError, match="passes the float range"):
            knots_from_sequence(a)

    def test_needs_three_terms(self):
        with pytest.raises(ValueError, match="need N >= 3"):
            knots_from_sequence([0.0, 1.0])

    def test_rejects_concave(self):
        N = 5
        a = np.sqrt(np.arange(1, N + 1) / N)
        with pytest.raises(InterpolationError):
            knots_from_sequence(a)
