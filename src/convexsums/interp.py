"""Convex C1/C2 interpolation through prescribed points and slopes.

Given knots (x_i, y_i, p_i) with x_i, y_i, p_i strictly increasing and every
chord slope s_i = (y_{i+1}-y_i)/(x_{i+1}-x_i) strictly between p_i and
p_{i+1}, we build a convex function f with f(x_i) = y_i and f'(x_i) = p_i.

Per knot pair the derivative f' is first built as two linear segments meeting
at an interior node x0:

    c  = (s - p1) / (p2 - s)            split ratio
    x0 = (x2 + c*x1) / (1 + c)          so that (x2-x0)/(x0-x1) = c
    p0 = value at x0 on the line through (x1, p2) and (x2, p1)

This choice makes the area under f' over [x1, x2] equal y2 - y1 exactly, by
algebra rather than by quadrature, so f interpolates the y values.

The C2 upgrade replaces each linear segment of f' by a sinusoid with the same
endpoints and the same area:

    f'(x)  = (pa+pb)/2 + (pb-pa)/(2 sin A) * sin(A*(x-m)/h)
    f''(x) = (pb-pa)/(xb-xa) * (A/sin A) * cos(A*(x-m)/h)

with m, h the segment midpoint and half-width and A in [pi/4, pi/2] solving
A*cot(A) = D/slope, where D = (pi/4) * (minimum segment slope of f').  Then
f'' = D at every segment endpoint, so the pieces join with matching second
derivative, and f'' >= D everywhere.

All angles come from one Newton solve (solve_x_cot_x): A*cot(A) - y is
decreasing and concave on [pi/4, pi/2], so the steps from A = pi/2 fall
monotonically onto the root, with error e' <= 0.752 e^2.

Pieces are held as float64 arrays, and one array kernel (_eval_pieces)
evaluates these formulas for a single piece and for many points alike, with
no Python loop per piece.  Rule: it takes the same IEEE operations in the
same order as the scalar formulas, so its results equal theirs to the bit
wherever np.sin/np.cos equal math.sin/math.cos (tests/test_interp.py checks
both against a scalar math reference).
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

# split ratios outside this window mean nearly degenerate data
C_RATIO_MIN = 1e-6
C_RATIO_MAX = 1e6


class InterpolationError(ValueError):
    """Knot data violates the convex interpolation hypotheses."""


def _slope(x_lo, x_hi, p_lo, p_hi):
    return (p_hi - p_lo) / (x_hi - x_lo)


def _area(x_lo, x_hi, p_lo, p_hi):
    # both kinds integrate to the trapezoid area: the sinusoid is odd
    # about the midpoint, so its deviation from the mean integrates to 0
    return 0.5 * (p_lo + p_hi) * (x_hi - x_lo)


def _eval_pieces(x, x_lo, x_hi, p_lo, p_hi, angle):
    """(integral of f' from x_lo to x, f'(x), f''(x)) on the given pieces.

    The piece parameters are scalars or arrays that broadcast against x; a
    NaN angle marks a linear piece.  Both formulas are formed and np.where
    keeps one, so no Python loop runs per piece.
    """
    sinusoid = ~np.isnan(angle)
    u = x - x_lo
    slope = _slope(x_lo, x_hi, p_lo, p_hi)
    m = 0.5 * (x_lo + x_hi)
    h = 0.5 * (x_hi - x_lo)
    sin_a = np.sin(angle)
    amp = (p_hi - p_lo) / (2.0 * sin_a)
    mean = 0.5 * (p_lo + p_hi)
    phase = angle * (x - m) / h
    cos_phase = np.cos(phase)
    integral = np.where(
        sinusoid,
        mean * u - (amp / (angle / h)) * (cos_phase - np.cos(-angle)),
        p_lo * u + 0.5 * slope * u * u,
    )
    deriv = np.where(sinusoid, mean + amp * np.sin(phase), p_lo + slope * u)
    second = np.where(sinusoid, slope * (angle / sin_a) * cos_phase, slope)
    return integral, deriv, second


def solve_x_cot_x(y):
    """Solve x*cot(x) = y for x in [pi/4, pi/2] by Newton's method.

    g(x) = x*cot(x) - y is decreasing and concave on [pi/4, pi/2]
    (g'' = 2 (x*cot(x) - 1) / sin(x)^2 < 0), so the equation has a unique
    root for y in [0, pi/4], and Newton iterates started at pi/2, where
    g = -y <= 0, fall monotonically onto it.  The error obeys
    e' <= 0.752 e^2 (the largest |g''/2g'| on the interval), so six steps
    from the starting error of at most pi/4 reach about 2e-15; seven leave
    a margin.  A float gives a float and an array an array of its shape;
    both take the same loop, so equal inputs give equal bits.
    """
    a = np.asarray(y, dtype=float)
    bad = ~((0.0 <= a) & (a <= math.pi / 4 + 1e-12))
    if bad.any():
        raise ValueError(f"x*cot(x) = {a[bad][0]} has no root in [pi/4, pi/2]")
    x = np.full(a.shape, math.pi / 2)
    for _ in range(7):
        s, c = np.sin(x), np.cos(x)
        x = x - (x * c * s - a * s * s) / (s * c - x)
    return float(x) if a.ndim == 0 else x


class ConvexInterpolant:
    """Piecewise representation of f' plus its knots, which anchor f.

    The knots are an (n, 3) float64 array, one row x, y, p per knot.  The
    pieces live in the float64 rows x_lo, x_hi, p_lo, p_hi, angle of cols,
    and a NaN angle marks a linear piece: C1 pieces are all linear, C2
    pieces all sinusoids but for a trailing padding piece, which ends at
    pad_end (else None).  `pieces`, their JSON view with one dict per
    column, and _f_lo, f at each piece's x_lo, are built on first use.

    Format invariant, kept by every constructor: knot pair i gives piece 2i,
    from knot i to the pair's split node, and piece 2i+1, from there to knot
    i+1; a padding piece starts at the last knot.  So f at x_lo is y_i for
    piece 2i, y_i + area(piece 2i) for piece 2i+1 and the last y for the
    padding: f(x_i) = y_i to rounding error however many pieces precede.
    """

    def __init__(
        self,
        knots: np.ndarray,
        cols: np.ndarray,
        D: float,  # curvature floor (C2); in C1 mode the would-be floor
    ) -> None:
        self.knots = knots
        self.D = D
        self._cols = cols
        linear = np.isnan(cols[4])
        self.mode = "C1" if linear.all() else "C2"
        self.pad_end = self.x_max() if self.mode == "C2" and linear[-1] else None

    @cached_property
    def pieces(self) -> list[dict]:
        return [
            {"kind": "linear" if math.isnan(a) else "sinusoid", "x_lo": x_lo, "x_hi": x_hi,
             "p_lo": p_lo, "p_hi": p_hi, "angle": None if math.isnan(a) else a}
            for x_lo, x_hi, p_lo, p_hi, a in self._cols.T.tolist()
        ]

    @cached_property
    def _f_lo(self) -> np.ndarray:
        """f at each piece's x_lo, read off the piece layout."""
        y = self.knots[:, 1]
        n = 2 * len(y) - 2  # pieces of the knot pairs
        f_lo = np.full(self._cols.shape[1], y[-1])
        f_lo[:n:2] = y[:-1]
        f_lo[1:n:2] = y[:-1] + _area(*self._cols[:4, :n:2])
        return f_lo

    def x_min(self) -> float:
        return float(self._cols[0, 0])

    def x_max(self) -> float:
        return float(self._cols[1, -1])

    def eval_many(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (f, f', f'') at the given points.

        Points must lie in [x_min, x_max] up to a small slack.
        """
        x = np.asarray(x, dtype=float)
        slack = 1e-9 * max(1.0, self.x_max())
        if x.size and (x.min() < self.x_min() - slack or x.max() > self.x_max() + slack):
            raise ValueError(f"points outside domain [{self.x_min()}, {self.x_max()}]")
        idx = np.searchsorted(self._cols[0], x, side="right") - 1
        idx = np.clip(idx, 0, self._cols.shape[1] - 1)
        integral, fp, fpp = _eval_pieces(x, *self._cols[:, idx])
        return self._f_lo[idx] + integral, fp, fpp

    def with_padding(self, x_end: float) -> "ConvexInterpolant":
        """Extend from the last knot to x_end with constant curvature D, replacing any padding."""
        if self.mode != "C2":
            raise InterpolationError("padding is defined for C2 interpolants")
        if x_end <= self.x_max():
            return self
        cols = self._cols[:, : 2 * len(self.knots) - 2]  # the knot pairs' pieces
        x_lo, p_lo = cols[1, -1], cols[3, -1]
        pad = [x_lo, x_end, p_lo, p_lo + self.D * (x_end - x_lo), math.nan]
        return ConvexInterpolant(self.knots, np.column_stack((cols, pad)), self.D)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "D": self.D,
            "pad_end": self.pad_end,
            "knots": [dict(zip("xyp", k)) for k in self.knots.tolist()],
            "pieces": self.pieces,
        }

    def dump_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)


def _check_knots(knots) -> np.ndarray:
    """The knots as an (n, 3) array of rows x, y, p, once they are strictly increasing."""
    xyp = np.array(knots, dtype=float)
    if xyp.ndim != 2 or xyp.shape[1] != 3 or len(xyp) < 2:
        raise InterpolationError(f"need >= 2 knots (x, y, p), got shape {xyp.shape}")
    rising = np.all(xyp[:-1] < xyp[1:], axis=1)
    if not rising.all():
        i = int(np.argmin(rising))
        raise InterpolationError(
            f"knots {i},{i+1}: x, y, p must all be strictly increasing"
        )
    return xyp


def _isclose(a, b, rel_tol: float, abs_tol: float) -> np.ndarray:
    """math.isclose elementwise: symmetric in a and b, unlike np.isclose."""
    diff = np.abs(b - a)
    near = (diff <= np.abs(rel_tol * b)) | (diff <= np.abs(rel_tol * a)) | (diff <= abs_tol)
    return (a == b) | (near & ~np.isinf(a) & ~np.isinf(b))


def build_c1(knots) -> ConvexInterpolant:
    """Convex C1 interpolant through an (n, 3) array or n (x, y, p) triples of knots.

    f' is piecewise linear, two pieces per knot pair.
    """
    knots = _check_knots(knots)
    x, y, p = knots.T
    x1, x2, p1, p2 = x[:-1], x[1:], p[:-1], p[1:]
    dx = x2 - x1
    s = (y[1:] - y[:-1]) / dx
    # a pair that fails a check may divide by zero here; it is reported below
    with np.errstate(all="ignore"):
        c = (s - p1) / (p2 - s)
        x0 = (x2 + c * x1) / (1.0 + c)
        p0 = p2 + (x0 - x1) * (p1 - p2) / dx
        # area identity: trapezoids under f' must reproduce y2 - y1
        area = _area(x1, x0, p1, p0) + _area(x0, x2, p0, p2)
        area_ok = _isclose(area, y[1:] - y[:-1], rel_tol=1e-9, abs_tol=1e-300)
    chord_ok = (p1 < s) & (s < p2)
    ratio_ok = (C_RATIO_MIN <= c) & (c <= C_RATIO_MAX)
    bad = np.flatnonzero(~(chord_ok & ratio_ok & area_ok))
    if bad.size:  # the first failing pair, with its first failing check
        i = int(bad[0])
        if not chord_ok[i]:
            raise InterpolationError(
                f"pair {i}: chord slope {s[i]:.6g} not strictly between "
                f"p1={p1[i]:.6g} and p2={p2[i]:.6g}"
            )
        if not ratio_ok[i]:
            raise InterpolationError(f"pair {i}: split ratio {c[i]:.6g} out of range")
        raise InterpolationError(f"pair {i}: area identity failed")  # pragma: no cover
    # rows x_lo, x_hi, p_lo, p_hi, angle; pair i gives pieces 2i and 2i+1
    nan = np.full_like(x0, math.nan)
    cols = np.stack([x1, x0, x0, x2, p1, p0, p0, p2, nan, nan])
    cols = cols.reshape(5, 2, -1).transpose(0, 2, 1).reshape(5, -1)
    D = (math.pi / 4.0) * float(_slope(*cols[:4]).min())
    return ConvexInterpolant(knots, cols, D)


def upgrade_c2(interp: ConvexInterpolant) -> ConvexInterpolant:
    """Replace the linear pieces of f' with area-preserving sinusoids.

    The resulting f'' equals D at every piece boundary and stays >= D, so f
    is C2 with a uniform curvature floor.
    """
    if interp.mode != "C1":
        raise InterpolationError("upgrade_c2 expects a C1 interpolant")
    D = interp.D
    cols = interp._cols.copy()
    cols[4] = solve_x_cot_x(D / _slope(*cols[:4]))
    return ConvexInterpolant(interp.knots, cols, D)


def knots_from_sequence(a) -> np.ndarray:
    """Knots (i/N, a_i, N*(a_{i+1}-a_{i-1})/2) for a uniformly convex sequence.

    a holds the N values a_1..a_N, and the knots are the rows of the (N, 3)
    array returned.  The sequence is extended by one term on each side with
    second difference exactly 1/N^2, which keeps the chord/slope hypotheses
    valid at the ends: the prescribed slope at i is the average of the two
    adjacent chord slopes, and convexity makes chords strictly increasing.
    An extension, difference or slope past the float range is refused.
    """
    a = np.asarray(a, dtype=float)
    N = len(a)
    if N < 3:
        raise ValueError("need N >= 3")
    step = 1.0 / (N * N)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        ext = np.concatenate([[2.0 * a[0] - a[1] + step], a, [2.0 * a[-1] - a[-2] + step]])
        d2 = np.diff(ext, 2)
        p = 0.5 * N * (ext[2:] - ext[:-2])
    if not np.isfinite([d2, p]).all():
        raise InterpolationError("the extended sequence passes the float range")
    if np.any(d2 <= 0.0):
        raise InterpolationError("sequence is not strictly convex after extension")
    x = np.arange(1, N + 1) / N
    return np.column_stack([x, ext[1:-1], p])
