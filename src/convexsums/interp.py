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
from dataclasses import asdict, astuple, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# split ratios outside this window mean nearly degenerate data
C_RATIO_MIN = 1e-6
C_RATIO_MAX = 1e6

X_COT_X_TOL = 1e-12
X_COT_X_MAX_ITER = 200
# below this size scalar calls are cheaper: the vectorised bisection costs
# about 0.3 ms whatever the size (40 halvings of about ten numpy calls), a
# scalar call about 7-10 us
X_COT_X_ARRAY_MIN = 48


class InterpolationError(ValueError):
    """Knot data violates the convex interpolation hypotheses."""


@dataclass(frozen=True)
class Knot:
    x: float
    y: float
    p: float  # prescribed derivative at x


def _slope(x_lo, x_hi, p_lo, p_hi):
    return (p_hi - p_lo) / (x_hi - x_lo)


def _area(x_lo, x_hi, p_lo, p_hi):
    # both kinds integrate to the trapezoid area: the sinusoid is odd
    # about the midpoint, so its deviation from the mean integrates to 0
    return 0.5 * (p_lo + p_hi) * (x_hi - x_lo)


def _eval_pieces(x, x_lo, x_hi, p_lo, p_hi, angle, sinusoid):
    """(integral of f' from x_lo to x, f'(x), f''(x)) on the given pieces.

    The piece parameters are scalars or arrays that broadcast against x.
    angle is unused (NaN on linear pieces) where sinusoid is False.  Both
    formulas are formed and np.where keeps one, so no Python loop runs per
    piece.
    """
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


@dataclass(frozen=True)
class DerivativePiece:
    """One piece of f' on [x_lo, x_hi] with endpoint slopes p_lo < p_hi.

    kind is "linear" (C1 mode and padding) or "sinusoid" (C2 mode).  For
    sinusoids, angle is the parameter A above; for linear pieces it is None.
    """

    kind: str
    x_lo: float
    x_hi: float
    p_lo: float
    p_hi: float
    angle: float | None = None

    def slope(self) -> float:
        return _slope(self.x_lo, self.x_hi, self.p_lo, self.p_hi)

    def _eval(self, x) -> tuple:
        angle = math.nan if self.angle is None else self.angle
        out = _eval_pieces(
            np.asarray(x, dtype=float), self.x_lo, self.x_hi, self.p_lo, self.p_hi,
            angle, self.kind != "linear",
        )
        return tuple(a[()] for a in out)  # a scalar x gives numpy scalars

    def deriv(self, x: np.ndarray) -> np.ndarray:
        return self._eval(x)[1]

    def second(self, x: np.ndarray) -> np.ndarray:
        return self._eval(x)[2]

    def integral_from_lo(self, x: np.ndarray) -> np.ndarray:
        """Integral of f' from x_lo to x, closed form."""
        return self._eval(x)[0]


def solve_x_cot_x(y):
    """Solve x*cot(x) = y for x in [pi/4, pi/2] by bisection.

    x*cot(x) decreases from pi/4 at x = pi/4 to 0 at x = pi/2, so the
    equation has a unique root for y in [0, pi/4].  A float gives a float.
    An array is solved elementwise in one vectorised loop that halves every
    bracket until all are no wider than X_COT_X_TOL.  All brackets start as
    [pi/4, pi/2] and shrink alike, so each stops after the same 40 halvings
    as its scalar call (widths near 7.1e-13), which tests pin to the bit.
    Arrays of fewer than X_COT_X_ARRAY_MIN values take the scalar calls,
    which cost less than the vectorised loop's fixed cost per halving.
    """
    if np.ndim(y) == 0:
        if not 0.0 <= y <= math.pi / 4 + 1e-12:
            raise ValueError(f"x*cot(x) = {y} has no root in [pi/4, pi/2]")
        lo, hi = math.pi / 4, math.pi / 2
        for _ in range(X_COT_X_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if mid * math.cos(mid) / math.sin(mid) > y:
                lo = mid
            else:
                hi = mid
            if hi - lo <= X_COT_X_TOL:
                break
        return 0.5 * (lo + hi)
    y = np.asarray(y, dtype=float)
    if y.size < X_COT_X_ARRAY_MIN:
        return np.array([solve_x_cot_x(v) for v in y.ravel().tolist()]).reshape(y.shape)
    bad = ~((0.0 <= y) & (y <= math.pi / 4 + 1e-12))
    if bad.any():
        raise ValueError(f"x*cot(x) = {y[bad][0]} has no root in [pi/4, pi/2]")
    lo = np.full(y.shape, math.pi / 4)
    hi = np.full(y.shape, math.pi / 2)
    for _ in range(X_COT_X_MAX_ITER):
        mid = 0.5 * (lo + hi)
        above = mid * np.cos(mid) / np.sin(mid) > y
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        if (hi - lo).max() <= X_COT_X_TOL:
            break
    return 0.5 * (lo + hi)


def _anchors(cols: np.ndarray, knot_xy: np.ndarray) -> np.ndarray:
    """f at each piece's x_lo, for pieces given as the rows of cols.

    Piece boundaries at knots carry the knot's x float verbatim, so exact
    lookup is safe; re-anchoring there keeps f(x_i) = y_i exact (of equal
    knot x, the last knot's y counts).  A piece that starts off the knots
    continues from its left neighbour, f + area; the loop runs once per
    link of the longest such chain (once for build_c1's split nodes).
    """
    x_lo = cols[0]
    order = np.argsort(knot_xy[0], kind="stable")
    kx, ky = knot_xy[:, order]
    pos = np.searchsorted(kx, x_lo, side="right") - 1
    known = (pos >= 0) & (kx[pos] == x_lo)
    anchors = np.where(known, ky[pos], knot_xy[1, 0])
    known[0] = True  # an off-knot first piece starts at the first knot's y
    area = _area(*cols[:4])
    while not known.all():
        i = np.flatnonzero(known[:-1] & ~known[1:])
        anchors[i + 1] = anchors[i] + area[i]
        known[i + 1] = True
    return anchors


class ConvexInterpolant:
    """Piecewise representation of f' plus knot anchors for f itself.

    f values are recovered from exact per-piece antiderivatives anchored at
    the left knot of each pair, so f(x_i) = y_i to rounding error regardless
    of how many pieces precede.

    The pieces live in the float64 rows x_lo, x_hi, p_lo, p_hi, angle of
    cols (angle NaN on linear pieces) and the flag sinusoid; knot_xy holds
    the knots' x and y rows.  The DerivativePiece list `pieces` and the
    anchors are built from them on first use.
    """

    def __init__(
        self,
        knots: list[Knot],
        knot_xy: np.ndarray,
        cols: np.ndarray,
        sinusoid: np.ndarray,
        mode: str,  # "C1" or "C2"
        D: float,  # curvature floor (C2); in C1 mode the would-be floor
        pad_end: float | None = None,  # right end of the padding piece, if any
    ) -> None:
        self.knots = knots
        self.mode = mode
        self.D = D
        self.pad_end = pad_end
        self._knot_xy = knot_xy
        self._cols = cols
        self._sinusoid = sinusoid

    @cached_property
    def pieces(self) -> list[DerivativePiece]:
        kinds = np.where(self._sinusoid, "sinusoid", "linear").tolist()
        angles = np.where(self._sinusoid, self._cols[4], None).tolist()
        return list(map(DerivativePiece, kinds, *self._cols[:4].tolist(), angles))

    @cached_property
    def _f_lo(self) -> np.ndarray:
        return _anchors(self._cols, self._knot_xy)

    def x_min(self) -> float:
        return float(self._cols[0, 0])

    def x_max(self) -> float:
        return float(self._cols[1, -1])

    def min_segment_slope(self) -> float:
        return float(_slope(*self._cols[:4]).min())

    def eval(self, x: float) -> tuple[float, float, float]:
        f, fp, fpp = self.eval_many(np.asarray([x]))
        return float(f[0]), float(fp[0]), float(fpp[0])

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
        integral, fp, fpp = _eval_pieces(x, *self._cols[:, idx], self._sinusoid[idx])
        return self._f_lo[idx] + integral, fp, fpp

    def with_padding(self, x_end: float) -> "ConvexInterpolant":
        """Extend past the last knot with constant curvature D up to x_end."""
        if self.mode != "C2":
            raise InterpolationError("padding is defined for C2 interpolants")
        if x_end <= self.x_max():
            return self
        x_lo = self.x_max()
        p_lo = self._cols[3, -1]
        pad = [x_lo, x_end, p_lo, p_lo + self.D * (x_end - x_lo), math.nan]
        return ConvexInterpolant(
            self.knots, self._knot_xy, np.column_stack((self._cols, pad)),
            np.append(self._sinusoid, False), self.mode, self.D, pad_end=x_end,
        )

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "D": self.D,
            "pad_end": self.pad_end,
            "knots": [asdict(k) for k in self.knots],
            "pieces": [asdict(p) for p in self.pieces],
        }

    def dump_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConvexInterpolant":
        knots = [Knot(**k) for k in d["knots"]]
        pieces = [DerivativePiece(**p) for p in d["pieces"]]
        # astuple rows: (x, y, p) per knot, (kind, x_lo, ..., angle) per piece;
        # a None angle becomes NaN in a float array
        return cls(
            knots,
            np.array([astuple(k)[:2] for k in knots], dtype=float).reshape(-1, 2).T,
            np.array([astuple(p)[1:] for p in pieces], dtype=float).reshape(-1, 5).T,
            np.array([p.kind != "linear" for p in pieces], dtype=bool),
            d["mode"], d["D"], d.get("pad_end"),
        )

    @classmethod
    def load_json(cls, path: str) -> "ConvexInterpolant":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _check_knots(knots: Sequence[Knot]) -> np.ndarray:
    """The rows x, y, p of the knots, once they are strictly increasing."""
    if len(knots) < 2:
        raise InterpolationError(f"need >= 2 knots, got {len(knots)}")
    xyp = np.array([(k.x, k.y, k.p) for k in knots], dtype=float).T
    rising = np.all(xyp[:, :-1] < xyp[:, 1:], axis=0)
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


def build_c1(knots: Sequence[Knot]) -> ConvexInterpolant:
    """Convex C1 interpolant: f' piecewise linear, two pieces per knot pair."""
    knots = list(knots)
    x, y, p = xyp = _check_knots(knots)
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
    return ConvexInterpolant(
        knots, xyp[:2], cols, np.zeros(cols.shape[1], dtype=bool), "C1", D
    )


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
    return ConvexInterpolant(
        interp.knots, interp._knot_xy, cols, np.ones(cols.shape[1], dtype=bool), "C2", D
    )


def knots_from_sequence(seq, N: int | None = None) -> list[Knot]:
    """Knots (i/N, a_i, N*(a_{i+1}-a_{i-1})/2) for a uniformly convex sequence.

    Accepts a sequence object with .values and .N, or a plain array plus N.
    The sequence is extended by one term on each side with second difference
    exactly 1/N^2, which keeps the chord/slope hypotheses valid at the ends:
    the prescribed slope at i is the average of the two adjacent chord slopes,
    and convexity makes chords strictly increasing.
    """
    if N is None:
        a = np.asarray(seq.values, dtype=float)
        N = seq.N
    else:
        a = np.asarray(seq, dtype=float)
    if len(a) != N:
        raise ValueError(f"expected {N} values, got {len(a)}")
    if N < 3:
        raise ValueError("need N >= 3")
    step = 1.0 / (N * N)
    a0 = 2.0 * a[0] - a[1] + step
    a_next = 2.0 * a[-1] - a[-2] + step
    ext = np.concatenate([[a0], a, [a_next]])
    if np.any(np.diff(ext, 2) <= 0.0):
        raise InterpolationError("sequence is not strictly convex after extension")
    x = np.arange(1, N + 1) / N
    p = 0.5 * N * (ext[2:] - ext[:-2])
    return list(map(Knot, x.tolist(), ext[1:-1].tolist(), p.tolist()))
