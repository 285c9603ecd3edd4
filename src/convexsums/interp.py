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
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

# split ratios outside this window mean nearly degenerate data
C_RATIO_MIN = 1e-6
C_RATIO_MAX = 1e6

X_COT_X_TOL = 1e-12
X_COT_X_MAX_ITER = 200


class InterpolationError(ValueError):
    """Knot data violates the convex interpolation hypotheses."""


@dataclass(frozen=True)
class Knot:
    x: float
    y: float
    p: float  # prescribed derivative at x


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
        return (self.p_hi - self.p_lo) / (self.x_hi - self.x_lo)

    def area(self) -> float:
        # both kinds integrate to the trapezoid area: the sinusoid is odd
        # about the midpoint, so its deviation from the mean integrates to 0
        return 0.5 * (self.p_lo + self.p_hi) * (self.x_hi - self.x_lo)

    def deriv(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return self.p_lo + self.slope() * (x - self.x_lo)
        m = 0.5 * (self.x_lo + self.x_hi)
        h = 0.5 * (self.x_hi - self.x_lo)
        amp = (self.p_hi - self.p_lo) / (2.0 * math.sin(self.angle))
        return 0.5 * (self.p_lo + self.p_hi) + amp * np.sin(self.angle * (x - m) / h)

    def second(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return np.full_like(np.asarray(x, dtype=float), self.slope())
        m = 0.5 * (self.x_lo + self.x_hi)
        h = 0.5 * (self.x_hi - self.x_lo)
        return self.slope() * (self.angle / math.sin(self.angle)) * np.cos(
            self.angle * (x - m) / h
        )

    def integral_from_lo(self, x: np.ndarray) -> np.ndarray:
        """Integral of f' from x_lo to x, closed form."""
        u = x - self.x_lo
        if self.kind == "linear":
            return self.p_lo * u + 0.5 * self.slope() * u * u
        m = 0.5 * (self.x_lo + self.x_hi)
        h = 0.5 * (self.x_hi - self.x_lo)
        amp = (self.p_hi - self.p_lo) / (2.0 * math.sin(self.angle))
        mean = 0.5 * (self.p_lo + self.p_hi)
        w = self.angle / h
        return mean * u - (amp / w) * (
            np.cos(self.angle * (x - m) / h) - math.cos(-self.angle)
        )


def solve_x_cot_x(y: float) -> float:
    """Solve x*cot(x) = y for x in [pi/4, pi/2] by bisection.

    x*cot(x) decreases from pi/4 at x = pi/4 to 0 at x = pi/2, so the
    equation has a unique root for y in [0, pi/4].
    """
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


@dataclass
class ConvexInterpolant:
    """Piecewise representation of f' plus knot anchors for f itself.

    f values are recovered from exact per-piece antiderivatives anchored at
    the left knot of each pair, so f(x_i) = y_i to rounding error regardless
    of how many pieces precede.
    """

    knots: list[Knot]
    pieces: list[DerivativePiece]
    mode: str  # "C1" or "C2"
    D: float  # curvature floor (C2); in C1 mode the would-be floor
    pad_end: float | None = None  # right end of the padding piece, if any

    # anchors: f value at each piece's x_lo, rebuilt after any mutation
    _anchors: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)
    _bounds: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)

    def __post_init__(self) -> None:
        self._rebuild_anchors()

    def _rebuild_anchors(self) -> None:
        # piece boundaries at knots carry the knot's x float verbatim, so
        # exact lookup is safe; re-anchoring there keeps f(x_i) = y_i exact
        y_at = {k.x: k.y for k in self.knots}
        anchors = []
        value = self.knots[0].y
        for piece in self.pieces:
            value = y_at.get(piece.x_lo, value)
            anchors.append(value)
            value = value + piece.area()
        self._anchors = np.asarray(anchors)
        self._bounds = np.asarray([p.x_lo for p in self.pieces] + [self.x_max()])

    def x_min(self) -> float:
        return self.pieces[0].x_lo

    def x_max(self) -> float:
        return self.pieces[-1].x_hi

    def min_segment_slope(self) -> float:
        return min(p.slope() for p in self.pieces)

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
            raise ValueError(
                f"points outside domain [{self.x_min()}, {self.x_max()}]"
            )
        idx = np.searchsorted(self._bounds, x, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        f = np.empty_like(x)
        fp = np.empty_like(x)
        fpp = np.empty_like(x)
        for i in np.unique(idx):
            piece = self.pieces[i]
            mask = idx == i
            xs = x[mask]
            f[mask] = self._anchors[i] + piece.integral_from_lo(xs)
            fp[mask] = piece.deriv(xs)
            fpp[mask] = piece.second(xs)
        return f, fp, fpp

    def with_padding(self, x_end: float) -> "ConvexInterpolant":
        """Extend past the last knot with constant curvature D up to x_end."""
        if self.mode != "C2":
            raise InterpolationError("padding is defined for C2 interpolants")
        if x_end <= self.x_max():
            return self
        x_lo = self.x_max()
        p_lo = self.pieces[-1].p_hi
        pad = DerivativePiece(
            kind="linear",
            x_lo=x_lo,
            x_hi=x_end,
            p_lo=p_lo,
            p_hi=p_lo + self.D * (x_end - x_lo),
        )
        return ConvexInterpolant(
            knots=self.knots,
            pieces=self.pieces + [pad],
            mode=self.mode,
            D=self.D,
            pad_end=x_end,
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
        return cls(
            knots=[Knot(**k) for k in d["knots"]],
            pieces=[DerivativePiece(**p) for p in d["pieces"]],
            mode=d["mode"],
            D=d["D"],
            pad_end=d.get("pad_end"),
        )

    @classmethod
    def load_json(cls, path: str) -> "ConvexInterpolant":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _check_knots(knots: Sequence[Knot]) -> None:
    if len(knots) < 2:
        raise InterpolationError(f"need >= 2 knots, got {len(knots)}")
    for i, (a, b) in enumerate(zip(knots, knots[1:])):
        if not (a.x < b.x and a.y < b.y and a.p < b.p):
            raise InterpolationError(
                f"knots {i},{i+1}: x, y, p must all be strictly increasing"
            )


def build_c1(knots: Sequence[Knot]) -> ConvexInterpolant:
    """Convex C1 interpolant: f' piecewise linear, two pieces per knot pair."""
    knots = list(knots)
    _check_knots(knots)
    pieces: list[DerivativePiece] = []
    for i, (k1, k2) in enumerate(zip(knots, knots[1:])):
        dx = k2.x - k1.x
        s = (k2.y - k1.y) / dx
        if not (k1.p < s < k2.p):
            raise InterpolationError(
                f"pair {i}: chord slope {s:.6g} not strictly between "
                f"p1={k1.p:.6g} and p2={k2.p:.6g}"
            )
        c = (s - k1.p) / (k2.p - s)
        if not (C_RATIO_MIN <= c <= C_RATIO_MAX):
            raise InterpolationError(f"pair {i}: split ratio {c:.6g} out of range")
        x0 = (k2.x + c * k1.x) / (1.0 + c)
        p0 = k2.p + (x0 - k1.x) * (k1.p - k2.p) / dx
        left = DerivativePiece("linear", k1.x, x0, k1.p, p0)
        right = DerivativePiece("linear", x0, k2.x, p0, k2.p)
        # area identity: trapezoids under f' must reproduce y2 - y1
        area = left.area() + right.area()
        if not math.isclose(area, k2.y - k1.y, rel_tol=1e-9, abs_tol=1e-300):
            raise InterpolationError(f"pair {i}: area identity failed")  # pragma: no cover
        pieces.extend([left, right])
    D = (math.pi / 4.0) * min(p.slope() for p in pieces)
    return ConvexInterpolant(knots=knots, pieces=pieces, mode="C1", D=D)


def upgrade_c2(interp: ConvexInterpolant) -> ConvexInterpolant:
    """Replace the linear pieces of f' with area-preserving sinusoids.

    The resulting f'' equals D at every piece boundary and stays >= D, so f
    is C2 with a uniform curvature floor.
    """
    if interp.mode != "C1":
        raise InterpolationError("upgrade_c2 expects a C1 interpolant")
    D = interp.D
    pieces = []
    for p in interp.pieces:
        angle = solve_x_cot_x(D / p.slope())
        pieces.append(
            DerivativePiece("sinusoid", p.x_lo, p.x_hi, p.p_lo, p.p_hi, angle=angle)
        )
    return ConvexInterpolant(knots=interp.knots, pieces=pieces, mode="C2", D=D)


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
    d2 = np.diff(ext, 2)
    if np.any(d2 <= 0.0):
        raise InterpolationError("sequence is not strictly convex after extension")
    knots = []
    for i in range(1, N + 1):
        p = 0.5 * N * (ext[i + 1] - ext[i - 1])
        knots.append(Knot(x=i / N, y=ext[i], p=p))
    return knots
