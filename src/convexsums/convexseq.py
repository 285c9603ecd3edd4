"""Uniformly convex sequences and their lattice intersections.

A length-N sequence a_1 < ... < a_N is uniformly convex when its first
differences lie in [1/(4N), 4/N] and its second differences in
[1/(4N^2), 4/N^2].  The constructions here produce such sequences with many
values on the lattice N^{-alpha} * Z, certified exactly: each hit stores the
integer (or rational) multiplier, so membership never rests on a float.

Two constructions are provided.  construct_dirichlet_like (alpha in [1/2, 2])
follows the mediant pipeline: enumerate the fractions with small denominator
in a window of width ~ N^{alpha-1}, expand consecutive pairs to comparable
denominators, and read knots off the cumulative mediants; the interpolation
module turns the knots into a C2 convex function that is then sampled at n/N.
construct_small_alpha (alpha in [0, 1/2]) walks the lattice directly: it
places knots on consecutive (strided) lattice values with x-gaps following a
constant-curvature profile, which yields ~ N^alpha hits.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .interp import Knot, build_c1, upgrade_c2
from .rational import (
    Q,
    enumerate_fractions,
    expand_to_range,
    mediant,
    power_floor,
    power_value,
)


class ConstructionError(ValueError):
    """The construction cannot proceed for these parameters."""


@dataclass(frozen=True)
class LatticeHit:
    """Certificate that a_n = (num/den) * N^{-alpha} exactly."""

    n: int
    alpha: float
    num: int
    den: int = 1

    def multiplier(self) -> Q:
        return Q(self.num, self.den)


def _checked_hit(
    h: LatticeHit, values: list[float], exact: list[Q] | None
) -> LatticeHit:
    """h, once it certifies the value it names in a sequence read from CSV.

    n must index the sequence, num and den be integers with den >= 1 and
    alpha lie in [0, 2].  a_n must equal num/den * N^{-alpha}: exactly when
    the CSV has exact values and the lattice step is rational, otherwise as
    the float the constructions write, num * float(step) / den (for den = 1
    the check of acceptance criterion 2).
    """
    N = len(values)
    if not all(type(v) is int for v in (h.n, h.num, h.den)):
        raise ValueError("n, num and den must be integers")
    if not 1 <= h.n <= N:
        raise ValueError(f"n = {h.n} is outside [1, {N}]")
    if h.den < 1:
        raise ValueError(f"den = {h.den} is below 1")
    if type(h.alpha) not in (int, float) or not 0 <= h.alpha <= 2:
        raise ValueError(f"alpha = {h.alpha!r} is not a number in [0, 2]")
    step, step_exact = _lattice_step(N, h.alpha)
    if exact is not None and step_exact:
        ok = exact[h.n - 1] == Q(h.num, h.den) * step
    else:
        ok = values[h.n - 1] == h.num * float(step) / h.den
    if not ok:
        raise ValueError(
            f"a_{h.n} = {values[h.n - 1]!r} is not {h.num}/{h.den} * {N}^-{h.alpha}"
        )
    return h


@dataclass
class ConvexSequence:
    """Immutable value sequence a_1..a_N with optional exact data.

    exact_values, when present, are the rationals the floats came from; hits
    are exact lattice-membership certificates at their indices.  meta records
    how the sequence was made (construction, scale, shear, ...).
    """

    N: int
    values: np.ndarray
    exact_values: list[Q] | None = None
    hits: list[LatticeHit] | None = None
    theta: float = 1.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.N:
            raise ValueError(f"expected {self.N} values, got {len(self.values)}")
        if self.exact_values is not None and len(self.exact_values) != self.N:
            raise ValueError("exact_values length mismatch")
        self.values.setflags(write=False)

    def hit_indices(self) -> list[int]:
        return [h.n for h in (self.hits or [])]

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "a_n", "exact_num", "exact_den"])
            for i in range(self.N):
                if self.exact_values is not None:
                    q = self.exact_values[i]
                    w.writerow(
                        [i + 1, repr(float(self.values[i])), q.numerator, q.denominator]
                    )
                else:
                    w.writerow([i + 1, repr(float(self.values[i])), "", ""])

    def hits_to_json(self, path: str) -> None:
        hits = [asdict(h) for h in self.hits or []]
        with open(path, "w") as fh:
            json.dump(hits, fh, indent=2, sort_keys=True)

    @classmethod
    def from_csv(cls, path: str, hits_path: str | None = None) -> "ConvexSequence":
        values = []
        exact: list[Q] | None = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if "a_n" not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: no a_n column")
            for row in reader:
                where = f"{path}: row {len(values) + 1}"
                try:
                    v = float(row["a_n"])
                    if exact is not None and row.get("exact_num"):
                        exact.append(Q(int(row["exact_num"]), int(row.get("exact_den"))))
                    else:
                        exact = None
                except ZeroDivisionError:
                    raise ValueError(f"{where}: exact_den is 0") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{where}: {exc}") from None
                if not math.isfinite(v):
                    raise ValueError(f"{where}: a_n is {v}")
                values.append(v)
        hits = None
        if hits_path is not None:
            with open(hits_path) as fh:
                raw = json.load(fh)
            hits = []
            try:
                for h in raw:
                    hits.append(_checked_hit(LatticeHit(**h), values, exact))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{hits_path}: hit {len(hits) + 1}: {exc}") from None
        return cls(N=len(values), values=np.asarray(values), exact_values=exact, hits=hits)


@dataclass(frozen=True)
class ConvexityReport:
    first_diff_min: float
    first_diff_max: float
    second_diff_min: float
    second_diff_max: float
    tightest_C: float
    passed: bool
    theta: float = 1.0

    def to_json_dict(self) -> dict:
        return {
            "first_diff_min": self.first_diff_min,
            "first_diff_max": self.first_diff_max,
            "second_diff_min": self.second_diff_min,
            "second_diff_max": self.second_diff_max,
            # null when no finite C exists (the sequence is not increasing
            # and strictly convex)
            "tightest_C": self.tightest_C if self.tightest_C < math.inf else None,
            "pass": self.passed,
            "theta": self.theta,
        }


def _tightest_C(N: int, theta, d1_min, d1_max, d2_min, d2_max):
    """Smallest C with first diffs in [1/(CN), C/N], second in [th/(CN^2), C*th/N^2].

    Stays in exact arithmetic when the inputs are rationals, so the pass
    verdict can be decided without rounding.
    """
    if d1_min <= 0 or d2_min <= 0:
        return math.inf
    one = Q(1) if isinstance(d1_min, Q) else 1.0
    return max(
        N * d1_max,
        one / (N * d1_min),
        N * N * d2_max / theta,
        theta / (N * N * d2_min),
    )


def validate(seq: ConvexSequence, theta: float | None = None) -> ConvexityReport:
    """Check the uniform-convexity windows and report the tightest constant.

    theta rescales the second-difference window to [th/(CN^2), C*th/N^2]
    (the generalized form used after restrict_rescale); default is the
    sequence's own theta.  Exact values are used when available, so the
    pass/fail verdict does not hinge on float rounding.
    """
    if seq.N < 3:
        raise ValueError("need N >= 3 for second differences")
    th = seq.theta if theta is None else theta
    if not 0 < th < math.inf:
        raise ValueError(f"theta must be finite and > 0, got {th}")
    if seq.exact_values is not None:
        d1 = [b - a for a, b in zip(seq.exact_values, seq.exact_values[1:])]
        d2 = [b - a for a, b in zip(d1, d1[1:])]
        d1_min, d1_max = min(d1), max(d1)
        d2_min, d2_max = min(d2), max(d2)
        C = _tightest_C(seq.N, Q(th), d1_min, d1_max, d2_min, d2_max)
    else:
        d1 = np.diff(seq.values)
        d2 = np.diff(seq.values, 2)
        d1_min, d1_max = float(d1.min()), float(d1.max())
        d2_min, d2_max = float(d2.min()), float(d2.max())
        C = _tightest_C(seq.N, th, d1_min, d1_max, d2_min, d2_max)
    return ConvexityReport(
        first_diff_min=float(d1_min),
        first_diff_max=float(d1_max),
        second_diff_min=float(d2_min),
        second_diff_max=float(d2_max),
        tightest_C=float(C),
        passed=bool(C <= 4),
        theta=th,
    )


def _lattice_step(N: int, alpha: float) -> tuple[Q, bool]:
    """N^{-alpha} as (value, exact?) with float snap when irrational."""
    return power_value(N, -Q(alpha).limit_denominator(10**6))


def intersect_count(
    seq: ConvexSequence, alpha: float, tol: float | None = None
) -> tuple[int, list[int]]:
    """Count indices n with distance(a_n, N^{-alpha} Z) <= tol.

    tol=None uses the float-mode default 1e-9 * N^{-alpha}.  tol=0 demands an
    exact answer: exact_values must be present and N^{-alpha} must be a
    rational number, else membership cannot be decided.
    Returns (count, 1-based hit indices).
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("alpha must lie in [0, 2]")
    if tol is not None and tol < 0:
        raise ValueError("tol must be nonnegative")
    step_q, step_exact = _lattice_step(seq.N, alpha)
    if tol == 0:
        if seq.exact_values is None:
            raise ValueError("tol=0 requires exact_values")
        if not step_exact:
            raise ValueError(
                f"tol=0 needs a rational lattice step; N^-alpha for N={seq.N}, "
                f"alpha={alpha} is irrational"
            )
        idx = [
            i + 1
            for i, v in enumerate(seq.exact_values)
            if (v / step_q).denominator == 1
        ]
        return len(idx), idx
    step = float(step_q)
    if tol is None:
        tol = 1e-9 * step
    m = np.round(seq.values / step)
    dist = np.abs(seq.values - m * step)
    idx = [int(i) + 1 for i in np.nonzero(dist <= tol)[0]]
    return len(idx), idx


# construction tuning: slope window for the sampled derivative and the
# curvature target of the small-alpha walk
_WALK_S_MAX = 2.5
_WALK_CURV = 2.0
_SPAN_CAP = 0.92


def _auto_scale(values: np.ndarray, N: int) -> tuple[int, float]:
    """Smallest integer scale in 1..4 putting the diffs in the C=4 windows.

    Falls back to the scale with the smallest tightest_C when none reaches 4.
    Integer scales keep lattice hits valid (multiplier m becomes s*m).
    """
    d1 = np.diff(values)
    d2 = np.diff(values, 2)
    best_s, best_C = 1, math.inf
    for s in (1, 2, 3, 4):
        C = float(
            _tightest_C(N, 1.0, s * d1.min(), s * d1.max(), s * d2.min(), s * d2.max())
        )
        if C <= 4.0:
            return s, C
        if C < best_C:
            best_s, best_C = s, C
    return best_s, best_C


def _finalize(
    N: int,
    alpha: float,
    knots: list[Knot],
    hit_data: list[tuple[int, int]],
    step_f: float,
    meta: dict,
) -> ConvexSequence:
    """Interpolate knots, sample at n/N, snap hit values, auto-scale."""
    f = upgrade_c2(build_c1(knots)).with_padding(1.0)
    x = np.arange(1, N + 1) / N
    values = f.eval_many(x)[0].copy()
    for n, m in hit_data:
        values[n - 1] = m * step_f
    scale, tightest = _auto_scale(values, N)
    if scale != 1:
        values = values * scale
        for k, (n, m) in enumerate(hit_data):
            values[n - 1] = (m * scale) * step_f
            hit_data[k] = (n, m * scale)
    hits = [LatticeHit(n=n, alpha=alpha, num=m) for n, m in hit_data]
    meta = dict(meta, scale=scale, tightest_C=tightest if tightest < math.inf else None)
    return ConvexSequence(N=N, values=values, hits=hits, meta=meta)


def construct_dirichlet_like(N: int, alpha: float) -> ConvexSequence:
    """Mediant construction with ~ N^{(alpha+1)/3} certified hits.

    Pipeline: fractions r_i with denominator <= floor(N^{(2-alpha)/3}) in
    [N^{alpha-1}/3, 2N^{alpha-1}/3]; per pair, Delta_i = N^{2-alpha} *
    (r_{i+1}-r_i), both endpoints expanded to denominators in
    [Delta_i, 2*Delta_i], mediant M_i/k_i of the expansions; knot i at
    x = (sum k_j)/N, y = (sum M_j)/N^alpha with slope r_{i+1} * N^{1-alpha}
    (the slope attached to a knot is the NEXT pair's left fraction: the chord
    over pair i is the mediant, which lies in (r_i, r_{i+1}), so this choice
    brackets every chord).  An origin knot (0, 0) with slope r_1 * N^{1-alpha}
    starts the run.  The C2 interpolant through the knots is sampled at n/N;
    knot samples are the hits, a_n = (sum M_j) * N^{-alpha} exactly.

    When the standard window holds fewer than two fractions (which happens
    for every N at alpha = 1/2: the window has width N^{alpha-1}/3 < 1/q for
    all q <= N^{(2-alpha)/3}), the window is widened once to
    [N^{alpha-1}/3, 4N^{alpha-1}/3] before giving up.
    """
    if N < 10:
        raise ValueError("need N >= 10")
    if not 0.5 <= alpha <= 2.0:
        raise ValueError("alpha must lie in [1/2, 2]")
    aq = Q(alpha).limit_denominator(10**6)
    qmax = max(1, power_floor(N, (2 - aq) / 3))
    w, _ = power_value(N, aq - 1)
    lo, hi = w / 3, 2 * w / 3
    widened = False
    fracs = enumerate_fractions(lo, hi, qmax)
    if len(fracs) < 2:
        widened = True
        hi = 4 * w / 3
        fracs = enumerate_fractions(lo, hi, qmax)
    if len(fracs) < 2:
        raise ConstructionError(
            f"only {len(fracs)} fractions with denominator <= {qmax} in the "
            f"window; N={N} too small for alpha={alpha}"
        )
    scale2, _ = power_value(N, 2 - aq)
    slope_f = float(power_value(N, 1 - aq)[0])
    step_q, _ = _lattice_step(N, alpha)
    step_f = float(step_q)

    knots = [Knot(x=0.0, y=0.0, p=float(fracs[0]) * slope_f)]
    hit_data: list[tuple[int, int]] = []
    X = Y = 0  # cumulative integer sums of k_j and M_j
    trimmed = 0
    for r1, r2 in zip(fracs, fracs[1:]):
        delta = scale2 * Q(1, r1.denominator * r2.denominator)  # neighbours: r2 - r1
        e1 = expand_to_range(r1, delta, 2 * delta)
        e2 = expand_to_range(r2, delta, 2 * delta)
        med = mediant(e1, e2)
        if X + med.den > N:  # past the sampling range: trim this and the rest
            trimmed = len(fracs) - 1 - len(hit_data)
            break
        X += med.den
        Y += med.num
        knots.append(Knot(x=X / N, y=Y * step_f, p=float(r2) * slope_f))
        hit_data.append((X, Y))
    if len(knots) < 2:
        raise ConstructionError("fewer than 2 knots remain after trimming")
    meta = {
        "construction": "dirichlet_like",
        "alpha": alpha,
        "qmax": qmax,
        "fractions": len(fracs),
        "widened_window": widened,
        "trimmed_pairs": trimmed,
    }
    return _finalize(N, alpha, knots, hit_data, step_f, meta)


def construct_small_alpha(N: int, alpha: float) -> ConvexSequence:
    """Lattice-walk construction with ~ N^alpha certified hits, alpha <= 1/2.

    Knot j sits on the lattice at y_j = j*ell*N^{-alpha} (ell a stride, 1 for
    alpha < 1/2) with x-gaps k_j/N, k_j ~ N*ell*N^{-alpha}/s chosen so the
    chord slopes follow sqrt(s0^2 + 2cy), the slope profile of constant
    curvature c.  Gaps are forced strictly decreasing, so chords strictly
    increase and the knots are convex-interpolable; the stride makes the
    natural decrement >= 1 so forcing never distorts the profile.
    """
    if N < 10:
        raise ValueError("need N >= 10")
    if not 0.0 <= alpha <= 0.5:
        raise ValueError("alpha must lie in [0, 1/2]")
    step_q, _ = _lattice_step(N, alpha)
    step_f = float(step_q)
    ell = max(
        1,
        math.ceil(
            math.sqrt(2 * _WALK_S_MAX**3 / _WALK_CURV * N ** (2 * alpha - 1))
        ),
    )
    dy = ell * step_f
    s0 = max(0.5, 1.25 * dy)

    # walk: integer gaps k_j, strictly decreasing, slope profile sqrt(s0^2+2cy)
    gaps: list[int] = []
    j = 0
    span = 1  # in units of 1/N; starts at x = 1/N
    while True:
        s_mid = math.sqrt(s0**2 + 2 * _WALK_CURV * (j + 0.5) * dy)
        if s_mid > _WALK_S_MAX and j >= 1:
            break
        k = max(1, round(N * dy / min(s_mid, _WALK_S_MAX)))
        if gaps:
            k = min(k, gaps[-1] - 1)
        if k < 1 or (span + k) / N > _SPAN_CAP:
            break
        gaps.append(k)
        span += k
        j += 1
    if not gaps:
        raise ConstructionError(
            f"no admissible gap at N={N}, alpha={alpha}; N too small"
        )

    # chords c_j = dy/(k_j/N); knot slopes = midpoints of adjacent chords,
    # ends extrapolated by half the neighboring chord increment
    chords = [dy * N / k for k in gaps]
    P = len(gaps)
    slopes = []
    for i in range(P + 1):
        if 0 < i < P:
            slopes.append(0.5 * (chords[i - 1] + chords[i]))
        elif i == 0:
            d = (chords[1] - chords[0]) if P > 1 else _WALK_CURV * gaps[0] / N
            slopes.append(chords[0] - 0.5 * d)
        else:
            d = (chords[-1] - chords[-2]) if P > 1 else _WALK_CURV * gaps[-1] / N
            slopes.append(chords[-1] + 0.5 * d)
    if slopes[0] <= 0:
        raise ConstructionError("slope extrapolation fell below zero")

    knots = [Knot(x=1 / N, y=0.0, p=slopes[0])]
    hit_data = [(1, 0)]
    n_idx = 1
    for i, k in enumerate(gaps):
        n_idx += k
        knots.append(Knot(x=n_idx / N, y=(i + 1) * dy, p=slopes[i + 1]))
        hit_data.append((n_idx, (i + 1) * ell))
    meta = {
        "construction": "small_alpha",
        "alpha": alpha,
        "stride": ell,
        "curvature": _WALK_CURV,
    }
    return _finalize(N, alpha, knots, hit_data, step_f, meta)


def construct(N: int, alpha: float) -> ConvexSequence:
    """The construction for alpha: mediants from 1/2 up, the lattice walk below."""
    if not 0.0 <= alpha <= 2.0:  # also rejects NaN
        raise ValueError(f"alpha must be a finite number in [0, 2], got {alpha}")
    if alpha >= 0.5:
        return construct_dirichlet_like(N, alpha)
    return construct_small_alpha(N, alpha)


def shear(seq: ConvexSequence, lam: float) -> ConvexSequence:
    """Add lam*n to every value; second differences are preserved exactly.

    Hits are dropped (the values move off the lattice); callers that rely on
    the pre-shear lattice structure must keep the original certificates.
    """
    if lam == 0.0:
        return seq
    n = np.arange(1, seq.N + 1)
    if seq.exact_values is not None:
        lq = Q(lam)
        exact = [v + lq * int(i) for v, i in zip(seq.exact_values, n)]
        values = np.asarray([float(v) for v in exact])
    else:
        exact = None
        values = seq.values + lam * n
    meta = dict(seq.meta, shear=seq.meta.get("shear", 0.0) + lam)
    return ConvexSequence(
        N=seq.N, values=values, exact_values=exact, hits=None, theta=seq.theta, meta=meta
    )


def restrict_rescale(seq: ConvexSequence, beta: float) -> ConvexSequence:
    """First ceil(N^beta) terms scaled by N^{1-beta}.

    The result has length parameter Ntil = ceil(N^beta) and second-difference
    parameter theta = N^{beta-1}: first differences stay in [1/(4*Ntil),
    4/Ntil] while second differences move to [theta/(4*Ntil^2),
    4*theta/Ntil^2].  Hits survive (indices <= Ntil) with the same multiplier
    at lattice level alpha~ = (alpha + beta - 1)/beta.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if not validate(seq).passed:
        raise ValueError("restrict_rescale needs a uniformly convex input")
    bq = Q(beta).limit_denominator(10**6)
    nb, nb_exact = power_value(seq.N, bq)
    if beta * float(nb) < 3:
        raise ValueError(f"beta*N^beta = {beta * float(nb):.3g} < 3: output too short")
    n_til = power_floor(seq.N, bq)
    if not (nb_exact and nb.denominator == 1 and nb == n_til):
        n_til += 1  # ceil
    factor_q, factor_exact = power_value(seq.N, 1 - bq)
    factor = float(factor_q)
    theta = 1.0 / factor
    if seq.exact_values is not None and factor_exact:
        exact = [v * factor_q for v in seq.exact_values[:n_til]]
        values = np.asarray([float(v) for v in exact])
    else:
        exact = None
        values = seq.values[:n_til] * factor
    hits = None
    if seq.hits is not None:
        hits = [
            replace(h, alpha=(h.alpha + beta - 1) / beta)
            for h in seq.hits
            if h.n <= n_til
        ]
    meta = dict(seq.meta, restricted_beta=beta, parent_N=seq.N)
    return ConvexSequence(
        N=n_til, values=values, exact_values=exact, hits=hits, theta=theta, meta=meta
    )


def quadratic_example(N: int) -> ConvexSequence:
    """The model sequence a_n = n/(2N) + n^2/(2N^2), kept exact."""
    exact = [Q(n, 2 * N) + Q(n * n, 2 * N * N) for n in range(1, N + 1)]
    values = np.asarray([float(v) for v in exact])
    return ConvexSequence(
        N=N, values=values, exact_values=exact, meta={"construction": "quadratic"}
    )
