"""Uniformly convex sequences and their lattice intersections.

A length-N sequence a_1 < ... < a_N is uniformly convex when its first
differences lie in [1/(4N), 4/N] and its second differences in
[1/(4N^2), 4/N^2].  The constructions here produce such sequences with many
values on the lattice N^{-alpha} * Z, certified exactly: each hit stores the
integer (or rational) multiplier, so membership never rests on a float.

Two constructions are provided.  construct_dirichlet_like (alpha in [1/2, 2])
follows the mediant pipeline: enumerate the fractions with small denominator
in a window of width ~ N^{alpha-1}, rewrite each consecutive pair with
integer multipliers so both denominators are comparable, and read knots off
the cumulative mediants; the interpolation module turns the knots into a C2
convex function that is then sampled at n/N.
construct_small_alpha (alpha in [0, 1/2]) walks the lattice directly: it
places knots on consecutive (strided) lattice values with x-gaps following a
constant-curvature profile, which yields ~ N^alpha hits.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .interp import build_c1, upgrade_c2
from .rational import Q, enumerate_fractions, power_floor, power_value


class ConstructionError(ValueError):
    """The construction cannot proceed for these parameters."""


@dataclass(frozen=True)
class LatticeHit:
    """Certificate that a_n = (num/den) * N^{-alpha} exactly."""

    n: int
    alpha: float
    num: int
    den: int = 1


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
    """Immutable copy of a value sequence a_1..a_N with optional exact data.

    exact_values, when present, are the rationals the floats came from; hits
    are exact lattice-membership certificates at their indices.  meta records
    how the sequence was made (construction, scale, shear, ...).
    """

    N: int
    values: np.ndarray
    exact_values: list[Q] | None = None
    hits: list[LatticeHit] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.array(self.values, dtype=float)
        if len(self.values) != self.N:
            raise ValueError(f"expected {self.N} values, got {len(self.values)}")
        if self.exact_values is not None and len(self.exact_values) != self.N:
            raise ValueError("exact_values length mismatch")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"a_{bad[0] + 1} is {self.values[bad[0]]}")
        self.values.setflags(write=False)

    def to_csv(self, path: str) -> None:
        """Write CRLF rows n,a_n,exact_num,exact_den: a_n is the float's repr, and
        the exact columns are empty when the sequence has no exact values."""
        ratios = ([q.as_integer_ratio() for q in self.exact_values]
                  if self.exact_values is not None else [("", "")] * self.N)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "a_n", "exact_num", "exact_den"])
            w.writerows(zip(range(1, self.N + 1), map(repr, self.values.tolist()), *zip(*ratios)))

    def hits_to_json(self, path: str) -> None:
        """Write json.dumps([vars(h) for h in hits], indent=2, sort_keys=True) for hits
        with int n, num, den and int or float alpha, without json's slow encoder."""
        body = ",\n".join(
            '  {\n    "alpha": %s,\n    "den": %s,\n    "n": %s,\n    "num": %s\n  }' % (
                float.__repr__(h.alpha) if isinstance(h.alpha, float) else h.alpha,  # as json
                h.den, h.n, h.num) for h in self.hits or [])
        with open(path, "w") as fh:
            fh.write(f"[\n{body}\n]" if body else "[]")

    @classmethod
    def from_csv(cls, path: str, hits_path: str | None = None) -> "ConvexSequence":
        """Read rows as csv.DictReader does: the first line names the columns (the last of
        a name counts), blank lines are skipped, missing fields are None, extras ignored."""
        values = []
        exact: list[Q] | None = []
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, field too long
            raise ValueError(f"{path}: {exc}") from None
        header = rows[0] if rows else []
        col = {name: i for i, name in enumerate(header)}
        if "a_n" not in col:
            raise ValueError(f"{path}: no a_n column")
        a, num, den = col["a_n"], col.get("exact_num"), col.get("exact_den")
        for row in filter(None, rows[1:]):  # blank lines are empty rows
            row += [None] * (len(header) - len(row))  # a missing field reads as None
            try:
                v = float(row[a])
                if not math.isfinite(v):
                    raise ValueError(f"a_n is {v}")
                if exact is not None and num is not None and row[num]:
                    q = Q(int(row[num]), int(None if den is None else row[den]))
                    # validate reads q and interp reads v: they must agree
                    if float(q) != v:
                        raise ValueError(f"a_n = {v!r} is not the float of {q}")
                    exact.append(q)
                else:
                    exact = None
            except ZeroDivisionError:
                raise ValueError(f"{path}: row {len(values) + 1}: exact_den is 0") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: row {len(values) + 1}: {exc}") from None
            values.append(v)
        hits = None
        if hits_path is not None:
            with open(hits_path) as fh:
                try:
                    raw = json.load(fh)
                except (ValueError, RecursionError) as exc:  # syntax, nesting, not UTF-8
                    raise ValueError(f"{hits_path}: {exc}") from None
            hits = []
            try:
                for h in raw:
                    hits.append(_checked_hit(LatticeHit(**h), values, exact))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{hits_path}: hit {len(hits) + 1}: {exc}") from None
        return cls(N=len(values), values=values, exact_values=exact, hits=hits)


def _tightest_C(N: int, theta, d1_min, d1_max, d2_min, d2_max):
    """Smallest C with first diffs in [1/(CN), C/N], second in [th/(CN^2), C*th/N^2].

    Stays in exact arithmetic when the inputs are rationals, so the pass
    verdict can be decided without rounding.
    """
    if d1_min <= 0 or d2_min <= 0:
        return math.inf
    return max(
        N * d1_max,
        1 / (N * d1_min),
        N * N * d2_max / theta,
        theta / (N * N * d2_min),
    )


def validate(seq: ConvexSequence, theta: float = 1.0) -> dict:
    """Check the uniform-convexity windows and report the tightest constant.

    theta rescales the second-difference window to [theta/(CN^2), C theta/N^2];
    the default 1 is the uniformly convex class.  Exact values are used when
    available, so the pass/fail verdict does not hinge on float rounding.
    Returns the dict validate prints: the extreme first and second
    differences, tightest_C, pass (tightest_C <= 4) and theta.
    """
    if seq.N < 3:
        raise ValueError("need N >= 3 for second differences")
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be finite and > 0, got {theta}")
    exact = seq.exact_values is not None
    d1 = np.diff(np.array(seq.exact_values, dtype=object) if exact else seq.values)
    d2 = np.diff(d1)
    # Python scalars, so Fractions stay exact and floats overflow to inf quietly
    lims = np.array([d1.min(), d1.max(), d2.min(), d2.max()]).tolist()
    C = _tightest_C(seq.N, Q(theta) if exact else theta, *lims)
    d1_min, d1_max, d2_min, d2_max = map(float, lims)
    return {
        "first_diff_min": d1_min,
        "first_diff_max": d1_max,
        "second_diff_min": d2_min,
        "second_diff_max": d2_max,
        # null when no finite C exists (the sequence is not increasing
        # and strictly convex)
        "tightest_C": float(C) if C < math.inf else None,
        "pass": bool(C <= 4),
        "theta": theta,
    }


def _lattice_step(N: int, alpha: float) -> tuple[Q, bool]:
    """N^{-alpha} as (value, exact?) with float snap when irrational."""
    return power_value(N, -Q(alpha).limit_denominator(10**6))


def intersect_count(seq: ConvexSequence, alpha: float) -> tuple[int, list[int]]:
    """Count indices n with a_n on the lattice N^{-alpha} Z.

    Exact when the sequence carries exact_values and N^{-alpha} is rational,
    so a value a hair off the lattice does not count.  Otherwise a_n counts
    within 1e-9 * N^{-alpha} of the lattice.  Returns (count, 1-based indices).
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("alpha must lie in [0, 2]")
    step_q, step_exact = _lattice_step(seq.N, alpha)
    if seq.exact_values is not None and step_exact:
        on = [(v / step_q).denominator == 1 for v in seq.exact_values]
    else:
        step = float(step_q)
        m = np.round(seq.values / step)
        on = np.abs(seq.values - m * step) <= 1e-9 * step
    idx = [int(i) + 1 for i in np.flatnonzero(on)]
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
    knots: list[tuple[float, float, float]],
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


def _mediant_step(
    n1: int, d1: int, n2: int, d2: int, sn: int, sd: int
) -> tuple[int, int]:
    """(k, M): the mediant of n1/d1 < n2/d2 after expanding both to Delta.

    With Delta = (sn/sd)/(d1*d2), each term is rewritten with the least
    multiplier m_i >= 1 for which d_i*m_i >= Delta, m_i = ceil(Delta/d_i); then
    k = d1*m1 + d2*m2 and M = n1*m1 + n2*m2, not reduced.  The expansions are
    value-preserving, so M/k lies strictly between the terms.  Integer
    arithmetic throughout; ConstructionError when the terms are out of order
    or some d_i*m_i exceeds 2*Delta (only when d_i > 2*Delta).
    """
    if n1 * d2 >= n2 * d1:
        raise ConstructionError(f"pair {n1}/{d1}, {n2}/{d2} is not increasing")
    den = sd * d1 * d2  # Delta = sn/den
    m1 = max(1, -(-sn // (den * d1)))
    m2 = max(1, -(-sn // (den * d2)))
    if max(d1 * m1, d2 * m2) * den > 2 * sn:
        raise ConstructionError(
            f"pair {n1}/{d1}, {n2}/{d2}: a denominator exceeds 2*Delta, "
            f"Delta = {sn / den:.6g}"
        )
    return d1 * m1 + d2 * m2, n1 * m1 + n2 * m2


def construct_dirichlet_like(N: int, alpha: float) -> ConvexSequence:
    """Mediant construction with ~ N^{(alpha+1)/3} certified hits.

    Pipeline: fractions r_i with denominator <= floor(N^{(2-alpha)/3}) in
    [N^{alpha-1}/3, 2N^{alpha-1}/3]; per pair, Delta_i = N^{2-alpha} *
    (r_{i+1}-r_i), both endpoints expanded to denominators in
    [Delta_i, 2*Delta_i], mediant M_i/k_i of the expansions (_mediant_step,
    in integers); knot i at x = (sum k_j)/N, y = (sum M_j)/N^alpha with slope
    r_{i+1} * N^{1-alpha} (the slope attached to a knot is the NEXT pair's
    left fraction: the chord over pair i is the mediant, which lies in
    (r_i, r_{i+1}), so this choice brackets every chord).  An origin knot (0, 0) with slope r_1 * N^{1-alpha}
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
    terms = enumerate_fractions(lo, hi, qmax)  # (num, den) pairs: the pair step is in integers
    if len(terms) < 2:
        widened = True
        hi = 4 * w / 3
        terms = enumerate_fractions(lo, hi, qmax)
    if len(terms) < 2:
        raise ConstructionError(
            f"only {len(terms)} fractions with denominator <= {qmax} in the "
            f"window; N={N} too small for alpha={alpha}"
        )
    scale2, _ = power_value(N, 2 - aq)
    slope_f = float(power_value(N, 1 - aq)[0])
    step_q, _ = _lattice_step(N, alpha)
    step_f = float(step_q)

    sn, sd = scale2.numerator, scale2.denominator
    n0, d0 = terms[0]
    knots = [(0.0, 0.0, n0 / d0 * slope_f)]  # (x, y, p)
    hit_data: list[tuple[int, int]] = []
    X = Y = 0  # cumulative integer sums of k_j and M_j
    trimmed = 0
    for (n1, d1), (n2, d2) in zip(terms, terms[1:]):
        k, M = _mediant_step(n1, d1, n2, d2, sn, sd)
        if X + k > N:  # past the sampling range: trim this and the rest
            trimmed = len(terms) - 1 - len(hit_data)
            break
        X += k
        Y += M
        knots.append((X / N, Y * step_f, n2 / d2 * slope_f))
        hit_data.append((X, Y))
    if len(knots) < 2:
        raise ConstructionError("fewer than 2 knots remain after trimming")
    meta = {
        "construction": "dirichlet_like",
        "alpha": alpha,
        "qmax": qmax,
        "fractions": len(terms),
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
    natural decrement >= 1 so forcing never distorts the profile.  A gap
    never shrinks so fast that the discrete curvature between consecutive
    chords exceeds c; where even a decrement of 1 would, the walk stops.
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
            # raise k toward the last gap until the discrete curvature
            # between their chords is at most _WALK_CURV, else stop
            kp = gaps[-1]
            k = min(k, kp - 1)
            while 0 < k < kp and 2 * N**2 * dy * (1 / k - 1 / kp) / (kp + k) > _WALK_CURV:
                k += 1
            if k == kp:
                break
        if k < 1 or (span + k) / N > _SPAN_CAP:
            break
        gaps.append(k)
        span += k
        j += 1
    if not gaps:
        raise ConstructionError(
            f"no admissible gap at N={N}, alpha={alpha}; N too small"
        )

    # chords c_j = dy/(k_j/N); a knot between gaps k-, k+ takes the slope of
    # the parabola through its two chords, (k+ c- + k- c+)/(k- + k+), and the
    # end slopes are extrapolated on the end parabolas (one gap: curvature c)
    chords = [dy * N / k for k in gaps]
    if len(gaps) == 1:
        d = _WALK_CURV * gaps[0] / N
        slopes = [chords[0] - 0.5 * d, chords[0] + 0.5 * d]
    else:
        pairs = list(zip(gaps, gaps[1:], chords, chords[1:]))
        k0, k1, c0, c1 = pairs[0]
        slopes = [c0 - (c1 - c0) * k0 / (k0 + k1)]
        slopes += [(k1 * c0 + k0 * c1) / (k0 + k1) for k0, k1, c0, c1 in pairs]
        k0, k1, c0, c1 = pairs[-1]
        slopes.append(c1 + (c1 - c0) * k1 / (k0 + k1))
    if slopes[0] <= 0:
        raise ConstructionError("slope extrapolation fell below zero")

    knots = [(1 / N, 0.0, slopes[0])]  # (x, y, p)
    hit_data = [(1, 0)]
    n_idx = 1
    for i, k in enumerate(gaps):
        n_idx += k
        knots.append((n_idx / N, (i + 1) * dy, slopes[i + 1]))
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
        N=seq.N, values=values, exact_values=exact, hits=None, meta=meta
    )
