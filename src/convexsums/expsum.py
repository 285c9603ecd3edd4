"""Exponential sums f(x,t) = sum_n b_n e(x xi_n + t eta_n) on grids.

e(x) means e^{2 pi i x}.  Evaluation reduces every phase modulo 1 in extended
precision (np.longdouble) BEFORE exponentiating: t runs up to N^2 and the
frequencies are O(1), so raw phases reach ~2^26 and double precision would
keep only ~27 bits of the fractional part.  With the 64-bit longdouble
mantissa the fractional part keeps ~1e-12 absolute accuracy in the worst
case, and phases that are exact integers (the experiments' identity points,
where all inputs are dyadic rationals) reduce to exactly zero.  The
reduction subtracts the nearest integer (rint) and adds 1 to negative
remainders, which gives a - floor(a) to the last bit at a fraction of the
cost of a longdouble floor.

Grid rows come from one of two paths, chosen from the spec and the grid
alone.  When xi_n = n/N and the x-grid is the uniform right-open grid on
[0, N), the row f(., t) is Mx times an inverse DFT of the coefficient vector
c_n = b_n e(t eta_n) folded into length Mx (folding n mod Mx is exact
because e(k n / Mx) only depends on n mod Mx).  Otherwise each term splits
as e(x xi_n) e(t eta_n), and a block of rows is one matrix product of the
two factors restricted to the nonzero coefficients.

One sweep over the grid serves both the sup-then-L^p norm and the dyadic
level sets: each block of rows is reduced once, from one |f| matrix, to its
per-outer-node max, argmax and bitmask of observed dyadic exponents.  All
reductions (max, bitwise-or, ordered sums) use a fixed partition of the
t-rows into blocks combined in block order, so results are independent of
thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

DEFAULT_BUDGET = 2**24  # max total grid nodes Mx * Mt
_BLOCK_ROWS = 256
_LEVELS = 40  # dyadic bands below the top one in a level report


def _frac(a: np.ndarray) -> np.ndarray:
    """a mod 1, equal to a - floor(a) to the last bit.

    f = a - rint(a) is exact (|f| <= 1/2 and f is a multiple of a's ulp), and
    where f < 0, f + 1 is the exact a - floor(a) rounded once, as the
    subtraction rounds it.  Longdouble rint is far cheaper than floor.
    """
    f = a - np.rint(a)
    np.add(f, 1, out=f, where=f < 0)
    return f


@dataclass(frozen=True)
class ExpSumSpec:
    """Frequencies and coefficients of one exponential sum."""

    N: int
    xi: np.ndarray
    eta: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        b = np.asarray(self.b, dtype=complex)
        if not (len(xi) == len(eta) == len(b) == self.N):
            raise ValueError("xi, eta, b must all have length N")
        if not np.any(b != 0):
            raise ValueError("coefficients are all zero")
        for name, arr in (("xi", xi), ("eta", eta), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(np.abs(b))):
                raise ValueError("||b||_1 overflows the float range")

    def norm_b1(self) -> float:
        return float(np.sum(np.abs(self.b)))

    def norm_b2(self) -> float:
        with np.errstate(over="ignore"):  # inf past 1.3e154; _level_report rejects it
            return float(np.sqrt(np.sum(np.abs(self.b) ** 2)))

    def support(self) -> np.ndarray:
        """Indices (0-based) of the nonzero coefficients."""
        return np.nonzero(self.b)[0]

    def has_canonical_xi(self) -> bool:
        return bool(np.array_equal(self.xi, np.arange(1, self.N + 1) / self.N))


@dataclass(frozen=True)
class GridSpec:
    """Uniform right-open grids: x_k = x_lo + k dx, t_l = t_lo + l dt."""

    x_lo: float
    x_hi: float
    Mx: int
    t_lo: float
    t_hi: float
    Mt: int

    def __post_init__(self) -> None:
        if self.Mx < 1 or self.Mt < 1:
            raise ValueError("Mx, Mt must be >= 1")
        if not (self.x_lo < self.x_hi and self.t_lo < self.t_hi):
            raise ValueError("empty grid ranges")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.Mx

    @property
    def dt(self) -> float:
        return (self.t_hi - self.t_lo) / self.Mt

    def x_nodes(self) -> np.ndarray:
        return self.x_lo + np.arange(self.Mx) * self.dx

    def t_nodes(self) -> np.ndarray:
        return self.t_lo + np.arange(self.Mt) * self.dt

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_budget(budget: int) -> int:
    """budget, once it is known to allow at least one grid node."""
    if budget < 1:
        raise ValueError(f"grid budget must be >= 1, got {budget}")
    return budget


def canonical_grid(N: int, budget: int = DEFAULT_BUDGET) -> GridSpec:
    """x on [0, N) with 4N points; t on [0, N^2) with 4N^2 points, capped.

    The cap divides the node budget by Mx.  With t the inner variable (sup
    over t), under-resolving t only lowers each sup, so the norm stays a
    lower bound.  With t the outer variable (sup over x, as in experiment B)
    the capped t-nodes make a Riemann sum that can alias against the sum's
    period and read high: B at N = 1024 takes its t-nodes at multiples of
    sqrt(N), where |f| attains the hit count, and reports 256.0 against
    246.83 over one full period.  Experiment C's own grid caps its outer
    variable in the same way.  The experiments sweep only one period of the
    outer nodes of these same grids, which gives the same numbers, so this
    note describes their reported norms too.
    """
    Mx = 4 * N
    Mt = min(4 * N * N, max(1, check_budget(budget) // Mx))
    return GridSpec(x_lo=0.0, x_hi=float(N), Mx=Mx, t_lo=0.0, t_hi=float(N * N), Mt=Mt)


def _threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    return min(8, os.cpu_count() or 1)


def eval_point(spec: ExpSumSpec, x: float, t: float) -> complex:
    """Direct evaluation at one point, ascending-n compensated summation."""
    idx = spec.support()
    xi = spec.xi[idx].astype(np.longdouble)
    eta = spec.eta[idx].astype(np.longdouble)
    phase = _frac(np.longdouble(x) * xi + np.longdouble(t) * eta).astype(float)
    terms = spec.b[idx] * np.exp(2j * math.pi * phase)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _fft_applies(spec: ExpSumSpec, grid: GridSpec) -> bool:
    return (
        spec.has_canonical_xi()
        and grid.x_lo == 0.0
        and grid.x_hi == float(spec.N)
    )


def _rows_fast(spec: ExpSumSpec, grid: GridSpec, t_index: np.ndarray) -> np.ndarray:
    """Rows via inverse DFT of the folded coefficient vector, batched over t."""
    idx = spec.support()
    eta = spec.eta[idx].astype(np.longdouble)
    fold = (idx + 1) % grid.Mx
    t_nodes = grid.t_lo + t_index.astype(np.longdouble) * np.longdouble(grid.dt)
    phase = _frac(t_nodes[:, None] * eta[None, :]).astype(float)
    vals = spec.b[idx][None, :] * np.exp(2j * math.pi * phase)
    c = np.zeros((len(t_index), grid.Mx), dtype=complex)
    np.add.at(c, (np.arange(len(t_index))[:, None], fold[None, :]), vals)
    return grid.Mx * np.fft.ifft(c, axis=1)


def _rows_naive(spec: ExpSumSpec, grid: GridSpec, t_index: np.ndarray) -> np.ndarray:
    """Rows as the product E_t @ E_x of the separable factors of each term.

    E_t[r, k] = b_k e(t_r eta_k) and E_x[k, c] = e(xi_k x_c), over the support.
    """
    idx = spec.support()
    xi = spec.xi[idx].astype(np.longdouble)
    eta = spec.eta[idx].astype(np.longdouble)
    x = grid.x_lo + np.arange(grid.Mx) * np.longdouble(grid.dx)
    t = grid.t_lo + t_index.astype(np.longdouble) * np.longdouble(grid.dt)
    e_x = np.exp(2j * math.pi * _frac(xi[:, None] * x[None, :]).astype(float))
    e_t = np.exp(2j * math.pi * _frac(t[:, None] * eta[None, :]).astype(float))
    return (spec.b[idx] * e_t) @ e_x


def _block_starts(Mt: int) -> list[int]:
    return list(range(0, Mt, _BLOCK_ROWS))


def _map_blocks(
    spec: ExpSumSpec,
    grid: GridSpec,
    threads: int | None,
    fn: Callable[[np.ndarray], object],
) -> list[object]:
    """Apply fn to each block of rows; results returned in block order.

    fn receives the (rows x Mx) complex matrix of one t-block.  The block
    partition is fixed by _BLOCK_ROWS, never by the thread count, so any
    order-sensitive combination downstream stays deterministic.
    """
    rows = _rows_fast if _fft_applies(spec, grid) else _rows_naive
    starts = _block_starts(grid.Mt)

    def run(s: int):
        t_index = np.arange(s, min(s + _BLOCK_ROWS, grid.Mt))
        return fn(rows(spec, grid, t_index))

    nt = _threads(threads)
    if nt == 1 or len(starts) == 1:
        return [run(s) for s in starts]
    with ThreadPoolExecutor(max_workers=nt) as ex:
        return list(ex.map(run, starts))


def eval_grid(
    spec: ExpSumSpec,
    grid: GridSpec,
    threads: int | None = None,
) -> np.ndarray:
    """Full (Mt x Mx) matrix of f on the grid.

    Intended for modest grids; the norm and level-set routines stream their
    rows instead of materializing this.
    """
    blocks = _map_blocks(spec, grid, threads, lambda m: m)
    return np.concatenate(blocks, axis=0)


@dataclass(frozen=True)
class NormResult:
    value: float
    p: float
    sup_direction: str
    argmax_x: float
    argmax_t: float
    max_abs: float
    grid: GridSpec

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "p": self.p,
            "direction": self.sup_direction,
            "argmax": {"x": self.argmax_x, "t": self.argmax_t, "abs_f": self.max_abs},
            "grid": self.grid.to_json_dict(),
        }


def _sweep(
    spec: ExpSumSpec,
    grid: GridSpec,
    direction: str,
    threads: int | None,
    with_levels: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, int]:
    """One streaming pass: per outer node, the sup of |f| over the inner variable.

    direction names the inner variable.  Returns (sup, arg, masks, k_min):
    arg[node] is the inner index attaining sup[node]; with with_levels, bit j
    of masks[node] is set when some inner node there has floor(log2 |f|) =
    k_min + j (masks is None otherwise).  Each block's |f| is formed once and
    reduced to all of these.
    """
    axis = 0 if direction == "t" else 1
    k_top = math.ceil(math.log2(spec.norm_b1()))  # |f| <= ||b||_1 everywhere
    k_min = k_top - 62

    def per_block(m: np.ndarray):
        a = np.abs(m)
        if axis == 0:
            # argmax along axis 0 copies its input to make that axis
            # contiguous; the bool matrix a == max is an eighth of the copy
            mx = a.max(axis=0)
            am = (a == mx).argmax(axis=0)
        else:
            am = a.argmax(axis=1)
            mx = np.take_along_axis(a, am[:, None], axis=1)[:, 0]
        if not with_levels:
            return mx, am, None
        # floor(log2 a) = e - 1 for a = mant * 2^e, mant in [0.5, 1)
        k = np.frexp(a)[1].astype(np.int64)
        k -= 1 + k_min
        np.clip(k, 0, k_top - k_min, out=k)
        bits = k.view(np.uint64)
        np.left_shift(np.uint64(1), bits, out=bits)
        bits[a == 0] = 0
        return mx, am, np.bitwise_or.reduce(bits, axis=axis)

    partials = _map_blocks(spec, grid, threads, per_block)
    masks = None
    if direction == "t":
        sup = np.zeros(grid.Mx)
        arg = np.zeros(grid.Mx, dtype=np.int64)
        for bi, (mx, am, _) in enumerate(partials):
            better = mx > sup
            arg = np.where(better, am + bi * _BLOCK_ROWS, arg)
            sup = np.maximum(sup, mx)
        if with_levels:
            masks = np.bitwise_or.reduce([om for _, _, om in partials])
    else:
        sup = np.concatenate([mx for mx, _, _ in partials])
        arg = np.concatenate([am for _, am, _ in partials])
        if with_levels:
            masks = np.concatenate([om for _, _, om in partials])
    return sup, arg, masks, k_min


def sup_norm_Lp(
    spec: ExpSumSpec,
    grid: GridSpec,
    sup_direction: str,
    p: float,
    threads: int | None = None,
    with_levels: bool = False,
) -> NormResult | tuple[NormResult, LevelSetReport]:
    """L^p Riemann norm over the outer variable of the inner-direction sup.

    sup_direction "t": outer variable x, value = (sum_x (max_t |f|)^p dx)^{1/p}.
    sup_direction "x": outer variable t, likewise with dt.
    with_levels: return (norm, dyadic_level_report(spec, grid, sup_direction))
    from the same single pass over the grid.  ValueError when the sum of
    (sup |f|)^p leaves the float range: inf, or 0 while max |f| > 0.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if sup_direction not in ("t", "x"):
        raise ValueError("sup_direction must be 't' or 'x'")

    sup, arg, masks, k_min = _sweep(spec, grid, sup_direction, threads, with_levels)
    cell = grid.dx if sup_direction == "t" else grid.dt
    try:
        with np.errstate(over="ignore"):
            value = math.fsum(v**p for v in sup) * cell
    except OverflowError:  # fsum's partial sums left the float range
        value = math.inf
    if value == math.inf or (value == 0 and sup.max() > 0):
        raise ValueError(
            f"(sup |f|)^p summed over the grid is {value} in floats at p = {p} "
            f"(max |f| = {sup.max()})"
        )
    outer = int(np.argmax(sup))
    inner = int(arg[outer])
    k_star, l_star = (outer, inner) if sup_direction == "t" else (inner, outer)
    norm = NormResult(
        value=float(value ** (1.0 / p)),
        p=p,
        sup_direction=sup_direction,
        argmax_x=grid.x_lo + k_star * grid.dx,
        argmax_t=grid.t_lo + l_star * grid.dt,
        max_abs=float(sup[outer]),
        grid=grid,
    )
    if not with_levels:
        return norm
    return norm, _level_report(spec, grid, sup_direction, masks, k_min, norm.max_abs)


def level_set_projection(
    spec: ExpSumSpec,
    grid: GridSpec,
    alpha: float,
    direction: str,
    threads: int | None = None,
) -> float:
    """Measure of outer-grid cells where some inner node has |f| in [a/2, a).

    direction names the collapsed (inner) variable: "t" projects along t onto
    the x-axis, "x" the other way.  Any alpha > 0 takes one banded pass over
    the grid; sup_norm_Lp(..., with_levels=True) gets all power-of-two bands
    in the same pass as the norm, and dyadic_level_report in one pass of its
    own.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if direction not in ("t", "x"):
        raise ValueError("direction must be 't' or 'x'")

    def per_block(m: np.ndarray) -> np.ndarray:
        a = np.abs(m)
        inband = (a >= alpha / 2) & (a < alpha)
        return inband.any(axis=0) if direction == "t" else inband.any(axis=1)

    partials = _map_blocks(spec, grid, threads, per_block)
    if direction == "t":
        hit = np.zeros(grid.Mx, dtype=bool)
        for h in partials:
            hit |= h
        cell = grid.dx
    else:
        hit = np.concatenate(partials)
        cell = grid.dt
    return float(np.count_nonzero(hit) * cell)


@dataclass(frozen=True)
class LevelSetReport:
    """Dyadic ladder of projected level-set measures with normalized stats.

    alphas[i] = 2^{k+1} stands for the band |f| in [2^k, 2^{k+1}); stat[i] =
    alpha^4 * measure / (N^{7/3} ||b||^4) for direction "t" (N^{8/3} for
    "x"), with ||b|| the coefficient l2 norm.

    Caveat: when max |f| is exactly a power of two 2^k (0/1 coefficients on
    2^k hits that align), the top band [2^k, 2^{k+1}) holds only the nodes
    that reach 2^k to the last bit, so its measure is set by rounding.  Read
    a statistic off a ladder anchored below the attained maximum (e.g.
    level_set_projection at ||b||_1 2^-j), not off that band.
    """

    direction: str
    alphas: list[float]
    measures: list[float]
    stats: list[float]
    max_stat: float
    max_abs: float
    grid: GridSpec

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "alphas": self.alphas,
            "measures": self.measures,
            "stats": self.stats,
            "max_stat": self.max_stat,
            "max_abs_f": self.max_abs,
            "grid": self.grid.to_json_dict(),
        }


def _level_report(
    spec: ExpSumSpec,
    grid: GridSpec,
    direction: str,
    masks: np.ndarray,
    k_min: int,
    max_abs: float,
) -> LevelSetReport:
    """The dyadic ladder read off the exponent bitmasks of _sweep."""
    cell = grid.dx if direction == "t" else grid.dt
    exponent = 7.0 / 3.0 if direction == "t" else 8.0 / 3.0
    try:
        b2_4 = spec.norm_b2() ** 4
    except OverflowError:
        b2_4 = math.inf
    if not 0 < b2_4 < math.inf:
        raise ValueError(f"||b||_2^4 = {b2_4} in floats (||b||_2 = {spec.norm_b2()})")
    denom = spec.N**exponent * b2_4
    k_hi = math.floor(math.log2(max_abs)) if max_abs > 0 else k_min
    alphas, measures, stats = [], [], []
    for k in range(k_hi, max(k_min, k_hi - _LEVELS) - 1, -1):
        bit = np.uint64(1) << np.uint64(k - k_min)
        measure = float(np.count_nonzero(masks & bit != 0) * cell)
        alpha = float(2.0 ** (k + 1))
        alphas.append(alpha)
        measures.append(measure)
        stats.append(alpha**4 * measure / denom)
    return LevelSetReport(
        direction=direction,
        alphas=alphas,
        measures=measures,
        stats=stats,
        max_stat=max(stats) if stats else 0.0,
        max_abs=max_abs,
        grid=grid,
    )


def dyadic_level_report(
    spec: ExpSumSpec,
    grid: GridSpec,
    direction: str,
    threads: int | None = None,
) -> LevelSetReport:
    """Level-set projections for all dyadic bands, one pass over the grid.

    The same sweep as sup_norm_Lp(..., with_levels=True), without the norm.
    Bands are the half-open powers of two of LevelSetReport; see its caveat
    on a maximum that is itself a power of two.
    """
    if direction not in ("t", "x"):
        raise ValueError("direction must be 't' or 'x'")
    sup, _, masks, k_min = _sweep(spec, grid, direction, threads, with_levels=True)
    return _level_report(spec, grid, direction, masks, k_min, float(sup.max()))
