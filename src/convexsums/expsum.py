"""Exponential sums f(x,t) = sum_n b_n e(x xi_n + t eta_n) on grids.

e(x) means e^{2 pi i x}.  Evaluation reduces every phase modulo 1 in extended
precision (np.longdouble) BEFORE exponentiating: t runs up to N^2 and the
frequencies are O(1), so raw phases reach ~2^26 and double precision would
keep only ~27 bits of the fractional part.  With the 64-bit longdouble
mantissa the fractional part keeps ~1e-12 absolute accuracy in the worst
case, and phases that are exact integers (the experiments' identity points,
where all inputs are dyadic rationals) reduce to exactly zero.

Grid rows come from one of two paths, chosen from the spec and the grid
alone.  When xi_n = n/N and the x-grid is the uniform right-open grid on
[0, N), the row f(., t) is Mx times an inverse DFT of the coefficient vector
c_n = b_n e(t eta_n) folded into length Mx (folding n mod Mx is exact
because e(k n / Mx) only depends on n mod Mx).  Otherwise each term splits
as e(x xi_n) e(t eta_n), and a block of rows is one matrix product of the
two factors restricted to the nonzero coefficients.

All reductions (max, ordered sums) use a fixed partition of the t-rows into
blocks combined in block order, so results are independent of thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_BUDGET = 2**24  # max total grid nodes Mx * Mt
_BLOCK_ROWS = 256


def _frac(a: np.ndarray) -> np.ndarray:
    return a - np.floor(a)


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

    def norm_b1(self) -> float:
        return float(np.sum(np.abs(self.b)))

    def norm_b2(self) -> float:
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
        return {
            "x_lo": self.x_lo,
            "x_hi": self.x_hi,
            "Mx": self.Mx,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "Mt": self.Mt,
        }


def canonical_grid(N: int, budget: int = DEFAULT_BUDGET) -> GridSpec:
    """x on [0, N) with 4N points; t on [0, N^2) with 4N^2 points, capped.

    The cap divides the node budget by Mx; under-resolving t only lowers the
    sup, so capped grids stay conservative for the lower-bound experiments.
    """
    Mx = 4 * N
    Mt = min(4 * N * N, max(1, budget // Mx))
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


def sup_norm_Lp(
    spec: ExpSumSpec,
    grid: GridSpec,
    sup_direction: str,
    p: float,
    threads: int | None = None,
) -> NormResult:
    """L^p Riemann norm over the outer variable of the inner-direction sup.

    sup_direction "t": outer variable x, value = (sum_x (max_t |f|)^p dx)^{1/p}.
    sup_direction "x": outer variable t, likewise with dt.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if sup_direction not in ("t", "x"):
        raise ValueError("sup_direction must be 't' or 'x'")

    if sup_direction == "t":
        def per_block(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            a = np.abs(m)
            return a.max(axis=0), a.argmax(axis=0)

        partials = _map_blocks(spec, grid, threads, per_block)
        sup_x = np.zeros(grid.Mx)
        arg_row = np.zeros(grid.Mx, dtype=np.int64)
        for bi, (mx, am) in enumerate(partials):
            better = mx > sup_x
            arg_row = np.where(better, am + bi * _BLOCK_ROWS, arg_row)
            sup_x = np.maximum(sup_x, mx)
        value = math.fsum(v**p for v in sup_x) * grid.dx
        k_star = int(np.argmax(sup_x))
        l_star = int(arg_row[k_star])
        max_abs = float(sup_x[k_star])
    else:
        def per_block(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            a = np.abs(m)
            return a.max(axis=1), a.argmax(axis=1)

        partials = _map_blocks(spec, grid, threads, per_block)
        sup_t = np.concatenate([mx for mx, _ in partials])
        arg_col = np.concatenate([am for _, am in partials])
        value = math.fsum(v**p for v in sup_t) * grid.dt
        l_star = int(np.argmax(sup_t))
        k_star = int(arg_col[l_star])
        max_abs = float(sup_t[l_star])
    return NormResult(
        value=float(value ** (1.0 / p)),
        p=p,
        sup_direction=sup_direction,
        argmax_x=grid.x_lo + k_star * grid.dx,
        argmax_t=grid.t_lo + l_star * grid.dt,
        max_abs=max_abs,
        grid=grid,
    )


def _level_masks(
    spec: ExpSumSpec,
    grid: GridSpec,
    direction: str,
    threads: int | None,
) -> tuple[np.ndarray, int, float]:
    """Per-outer-node bitmask of observed dyadic exponents, one streaming pass.

    Bit j of mask[node] is set when some inner node there has
    floor(log2 |f|) = k_min + j.  Returns (masks, k_min, max_abs).
    """
    k_top = math.ceil(math.log2(spec.norm_b1()))  # |f| <= ||b||_1 everywhere
    k_min = k_top - 62

    def per_block(m: np.ndarray):
        a = np.abs(m)
        pos = a > 0
        # floor(log2 a) via frexp: a = mant * 2^e, mant in [0.5, 1)
        _, e = np.frexp(np.where(pos, a, 1.0))
        k = np.clip(e - 1, k_min, k_top) - k_min
        bits = np.where(pos, np.uint64(1) << k.astype(np.uint64), np.uint64(0))
        out = np.bitwise_or.reduce(bits, axis=0 if direction == "t" else 1)
        return out, float(a.max())

    partials = _map_blocks(spec, grid, threads, per_block)
    max_abs = max(p[1] for p in partials)
    if direction == "t":
        masks = np.zeros(grid.Mx, dtype=np.uint64)
        for om, _ in partials:
            masks |= om
    else:
        masks = np.concatenate([om for om, _ in partials])
    return masks, k_min, max_abs


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
    the grid; dyadic_level_report gets all power-of-two bands in one pass.
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


def dyadic_level_report(
    spec: ExpSumSpec,
    grid: GridSpec,
    direction: str,
    levels: int = 40,
    threads: int | None = None,
) -> LevelSetReport:
    """Level-set projections for all dyadic bands, one pass over the grid.

    Bands are the half-open powers of two of LevelSetReport; see its caveat
    on a maximum that is itself a power of two.
    """
    if direction not in ("t", "x"):
        raise ValueError("direction must be 't' or 'x'")
    masks, k_min, max_abs = _level_masks(spec, grid, direction, threads)
    cell = grid.dx if direction == "t" else grid.dt
    exponent = 7.0 / 3.0 if direction == "t" else 8.0 / 3.0
    denom = spec.N**exponent * spec.norm_b2() ** 4
    k_hi = math.floor(math.log2(max_abs)) if max_abs > 0 else k_min
    alphas, measures, stats = [], [], []
    for k in range(k_hi, max(k_min, k_hi - levels) - 1, -1):
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
