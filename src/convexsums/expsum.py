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

Both grid-row paths start from the t-factors b_n e(t_l eta_n) of a block of
rows (_t_factors).  Row l = qH + j is the anchor b_n e(t_{qH} eta_n) times
the offset e(j dt eta_n), H = _ANCHOR_ROWS: one anchor column and one H x K
offset table per sweep in place of one exponential per row and term.  The
product rounds twice more than the direct exponential of t_l eta_n, a few
ulp of |b_n|; the anchor and offset phases carry fewer bits than t_l eta_n,
so where that product overflows the longdouble mantissa (power-of-two dt,
rows l >= 2^11) the factored phases are the more accurate ones.  When the
anchors repeat bit for bit every Q anchors (_period_rows), row l is row
l mod R, R = QH, to the last bit, and a sweep evaluates rows [0, R) only.

Grid rows come from one of two paths, chosen from the spec and the grid
alone.  When xi_n = n/N and the x-grid is the uniform right-open grid on
[0, N), the row f(., t) is the unnormalised inverse DFT (no 1/Mx factor) of
the t-factors folded into length Mx (folding n mod Mx is exact because
e(k n / Mx) only depends on n mod Mx).  At power-of-two Mx that is Mx times
the normalised inverse DFT to the bit; at other Mx it skips the 1/Mx, Mx
round trip and may differ by an ulp.  Otherwise each term splits as
e(x xi_n) e(t eta_n), and a block of rows is one matrix product of the
t-factors and the x-factors, restricted to the nonzero coefficients.

A sweep streams the t-rows in blocks of at most _BLOCK_NODES nodes, so that
a block's arrays stay cache-sized.  A separable block of K terms holds at
most max(2, (2^16 - 1) // (K Mx)) rows: OpenBLAS hands a complex product of
m n k >= 2^16 to a helper thread, which spins on after the call; a product
with K Mx >= 2^15 reaches that size at 2 rows and is left to it.  The
arrays of the spec (support, frequencies, folds, x-factors, anchors and
offsets) are built once per sweep.

One sweep over the grid serves both the sup-then-L^p norm and the level
sets: each block of rows is reduced once, from one |f| matrix, to its
per-outer-node max, its first maximum (outer node first, then inner) and
the bitmask of observed rungs of a ladder anchored at a float A, rung j
holding |f| in [A 2^-j-1, A 2^-j).  A rung is read off the IEEE-754 bit
patterns of A and |f| with one integer subtract and shift, in |f|'s own
memory once the maxima are read.  The reductions are exact (max, first
argmax, bitwise-or) and combined in block order, and a row's bits do not
depend on the block that holds it, so results are independent of the thread
count and of the block partition.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

DEFAULT_BUDGET = 2**24  # max total grid nodes Mx * Mt
_BLOCK_NODES = 2**17  # grid nodes per row block: a block's arrays stay cache-sized
_BLOCK_ROWS = 256  # row cap at small Mx; OpenBLAS threads by m n k, see _block_rows
_ANCHOR_ROWS = 64  # t-rows per anchor exponential; 128 moves levels-A's top dyadic band
_LEVELS = 40  # rungs below the top one in a level report


def _frac(a: np.ndarray) -> np.ndarray:
    """a mod 1, equal to a - floor(a) to the last bit.

    f = a - rint(a) is exact (|f| <= 1/2 and f is a multiple of a's ulp), and
    where f < 0, f + 1 is the exact a - floor(a) rounded once, as the
    subtraction rounds it.  Longdouble rint is far cheaper than floor.
    """
    f = a - np.rint(a)
    np.add(f, 1, out=f, where=f < 0)
    return f


@dataclass(frozen=True, eq=False)
class ExpSumSpec:
    """Frequencies and coefficients of one exponential sum; == and hash by identity."""

    N: int
    xi: np.ndarray
    eta: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        # copies, so freezing them leaves the caller's arrays writable
        xi = np.array(self.xi, dtype=float)
        eta = np.array(self.eta, dtype=float)
        b = np.array(self.b, dtype=complex)
        for name, arr in (("xi", xi), ("eta", eta), ("b", b)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
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
    variable in the same way.  The experiments sweep only one cell of f's
    translation lattice on these same grids, which gives the same numbers,
    so this note describes their reported norms too.
    """
    Mx = 4 * N
    Mt = min(4 * N * N, max(1, check_budget(budget) // Mx))
    return GridSpec(x_lo=0.0, x_hi=float(N), Mx=Mx, t_lo=0.0, t_hi=float(N * N), Mt=Mt)


def _threads(threads: int | None) -> int:
    """threads, at most the CPUs this process may run on; by default those
    CPUs, at most 8.  So no thread count starts more workers than can run."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(8, cpus) if threads is None else max(1, min(threads, cpus))


def eval_point(
    spec: ExpSumSpec, x: float | np.ndarray, t: float | np.ndarray
) -> complex | list[complex]:
    """Direct evaluation, ascending-n compensated summation.

    x and t are floats, giving f(x, t) as a complex, or equal-length 1-D
    arrays, giving the list [f(x_i, t_i)].  The phases, exponentials and
    products are element-wise and each point is summed by its own fsum in
    ascending n, so every point gets the bits of the call with its floats.
    """
    xs, ts = np.asarray(x, dtype=np.longdouble), np.asarray(t, dtype=np.longdouble)
    if xs.shape != ts.shape or xs.ndim > 1:
        raise ValueError("x and t must be floats or 1-D arrays of equal length")
    idx = spec.support()
    xi = spec.xi[idx].astype(np.longdouble)
    eta = spec.eta[idx].astype(np.longdouble)
    phase = _frac(xs[..., None] * xi + ts[..., None] * eta).astype(float)
    terms = spec.b[idx] * np.exp(2j * math.pi * phase)
    sums = [complex(math.fsum(row.real), math.fsum(row.imag))
            for row in terms.reshape(-1, len(idx))]
    return sums if xs.ndim else sums[0]


def _fft_applies(spec: ExpSumSpec, grid: GridSpec) -> bool:
    """FFT rows need x over [0, N) and the canonical xi_n = n/N."""
    N = spec.N
    return (grid.x_lo == 0.0 and grid.x_hi == float(N)
            and np.array_equal(spec.xi, np.arange(1, N + 1) / N))


def _e(eta: np.ndarray, t: np.ndarray) -> np.ndarray:  # e(t_i eta_n), t longdouble, by _frac
    vals = 2j * math.pi * _frac(t[:, None] * eta.astype(np.longdouble)).astype(float)
    return np.exp(vals, out=vals)


def _anchors(spec: ExpSumSpec, grid: GridSpec) -> np.ndarray:
    """The anchors b_n e(t_{qH} eta_n), q = 0 ... ceil(Mt / H) - 1, over the support."""
    idx = spec.support()
    t = grid.t_lo + np.arange(0, grid.Mt, _ANCHOR_ROWS) * np.longdouble(grid.dt)
    a = _e(spec.eta[idx], t)
    return np.multiply(spec.b[idx], a, out=a)


def _period_rows(anchors: np.ndarray, Mt: int) -> int:
    """R = min(Mt, Q H): row l of the t-factors is row l mod R to the bit, Q >= 1
    the least shift with anchors[q] == anchors[q-Q] bit for bit for every q (else
    R = Mt), tried where anchors[Q] == anchors[0].  One anchor has no shift: R = Mt."""
    a = anchors.view(np.int64)
    shifts = np.flatnonzero((a[1:] == a[0]).all(axis=1)) + 1
    return next((min(Mt, int(Q) * _ANCHOR_ROWS) for Q in shifts
                 if np.array_equal(a[Q:], a[:-Q])), Mt)


def _t_factors(
    spec: ExpSumSpec, grid: GridSpec, anchors: np.ndarray
) -> Callable[[int, int], np.ndarray]:
    """factors(s, r): the (r x K) matrix b_n e(t_l eta_n), rows l = s ... s + r - 1.

    Columns run over the support.  Row l = q H + j, H = _ANCHOR_ROWS, is the
    product of anchors[q] = b_n e(t_{qH} eta_n), from _anchors, and the offset
    e(j dt eta_n), from a table built once; anchors sit at fixed multiples of
    H, so a row's bits do not depend on the rows asked for with it.
    """
    idx, H = spec.support(), _ANCHOR_ROWS
    offsets = _e(spec.eta[idx], np.arange(min(H, grid.Mt)) * np.longdouble(grid.dt))

    def factors(s: int, r: int) -> np.ndarray:
        out = np.empty((r, len(idx)), dtype=complex)
        for q in range(s // H, (s + r - 1) // H + 1):
            lo, hi = max(s, q * H), min(s + r, q * H + H)
            np.multiply(anchors[q], offsets[lo - q * H:hi - q * H], out=out[lo - s:hi - s])
        return out

    return factors


_Rows = Callable[[int, np.ndarray], np.ndarray]  # rows(s, out): t-rows s, s + 1, ... into out


def _rows_fast(spec: ExpSumSpec, grid: GridSpec, anchors: np.ndarray) -> _Rows:
    """Row writer via the unnormalised inverse DFT of the folded coefficients.

    Returns rows(s, out), which writes the t-rows s, s + 1, ... into the
    (rows x Mx) complex array out and returns it: the terms b_n e(t eta_n) of
    _t_factors are scattered into out at flat index row * Mx + (n mod Mx),
    summing folds that collide, and out is inverse-transformed in place with
    no 1/Mx factor.
    """
    idx = spec.support()
    fold = (idx + 1) % grid.Mx
    factors = _t_factors(spec, grid, anchors)

    def rows(s: int, out: np.ndarray) -> np.ndarray:
        r = len(out)
        vals = factors(s, r)
        out.fill(0)
        flat = (np.arange(r) * grid.Mx)[:, None] + fold
        np.add.at(out.reshape(-1), flat.reshape(-1), vals.reshape(-1))  # 1-D: numpy's fast path
        return np.fft.ifft(out, axis=1, norm="forward", out=out)

    return rows


def _rows_naive(spec: ExpSumSpec, grid: GridSpec, anchors: np.ndarray) -> _Rows:
    """Row writer for the product E_t @ E_x of the separable factors of each term.

    E_t[r, k] = b_k e(t_r eta_k), from _t_factors, and E_x[k, c] = e(xi_k x_c),
    over the support; E_x is built once per call.  rows(s, out) is as for
    _rows_fast.
    """
    idx = spec.support()
    xi = spec.xi[idx].astype(np.longdouble)
    x = grid.x_lo + np.arange(grid.Mx) * np.longdouble(grid.dx)
    e_x = np.exp(2j * math.pi * _frac(xi[:, None] * x[None, :]).astype(float))
    factors = _t_factors(spec, grid, anchors)

    def rows(s: int, out: np.ndarray) -> np.ndarray:
        e_t = factors(s, len(out))
        if len(out) > 1:
            return np.matmul(e_t, e_x, out=out)
        # numpy takes a one-row product to gemv, which rounds otherwise than
        # gemm: row 0 of a two-row product keeps each row's bits off its block
        out[:] = np.matmul(np.repeat(e_t, 2, axis=0), e_x)[:1]
        return out

    return rows


def _block_rows(Mx: int, K: int | None = None) -> int:
    """Rows per block: at most _BLOCK_NODES nodes and _BLOCK_ROWS rows, and for a
    separable product over K terms at most max(2, (2^16 - 1) // (K Mx)) rows."""
    h = min(_BLOCK_ROWS, max(1, _BLOCK_NODES // Mx))
    return h if K is None else min(h, max(2, (2**16 - 1) // (K * Mx)))


def _map_blocks(
    spec: ExpSumSpec,
    grid: GridSpec,
    threads: int | None,
    block: Callable[[_Rows, int, int], object],
) -> list[object]:
    """block(rows, s, r) for each block of t-rows, in a pool; results in block order.

    The blocks cover rows [0, R), R = _period_rows of the anchor column, with
    h = _block_rows(Mx, K) rows each (K only for separable rows), the last one
    fewer: a partition fixed by the spec and grid, never by the thread count,
    so any order-sensitive combination downstream stays deterministic.
    block reduces the r rows from row s; rows(s, out), built once per call,
    writes those rows into the (r x Mx) complex array out and returns it.

    A sweep of at most _BLOCK_NODES nodes runs in the calling thread: a pool
    costs more than it saves there.
    """
    fft = _fft_applies(spec, grid)
    anchors = _anchors(spec, grid)
    rows = (_rows_fast if fft else _rows_naive)(spec, grid, anchors)
    R = _period_rows(anchors, grid.Mt)
    h = min(R, _block_rows(grid.Mx, None if fft else len(spec.support())))

    def run(s: int):
        return block(rows, s, min(h, R - s))

    starts = range(0, R, h)
    nt = _threads(threads)
    if nt == 1 or grid.Mx * R <= _BLOCK_NODES:
        return [run(s) for s in starts]
    with ThreadPoolExecutor(max_workers=min(nt, len(starts))) as ex:
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
    f = np.empty((grid.Mt, grid.Mx), dtype=complex)
    R = sum(_map_blocks(spec, grid, threads,
                        lambda rows, s, r: len(rows(s, f[s:s + r]))))
    f[R:] = np.resize(f[:R], (grid.Mt - R, grid.Mx))  # rows [0, R) swept; row l is row l mod R
    return f


def _sweep(
    spec: ExpSumSpec,
    grid: GridSpec,
    direction: str,
    threads: int | None,
    anchor: float | None,
) -> tuple[np.ndarray, tuple[int, int], np.ndarray | None]:
    """One streaming pass: per outer node, the sup of |f| over the inner variable.

    direction names the inner variable.  Returns (sup, (outer, inner), rungs):
    outer = argmax(sup) and inner is the first inner index where |f| reaches
    sup[outer].  Each block reports its own first maximum (lowest outer node,
    then lowest inner), and (outer, inner) is that of the first block whose
    maximum is sup[outer] at outer: sup is at least a block's max at each
    outer node that reaches it, so no such node comes before outer.

    With an anchor A, bit j < 63 of rungs[node] is set when some inner node
    there has |f| in [A 2^-j-1, A 2^-j) (else rungs is None).  The rung of |f|
    is (bits(A) - 1 - bits(|f|)) >> 52, bits(.) the IEEE-754 pattern as int64,
    exact for normal |f|; as uint64 capped at 63 it puts |f| >= A and rungs
    past 62 in bit 63, which no reader reads.  Zero and subnormal |f| rank
    past rung 0 for A >= 2^-1021 and in bit 63 at every anchor _level_report
    accepts.  Each block's |f| is formed once, reduced to its maxima, then
    overwritten by its rung bits.
    """
    if direction not in ("t", "x"):
        raise ValueError("direction must be 't' or 'x'")
    axis = 0 if direction == "t" else 1
    if anchor is not None:
        top = np.float64(anchor).view(np.int64) - 1

    def block(rows: _Rows, s: int, r: int):
        a = np.abs(rows(s, np.empty((r, grid.Mx), dtype=complex)))
        mx = a.max(axis=axis)
        o = int(mx.argmax())
        i = int((a[:, o] if axis == 0 else a[o]).argmax())
        first = (o, i + s, mx[o]) if axis == 0 else (o + s, i, mx[o])
        if anchor is None:
            return mx, first, None
        bits = np.subtract(top, a.view(np.int64), out=a.view(np.int64))
        bits >>= 52
        bits = bits.view(np.uint64)
        np.minimum(bits, np.uint64(63), out=bits)
        np.left_shift(np.uint64(1), bits, out=bits)
        return mx, first, np.bitwise_or.reduce(bits, axis=axis)

    mx, firsts, bits = zip(*_map_blocks(spec, grid, threads, block))
    if direction == "t":
        sup = functools.reduce(np.maximum, mx)
        rungs = None if anchor is None else np.bitwise_or.reduce(bits)
    else:  # row l is row l mod R: the R swept rows, tiled to Mt
        sup = np.resize(np.concatenate(mx), grid.Mt)
        rungs = None if anchor is None else np.resize(np.concatenate(bits), grid.Mt)
    outer = int(np.argmax(sup))
    inner = next(i for o, i, v in firsts if (o, v) == (outer, sup[outer]))
    return sup, (outer, inner), rungs


def sup_norm_Lp(
    spec: ExpSumSpec,
    grid: GridSpec,
    sup_direction: str,
    p: float,
    threads: int | None = None,
    with_levels: bool = False,
) -> dict | tuple[dict, dict]:
    """L^p Riemann norm over the outer variable of the inner-direction sup.

    sup_direction "t": outer variable x, value = (sum_x (max_t |f|)^p dx)^{1/p}.
    sup_direction "x": outer variable t, likewise with dt.  Returns the dict
    expsum prints as "norm": value, p, direction, grid, and argmax, the first
    node (x, t) where |f| reaches its maximum abs_f.
    with_levels: return (norm, dyadic_level_report(spec, grid, sup_direction))
    from the same single pass over the grid, its ladder anchored at
    _dyadic_anchor(spec).  ValueError when the sum of
    (sup |f|)^p leaves the float range: inf, or 0 while max |f| > 0.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")

    anchor = _dyadic_anchor(spec) if with_levels else None
    sup, (outer, inner), rungs = _sweep(spec, grid, sup_direction, threads, anchor)
    cell = grid.dx if sup_direction == "t" else grid.dt
    try:
        value = math.fsum(v**p for v in sup.tolist()) * cell
    except OverflowError:  # a power or fsum's partial sums left the float range
        value = math.inf
    if value == math.inf or (value == 0 and sup.max() > 0):
        raise ValueError(
            f"(sup |f|)^p summed over the grid is {value} in floats at p = {p} "
            f"(max |f| = {sup.max()})"
        )
    k_star, l_star = (outer, inner) if sup_direction == "t" else (inner, outer)
    norm = {
        "value": float(value ** (1.0 / p)),
        "p": p,
        "direction": sup_direction,
        "argmax": {
            "x": grid.x_lo + k_star * grid.dx,
            "t": grid.t_lo + l_star * grid.dt,
            "abs_f": float(sup[outer]),
        },
        "grid": asdict(grid),
    }
    if not with_levels:
        return norm
    return norm, _level_report(spec, grid, sup_direction, rungs, anchor, float(sup[outer]))


def level_set_projection(
    spec: ExpSumSpec,
    grid: GridSpec,
    alpha: float,
    direction: str,
    threads: int | None = None,
) -> float:
    """Measure of outer-grid cells where some inner node has |f| in [a/2, a).

    direction names the collapsed (inner) variable: "t" projects along t onto
    the x-axis, "x" the other way.  The band is rung 0 of a _sweep anchored at
    alpha, one pass over the grid; sup_norm_Lp(..., with_levels=True) gets all
    power-of-two bands in the same pass as the norm.  alpha must lie in
    [2^-1021, inf): there [alpha/2, alpha) holds only normal floats, whose
    rungs are exact, and a zero |f| ranks below rung 0.
    """
    if not 2.0**-1021 <= alpha < math.inf:
        raise ValueError(f"alpha must be in [2^-1021, inf), got {alpha}")
    _, _, rungs = _sweep(spec, grid, direction, threads, alpha)
    cell = grid.dx if direction == "t" else grid.dt
    return float(np.count_nonzero(rungs & np.uint64(1)) * cell)


def _dyadic_anchor(spec: ExpSumSpec) -> float:
    """2^(k_top + 1), k_top = ceil(log2 ||b||_1) (|f| <= 2^k_top): the dyadic
    ladder's anchor.  inf past ||b||_1 = 2^1022, where _level_report refuses
    ||b||_2^4.
    """
    k_top = math.ceil(math.log2(spec.norm_b1()))
    return math.ldexp(1.0, k_top + 1) if k_top < 1023 else math.inf


def _level_report(
    spec: ExpSumSpec,
    grid: GridSpec,
    direction: str,
    rungs: np.ndarray,
    anchor: float,
    max_abs: float,
) -> dict:
    """The dyadic ladder read off the rungs of a _sweep at _dyadic_anchor(spec).

    alphas[i] = 2^{k+1} stands for the band |f| in [2^k, 2^{k+1}); stats[i] =
    alpha^4 * measure / (N^{7/3} ||b||^4) for direction "t" (N^{8/3} for
    "x"), with ||b|| the coefficient l2 norm.

    Caveat: when max |f| is exactly a power of two 2^k (0/1 coefficients on
    2^k hits that align), the top band [2^k, 2^{k+1}) holds only the nodes
    that reach 2^k to the last bit, so its measure is set by rounding.  Read
    a statistic off a ladder anchored below the attained maximum (e.g.
    level_set_projection at ||b||_1 2^-j), not off that band.
    """
    cell = grid.dx if direction == "t" else grid.dt
    exponent = 7.0 / 3.0 if direction == "t" else 8.0 / 3.0
    try:
        b2_4 = spec.norm_b2() ** 4
    except OverflowError:
        b2_4 = math.inf
    if not 0 < b2_4 < math.inf:
        raise ValueError(f"||b||_2^4 = {b2_4} in floats (||b||_2 = {spec.norm_b2()})")
    denom = spec.N**exponent * b2_4
    # the top rung is the rung of max |f|, read off the bit patterns as in _sweep
    top, peak = np.array([anchor, max_abs]).view(np.int64).tolist()
    j_top = min(62, (top - 1 - peak) >> 52)
    alphas, measures, stats = [], [], []
    for j in range(j_top, min(62, j_top + _LEVELS) + 1):
        measure = float(np.count_nonzero(rungs & np.uint64(1 << j)) * cell)
        alpha = math.ldexp(anchor, -j)
        try:
            alpha_4 = alpha**4
        except OverflowError:
            raise ValueError(f"level alpha = {alpha}: alpha**4 overflows a float") from None
        alphas.append(alpha)
        measures.append(measure)
        stats.append(alpha_4 * measure / denom)
    return {
        "direction": direction,
        "alphas": alphas,
        "measures": measures,
        "stats": stats,
        "max_stat": max(stats) if stats else 0.0,
        "max_abs_f": max_abs,
        "grid": asdict(grid),
    }


def dyadic_level_report(
    spec: ExpSumSpec,
    grid: GridSpec,
    direction: str,
    threads: int | None = None,
) -> dict:
    """Level-set projections for all dyadic bands, one pass over the grid.

    The same sweep as sup_norm_Lp(..., with_levels=True), without the norm:
    rung j of the ladder at _dyadic_anchor(spec) is the band
    [2^(k_top - j), 2^(k_top + 1 - j)), read from the band of max |f| down
    through _LEVELS more, at most to rung 62.  Returns the dict expsum
    prints as "levels"; see _level_report for its fields and the caveat on a
    maximum that is itself a power of two.
    """
    anchor = _dyadic_anchor(spec)
    sup, _, rungs = _sweep(spec, grid, direction, threads, anchor)
    return _level_report(spec, grid, direction, rungs, anchor, float(sup.max()))
