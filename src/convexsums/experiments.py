"""Witness experiments: exact phase identities and norm-scaling regressions.

Each experiment builds a sequence with certified lattice hits, puts unit
coefficients on the hits, and (1) verifies an identity of the form
f(point_j) = hit count at phase-aligned points where every term contributes
e(integer) = 1, then (2) measures a maximal-function norm against its
predicted power of N:

  A: eta_n = a_n - n/N^2 (alpha=1 hits), f(j, jN) = count for all j in [1,N];
     norm = || sup_t |f| ||_{L^4(x in [0,N])}, predicted N^{7/12}.
  B: alpha=1/2 hits, f(0, j sqrt(N)) = count;
     norm = || sup_x |f| ||_{L^4(t in [0,N^2])}, predicted N^{3/4}.
  C: xi_n = n/N - a_n/N, eta_n = a_n (alpha=1 hits), f(jN, j) = count;
     norm as in B but with x ranging over [0, N^2), predicted N^{5/6}.

The identity points are exact in floating point for power-of-two N: every
phase is a dyadic rational times an integer, the products fit well inside
the longdouble mantissa, and the fractional parts reduce to exactly zero.

The same alignment is a translation symmetry of f: (1, N) for A, (N, 1)
for C, (0, sqrt(N)) for B at square N.  The code names none of them.  It
reads the whole lattice of f's symmetries in grid steps off the evaluated
floats, exactly (_cell), and sweeps one cell: on each inner line the m
nodes of one period, and the P outer nodes over which the inner sup
repeats, where P divides the outer node count (else every outer node).  A
cell is finer than the named vectors: A at N = 64 repeats on one x-node and
2048 t-nodes, and B at N = 128, with no named vector, on half of each x-row.
B at N = 512 sweeps its whole grid: m = 2048 is every x-node, and P = 2^49
does not divide the 8192 t-nodes.  The norm is scaled by the number of
outer cells (_sup_norm_L4), so the reported grid, norm and ratio are those
of the whole grid to the last bits; argmax is the first maximum within
the cell, and norm.swept_nodes counts the nodes evaluated.

Reports hold no timing fields, so a fixed config and seed gives
byte-identical JSON regardless of machine speed or thread count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace
from fractions import Fraction as Q

import numpy as np

from .convexseq import (
    ConvexSequence,
    construct,
    construct_dirichlet_like,
    intersect_count,
    shear,
)
from .expsum import (
    DEFAULT_BUDGET,
    ExpSumSpec,
    GridSpec,
    canonical_grid,
    check_budget,
    eval_point,
    sup_norm_Lp,
)


def regress(points: list[tuple[float, float]]) -> dict:
    """Least squares slope of log(value) against log(N).

    points are (N, value) pairs in natural units; both must be finite and
    positive, and at least 3 points with at least 2 distinct N are required.
    Returns the dict regress prints: the [log N, log value] points, slope,
    intercept and the rms residual.
    """
    if len(points) < 3:
        raise ValueError(f"need >= 3 points, got {len(points)}")
    if not all(0 < n < math.inf and 0 < v < math.inf for n, v in points):
        raise ValueError("points must be finite and positive for a log-log fit")
    logs = [[math.log(n), math.log(v)] for n, v in points]
    if len({x for x, _ in logs}) < 2:
        raise ValueError("need >= 2 distinct N values for a slope")
    xs, ys = np.array(list(zip(*logs)))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return {
        "points": logs,
        "slope": float(slope),
        "intercept": float(intercept),
        "residual": float(np.sqrt(np.mean(resid**2))),
    }


def _hit_coefficients(seq: ConvexSequence) -> np.ndarray:
    b = np.zeros(seq.N)
    for h in seq.hits or []:
        b[h.n - 1] = 1.0
    return b


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u a + v b = g = gcd(a, b)."""
    u, v, u1, v1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, u, v, u1, v1 = b, a - q * b, u1, v1, u - q * u1, v - q * v1
    return (a, u, v) if a >= 0 else (-a, -u, -v)


def _cell(spec: ExpSumSpec, grid: GridSpec, direction: str) -> tuple[int, int]:
    """(P, m): outer and inner node counts of one cell of f's translation lattice.

    direction names the inner variable, as in sup_norm_Lp.  In grid steps f
    is invariant under L = {(i, j) : i w_n[0] + j w_n[1] integral on the
    support}, w_n = (d_out nu_n, d_in mu_n) with nu, mu the outer and inner
    frequencies.  L is the dual of Z^2 + sum Z w_n; scaled by D, the lcm of
    the denominators, that module has the Hermite normal form (g1, h),
    (0, g2), built one w_n at a time.  m is the least j > 0 with (0, j) in L,
    and P the least i > 0 with some (i, j) in L.  Every value is exact, on
    the evaluated floats.
    """
    idx = spec.support()
    x, t = (spec.xi[idx], grid.dx), (spec.eta[idx], grid.dt)
    (mu, d_in), (nu, d_out) = (t, x) if direction == "t" else (x, t)
    w = [(Q(d_out) * Q(a), Q(d_in) * Q(b)) for a, b in zip(nu.tolist(), mu.tolist())]
    D = math.lcm(*(c.denominator for v in w for c in v))
    g1, h, g2 = D, 0, D
    for a, b in w:
        x_n, y_n = int(a * D), int(b * D)
        g, u, v = _egcd(g1, x_n)
        g1, h, g2 = g, (u * h + v * y_n) % g2, math.gcd(g2, (g1 * y_n - x_n * h) // g)
    m = D // math.gcd(D, h, g2)
    r = math.gcd(h * D // math.gcd(D, g2), D)
    return r // math.gcd(r, g1), m


def _sup_norm_L4(
    spec: ExpSumSpec, grid: GridSpec, direction: str, threads: int | None
) -> dict:
    """L^4 norm of the inner-direction sup on grid, as an experiment prints it.

    With the cell (P, m) of _cell and m at most the inner node count, every
    inner line holds all m residues of its period, so the sup over the inner
    variable is the sup over its first m nodes and repeats every P outer
    nodes.  The sweep then covers m inner nodes, and P outer nodes when P
    divides the outer node count (else all of them), at the grid's own
    steps; the norm is scaled by (outer nodes / swept outer nodes)^{1/4}, so
    only the summation order of the Riemann sum changes.  The full grid is
    swept when m exceeds the inner node count or a sub-grid step is not the
    grid's to the bit.  The result is sup_norm_Lp's dict on the swept cell
    with the scaled value, grid in place of the cell, no argmax abs_f, and
    swept_nodes, the number of nodes swept; argmax is the first maximum
    within the cell.
    """
    P, m = _cell(spec, grid, direction)
    m_out, m_in = (grid.Mx, grid.Mt) if direction == "t" else (grid.Mt, grid.Mx)
    sub = grid
    if m <= m_in:
        P = P if m_out % P == 0 else m_out
        x, t = (P, m) if direction == "t" else (m, P)
        sub = replace(grid, x_hi=grid.x_lo + x * grid.dx, Mx=x,
                      t_hi=grid.t_lo + t * grid.dt, Mt=t)
        if (sub.dx, sub.dt) != (grid.dx, grid.dt):
            sub = grid
    norm = sup_norm_Lp(spec, sub, direction, 4.0, threads=threads)
    swept_out = sub.Mx if direction == "t" else sub.Mt
    norm["value"] *= (m_out // swept_out) ** 0.25
    norm["grid"] = asdict(grid)
    del norm["argmax"]["abs_f"]
    norm["swept_nodes"] = sub.Mx * sub.Mt
    return norm


def _witness(
    id: str,
    seq: ConvexSequence,
    spec: ExpSumSpec,
    checked_j: list[int],
    points: list[tuple[float, float]],
    grid: GridSpec,
    sup_direction: str,
    exponent: float,
    seed: int,
    threads: int | None,
) -> dict:
    """The part every experiment shares, once its spec, points and grid exist.

    Checks |f| = hit count of seq at each aligned point (relative error <=
    1e-6), takes the L^4 norm of the sup over sup_direction (over one cell
    of f's translation lattice where the grid allows, see _sup_norm_L4), and
    divides it by the predicted N^exponent ||b||_2.  Returns the dict
    experiment prints.
    """
    count = len(seq.hits)
    xs, ts = np.array(points).T
    worst = max(abs(v - count) / count for v in eval_point(spec, xs, ts))
    norm = _sup_norm_L4(spec, grid, sup_direction, threads)
    return {
        "id": id,
        "N": spec.N,
        "alpha": seq.meta["alpha"],
        "hit_count": count,
        "identity": {
            "checked_j": checked_j,
            "max_rel_err": worst,
            "pass": worst <= 1e-6,
        },
        "norm": norm,
        "predicted_exponent": exponent,
        "ratio": norm["value"] / (spec.N**exponent * spec.norm_b2()),
        "seed": seed,
    }


def _hit_sequence(N: int, alpha: float) -> ConvexSequence:
    if N < 64:
        raise ValueError("need N >= 64")
    return construct_dirichlet_like(N, alpha)


def experiment_A(
    N: int,
    grid_budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    threads: int | None = None,
) -> dict:
    """alpha=1 hits sheared by -n/N^2; identity f(j, jN) = count for ALL j."""
    c = _hit_sequence(N, 1.0)
    grid = canonical_grid(N, grid_budget)
    a = shear(c, -1.0 / N**2)
    spec = ExpSumSpec(
        N=N, xi=np.arange(1, N + 1) / N, eta=a.values, b=_hit_coefficients(c)
    )
    js = list(range(1, N + 1))
    points = [(float(j), float(j) * N) for j in js]
    return _witness("A", c, spec, js, points, grid, "t", 7 / 12, seed, threads)


def experiment_B(
    N: int,
    grid_budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    threads: int | None = None,
) -> dict:
    """alpha=1/2 hits; identity f(0, j sqrt(N)) = count at 64 seeded j.

    The predicted exponent is 3/4.  The sup over x nearly saturates |f| <=
    ||b||_1 = K (hit count K, unit coefficients), so the norm is about
    K * L^{1/4} = K N^{1/2} on t in [0, N^2]; with ||b||_2 = sqrt(K) and
    K ~ N^{1/2} at alpha = 1/2, norm / ||b||_2 ~ N^{1/2} K^{1/2} = N^{3/4}.
    The same rule gives A's 7/12 (L = N, K ~ N^{2/3}) and C's 5/6
    (L = N^2, K ~ N^{2/3}).
    """
    seq = _hit_sequence(N, 0.5)
    grid = canonical_grid(N, grid_budget)
    spec = ExpSumSpec(
        N=N, xi=np.arange(1, N + 1) / N, eta=seq.values, b=_hit_coefficients(seq)
    )
    rng = np.random.default_rng(seed)
    js = sorted(int(j) for j in rng.integers(1, int(N**1.5) + 1, size=64))
    root = math.sqrt(N)
    points = [(0.0, j * root) for j in js]
    return _witness("B", seq, spec, js, points, grid, "x", 3 / 4, seed, threads)


def experiment_C(
    N: int,
    grid_budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    threads: int | None = None,
) -> dict:
    """Tilted frequencies (n/N - a_n/N, a_n); identity f(jN, j) = count.

    The tilt makes the x-frequencies non-canonical, so the norm's rows come
    from the separable product over the (few) nonzero coefficients; f is
    N^2-periodic in x because N^2 xi_n = nN - m_n is an integer on the support.
    On the default square grid dt = dx is a whole number, so f's lattice
    holds a vector of one t-step and whole x-steps: every row has the same
    sup.  The sweep is one cell of that lattice, one t-row and one x-period
    (_sup_norm_L4), and the norm is sqrt(N) * hit count up to rounding.
    """
    seq = _hit_sequence(N, 1.0)
    side = math.isqrt(check_budget(grid_budget))
    grid = GridSpec(
        x_lo=0.0, x_hi=float(N * N), Mx=side, t_lo=0.0, t_hi=float(N * N), Mt=side
    )
    n = np.arange(1, N + 1)
    spec = ExpSumSpec(
        N=N,
        xi=n / N - seq.values / N,
        eta=seq.values,
        b=_hit_coefficients(seq),
    )
    rng = np.random.default_rng(seed)
    js = sorted(int(j) for j in rng.integers(1, N * N + 1, size=64))
    points = [(float(j) * N, float(j)) for j in js]
    return _witness("C", seq, spec, js, points, grid, "x", 5 / 6, seed, threads)


EXPERIMENTS = {"A": experiment_A, "B": experiment_B, "C": experiment_C}


def intersection_scan(N_list: list[int], alpha_list: list[float]) -> list[dict]:
    """Hit-count scaling per alpha: slope of log(count) vs log(N).

    alpha >= 1/2 uses the mediant construction, alpha < 1/2 the lattice
    walk; counts come from intersect_count (which may exceed the certified
    knots when interior samples land on the lattice too).  The comparison
    target is (alpha+1)/3 for alpha >= 1/2 and alpha below.  Each entry is
    regress's dict with alpha and target.
    """
    results = []
    for alpha in alpha_list:
        pts = []
        for N in N_list:
            count, _ = intersect_count(construct(N, alpha), alpha)
            pts.append((float(N), float(count)))
        r = regress(pts)
        r["alpha"] = alpha
        r["target"] = (alpha + 1) / 3 if alpha >= 0.5 else alpha
        results.append(r)
    return results
