"""Expected `expsum` results for a canonical spec, for any seed.

    python3 perfbench/gridoracle.py SPEC.json [BUDGET]

Prints one JSON object {"t": fields, "x": fields}: the checked fields of
`convexsums expsum SPEC.json --direction t|x --levels --grid-budget BUDGET`
at the default p (workloads.FIELDS["expsum"]).  BUDGET defaults to the
CLI's default grid budget.  It shares no code with the
program.  The program evaluates each t-row by an inverse FFT; here the whole
grid is a matrix product,

    f(x_k, t_l) = sum_n [b_n e(t_l eta_n)] e(k n / Mx),   xi_n = n / N,

with the x-phases k n / Mx reduced exactly in integers and the t-phases
reduced mod 1 in longdouble.  The norm and the dyadic level-set report are
then formed from |f| by their definitions (see convexsums.expsum).

It runs as its own process so that its memory stays out of the benchmark's
peak_rss_mb.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

DEFAULT_BUDGET = 2**24  # the CLI's default --grid-budget
P = 4.0  # the CLI's default --p
LEVELS = 40
ROWS = 256


def expected(spec: dict, budget: int = DEFAULT_BUDGET) -> dict[str, dict]:
    N = spec["N"]
    b = np.asarray(spec["b"], dtype=complex)
    eta = np.asarray(spec["eta"], dtype=np.longdouble)
    if not np.array_equal(np.asarray(spec["xi"]), np.arange(1, N + 1) / N):
        raise ValueError("the oracle needs xi_n = n/N")
    Mx = 4 * N
    Mt = min(4 * N * N, max(1, budget // Mx))
    dx, dt = N / Mx, N * N / Mt
    n = np.arange(1, N + 1)
    Ex = np.exp(2j * math.pi * ((np.arange(Mx)[:, None] * n[None, :]) % Mx / Mx))

    k_top = math.ceil(math.log2(float(np.sum(np.abs(b)))))
    k_min = k_top - 62
    sup_t = np.zeros(Mx)  # max over t at each x
    sup_x = np.zeros(Mt)  # max over x at each t
    band_t = np.zeros((k_top - k_min + 1, Mx), dtype=bool)  # band seen at x
    band_x = np.zeros((k_top - k_min + 1, Mt), dtype=bool)  # band seen at t
    cols = np.arange(Mx)
    for lo in range(0, Mt, ROWS):
        rows = np.arange(lo, min(lo + ROWS, Mt))
        t = rows.astype(np.longdouble) * np.longdouble(dt)
        phase = t[:, None] * eta[None, :]
        phase = (phase - np.floor(phase)).astype(float)
        a = np.abs((b[None, :] * np.exp(2j * math.pi * phase)) @ Ex.T)
        sup_t = np.maximum(sup_t, a.max(axis=0))
        sup_x[rows] = a.max(axis=1)
        r, c = np.nonzero(a)
        band = np.clip(np.frexp(a[r, c])[1] - 1, k_min, k_top) - k_min
        band_t[band, cols[c]] = True
        band_x[band, rows[r]] = True

    max_abs = float(sup_t.max())
    b2 = float(np.sqrt(np.sum(np.abs(b) ** 2)))
    k_hi = math.floor(math.log2(max_abs))
    out = {}
    for d, sup, seen, cell, exponent in (("t", sup_t, band_t, dx, 7 / 3),
                                         ("x", sup_x, band_x, dt, 8 / 3)):
        denom = N**exponent * b2**4
        alphas, measures, stats = [], [], []
        for k in range(k_hi, max(k_min, k_hi - LEVELS) - 1, -1):
            alpha, measure = 2.0 ** (k + 1), float(np.count_nonzero(seen[k - k_min]) * cell)
            alphas.append(alpha)
            measures.append(measure)
            stats.append(alpha**4 * measure / denom)
        out[d] = {
            "norm.value": (math.fsum(sup**P) * cell) ** (1 / P),
            "norm.argmax.abs_f": max_abs,
            "norm.grid.Mx": Mx,
            "norm.grid.Mt": Mt,
            "levels.max_stat": max(stats),
            "levels.max_abs_f": max_abs,
            "levels.alphas": alphas,
            "levels.measures": measures,
            "levels.stats": stats,
        }
    return out


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    budget = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_BUDGET
    print(json.dumps(expected(spec, budget)))
