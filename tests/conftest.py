"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest

from convexsums import expsum
from convexsums.convexseq import construct_dirichlet_like, shear
from convexsums.experiments import _hit_coefficients


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each thread pool that expsum starts during the test,
    which runs as on 64 CPUs so that thread counts are not clamped by the host."""
    made = []
    monkeypatch.setattr(expsum.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    real = expsum.ThreadPoolExecutor

    def spy(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(expsum, "ThreadPoolExecutor", spy)
    return made


@pytest.fixture
def sheared_A():
    """sheared_A(N): the spec of the benchmark's levels-A ops, experiment A's
    hits with eta sheared by -1/N^2."""

    def spec(N):
        c = construct_dirichlet_like(N, 1.0)
        return expsum.ExpSumSpec(N=N, xi=np.arange(1, N + 1) / N,
                                 eta=shear(c, -1.0 / N**2).values, b=_hit_coefficients(c))

    return spec


@pytest.fixture
def direct_factors():
    """direct_factors(spec, grid, s, r): b_n e(t_l eta_n) on the support,
    rows s ... s + r - 1, phase by phase."""

    def factors(spec, grid, s, r):
        idx = spec.support()
        t = grid.t_lo + np.arange(s, s + r).astype(np.longdouble) * np.longdouble(grid.dt)
        phase = expsum._frac(t[:, None] * spec.eta[idx].astype(np.longdouble)).astype(float)
        return spec.b[idx] * np.exp(2j * math.pi * phase)

    return factors


@pytest.fixture
def band_measure():
    """band_measure(spec, grid, alpha, direction): the projected measure of the
    band |f| in [alpha/2, alpha), counted on the whole eval_grid matrix."""

    def measure(spec, grid, alpha, direction):
        a = np.abs(expsum.eval_grid(spec, grid))
        hit = ((a >= alpha / 2) & (a < alpha)).any(axis=0 if direction == "t" else 1)
        return float(np.count_nonzero(hit) * (grid.dx if direction == "t" else grid.dt))

    return measure
