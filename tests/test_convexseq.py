"""Tests for sequence validation, constructions, and lattice intersection."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexsums.convexseq import (
    ConstructionError,
    ConvexSequence,
    LatticeHit,
    construct,
    construct_dirichlet_like,
    construct_small_alpha,
    intersect_count,
    quadratic_example,
    restrict_rescale,
    shear,
    validate,
)
from convexsums.interp import build_c1, knots_from_sequence
from convexsums.rational import Q, power_value


class TestValidate:
    def test_quadratic_passes(self):
        seq = quadratic_example(10)
        rep = validate(seq)
        assert rep.passed
        # second differences are exactly 1/N^2
        assert rep.second_diff_min == rep.second_diff_max == pytest.approx(0.01)
        assert rep.tightest_C == pytest.approx(20 / 13)
        assert rep.tightest_C >= 1.0

    def test_arithmetic_progression_fails(self):
        N = 10
        seq = ConvexSequence(N=N, values=np.arange(1, N + 1) / N)
        rep = validate(seq)
        assert not rep.passed
        assert rep.second_diff_max == pytest.approx(0.0, abs=1e-15)
        assert math.isinf(rep.tightest_C)

    def test_pure_square_fails(self):
        N = 100
        n = np.arange(1, N + 1)
        seq = ConvexSequence(N=N, values=(n / N) ** 2)
        rep = validate(seq)
        # first difference at n=1 is 3/N^2, below the 1/(4N) floor
        assert not rep.passed
        assert rep.first_diff_min == pytest.approx(3 / N**2)

    def test_needs_three_terms(self):
        with pytest.raises(ValueError):
            validate(ConvexSequence(N=2, values=np.array([0.1, 0.2])))

    def test_exact_verdict_at_boundary(self):
        # second diffs exactly 1/(4N^2): tightest_C = 4 exactly, still a pass
        N = 16
        exact = [Q(n, 2 * N) + Q(n * n, 8 * N * N) for n in range(1, N + 1)]
        seq = ConvexSequence(
            N=N, values=np.array([float(v) for v in exact]), exact_values=exact
        )
        rep = validate(seq)
        assert rep.passed and rep.tightest_C == pytest.approx(4.0)


class TestIntersectCount:
    def test_quadratic_exact(self):
        seq = quadratic_example(10)
        count, idx = intersect_count(seq, 1.0, tol=0)
        assert (count, idx) == (1, [10])

    def test_alpha_zero_non_integers(self):
        # all values are half-integers, never integers
        exact = [Q(2 * n + 1, 2) for n in range(10)]
        seq = ConvexSequence(
            N=10, values=np.array([float(v) for v in exact]), exact_values=exact
        )
        count, _ = intersect_count(seq, 0.0, tol=0)
        assert count == 0

    def test_exact_needs_exact_values(self):
        seq = ConvexSequence(N=10, values=quadratic_example(10).values)
        with pytest.raises(ValueError):
            intersect_count(seq, 1.0, tol=0)

    def test_exact_needs_rational_step(self):
        seq = quadratic_example(10)
        # 10^{-1/2} is irrational
        with pytest.raises(ValueError):
            intersect_count(seq, 0.5, tol=0)

    def test_float_matches_exact_on_quadratic(self):
        seq = quadratic_example(10)
        assert intersect_count(seq, 1.0)[0] == 1

    def test_shift_invariance(self):
        # adding a lattice constant to all values preserves the exact count
        seq = quadratic_example(12)
        shift = Q(5, 12)  # 5 * N^{-1}
        shifted = ConvexSequence(
            N=seq.N,
            values=np.array([float(v + shift) for v in seq.exact_values]),
            exact_values=[v + shift for v in seq.exact_values],
        )
        assert intersect_count(seq, 1.0, tol=0) == intersect_count(shifted, 1.0, tol=0)


class TestDirichletLike:
    def test_walkthrough_N64(self):
        seq = construct_dirichlet_like(64, 1.0)
        assert seq.meta["qmax"] == 4
        assert seq.meta["fractions"] == 3  # 1/3, 1/2, 2/3
        assert [(h.n, h.num, h.den) for h in seq.hits] == [(24, 10, 1), (48, 24, 1)]
        assert seq.values[23] == pytest.approx(10 / 64, abs=0)
        assert seq.values[47] == pytest.approx(24 / 64, abs=0)
        rep = validate(seq)
        assert rep.passed and rep.tightest_C == pytest.approx(2.9215, abs=1e-3)
        assert seq.meta["scale"] == 1

    def test_certified_hits_are_exact_members(self):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for N in (256, 1024):
                seq = construct_dirichlet_like(N, alpha)
                step_q, exact = power_value(N, -Q(alpha).limit_denominator(10**6))
                assert exact  # these N, alpha give rational lattice steps
                for h in seq.hits:
                    assert h.den == 1
                    assert seq.values[h.n - 1] == h.num * float(step_q)

    def test_hit_counts_reach_certificates(self):
        for alpha, N in [(1.0, 256), (1.5, 256), (2.0, 256), (0.5, 1024)]:
            seq = construct_dirichlet_like(N, alpha)
            count, idx = intersect_count(seq, alpha)
            assert set(seq.hit_indices()) <= set(idx)
            assert count >= len(seq.hits)

    def test_count_lower_bound_alpha1(self):
        seq = construct_dirichlet_like(4096, 1.0)
        assert len(seq.hits) >= 0.1 * 4096 ** (2 / 3)

    def test_alpha2_degenerate_denominators(self):
        seq = construct_dirichlet_like(4096, 2.0)
        assert seq.meta["qmax"] == 1
        assert validate(seq).passed

    def test_tightest_C_under_8(self):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for N in (256, 1024, 4096):
                rep = validate(construct_dirichlet_like(N, alpha))
                assert rep.tightest_C <= 8.0

    def test_small_N_rejected(self):
        with pytest.raises(ValueError):
            construct_dirichlet_like(8, 1.0)
        with pytest.raises(ValueError):
            construct_dirichlet_like(64, 0.4)

    def test_values_strictly_increasing(self):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            seq = construct_dirichlet_like(256, alpha)
            assert np.all(np.diff(seq.values) > 0)

    def test_interp_roundtrip(self):
        # rebuilding an interpolant from the sampled sequence reproduces it
        seq = construct_dirichlet_like(256, 1.0)
        f = build_c1(knots_from_sequence(seq))
        x = np.arange(1, 257) / 256
        resampled = f.eval_many(x)[0]
        assert np.max(np.abs(resampled - seq.values)) < 1e-10


class TestSmallAlpha:
    def test_alpha_zero(self):
        seq = construct_small_alpha(64, 0.0)
        assert len(seq.hits) >= 1
        assert seq.values[0] == 0.0  # first sample is the m=0 lattice point
        assert validate(seq).tightest_C <= 8.0

    def test_alpha_quarter_counts(self):
        for N, low in [(1024, 0.1 * 1024**0.25), (4096, 0.1 * 4096**0.25)]:
            seq = construct_small_alpha(N, 0.25)
            assert len(seq.hits) >= low

    def test_alpha_half(self):
        seq = construct_small_alpha(1024, 0.5)
        assert len(seq.hits) >= 0.1 * 1024**0.5
        assert validate(seq).passed

    def test_hits_certified(self):
        seq = construct_small_alpha(1024, 0.5)  # step 1/32, exactly dyadic
        for h in seq.hits:
            assert seq.values[h.n - 1] == h.num * (1024.0**-0.5)

    def test_counts_vs_float_mode(self):
        for N in (256, 1024):
            seq = construct_small_alpha(N, 0.25)
            count, idx = intersect_count(seq, 0.25)
            assert set(seq.hit_indices()) <= set(idx)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            construct_small_alpha(64, 0.75)


class TestConstruct:
    @pytest.mark.parametrize("alpha, build", [(0.25, construct_small_alpha),
                                              (0.5, construct_dirichlet_like),
                                              (2.0, construct_dirichlet_like)])
    def test_picks_the_construction(self, alpha, build):
        got, want = construct(256, alpha), build(256, alpha)
        assert np.array_equal(got.values, want.values) and got.hits == want.hits

    @pytest.mark.parametrize("alpha", [-0.1, 2.5, math.nan, math.inf, -math.inf])
    def test_alpha_outside_0_2_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            construct(256, alpha)

    @pytest.mark.xfail(strict=True, reason="the small-alpha walk can break the "
                       "second-difference ceiling: C = 4.276 at (256, 0.25)")
    def test_small_alpha_walk_validates_at_256_quarter(self):
        assert validate(construct(256, 0.25)).passed

    @given(N=st.integers(10, 4096), alpha=st.floats(0.5, 2.0))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_mediant_construction_validates_or_refuses(self, N, alpha):
        try:
            seq = construct(N, alpha)
        except ConstructionError:
            return
        assert validate(seq).passed


class TestShear:
    def test_identity_roundtrip_exact(self):
        seq = quadratic_example(12)
        lam = 1 / 144
        back = shear(shear(seq, lam), -lam)
        assert all(a == b for a, b in zip(back.exact_values, seq.exact_values))
        assert np.array_equal(back.values, seq.values)

    def test_second_diffs_preserved(self):
        seq = construct_dirichlet_like(128, 1.0)
        sheared = shear(seq, -1.0 / 128**2)
        assert np.allclose(
            np.diff(sheared.values, 2), np.diff(seq.values, 2), atol=1e-15
        )

    def test_lambda_zero_is_identity(self):
        seq = quadratic_example(10)
        assert shear(seq, 0.0) is seq

    def test_hits_dropped(self):
        seq = construct_dirichlet_like(128, 1.0)
        assert shear(seq, 0.5).hits is None


class TestRestrictRescale:
    def test_beta_one_identity(self):
        seq = quadratic_example(64)
        out = restrict_rescale(seq, 1.0)
        assert out.N == seq.N
        assert np.allclose(out.values, seq.values, atol=0)
        assert out.theta == pytest.approx(1.0)

    def test_generalized_validator(self):
        seq = construct_dirichlet_like(4096, 1.0)
        out = restrict_rescale(seq, 0.5)
        assert out.N == 64
        assert out.theta == pytest.approx(4096 ** (-0.5))
        rep = validate(out)
        assert rep.theta == pytest.approx(1 / 64)
        assert rep.passed

    def test_hits_survive_with_shifted_level(self):
        seq = construct_dirichlet_like(4096, 1.0)
        out = restrict_rescale(seq, 0.5)
        kept = [h for h in seq.hits if h.n <= 64]
        assert len(out.hits) == len(kept)
        for h, orig in zip(out.hits, kept):
            # alpha~ = (alpha + beta - 1)/beta = 1 here for alpha=1, beta=1/2
            assert h.alpha == pytest.approx(1.0)
            assert h.num == orig.num
            # value = multiplier * Ntil^{-alpha~} with Ntil = 64
            assert out.values[h.n - 1] == pytest.approx(h.num / 64, rel=1e-12)

    def test_too_short_rejected(self):
        seq = quadratic_example(64)
        with pytest.raises(ValueError):
            restrict_rescale(seq, 0.2)  # beta*N^beta = 0.2*2.3 < 3

    def test_non_convex_rejected(self):
        N = 64
        seq = ConvexSequence(N=N, values=np.arange(1, N + 1) / N)
        with pytest.raises(ValueError):
            restrict_rescale(seq, 0.5)


class TestUpperBoundInvariant:
    def test_eq_upper_bound_all_alphas(self):
        # counts never exceed 100 * max(N^{(alpha+1)/3 + 0.1}, N^alpha)
        for seq, N in [
            (construct_dirichlet_like(1024, 1.0), 1024),
            (construct_dirichlet_like(1024, 2.0), 1024),
            (construct_small_alpha(1024, 0.25), 1024),
        ]:
            for alpha in np.arange(0.5, 2.01, 0.25):
                count, _ = intersect_count(seq, float(alpha))
                bound = 100 * max(N ** ((alpha + 1) / 3 + 0.1), N**alpha)
                assert count <= bound


class TestSerialization:
    def test_csv_roundtrip_exact(self, tmp_path):
        seq = quadratic_example(12)
        p = tmp_path / "seq.csv"
        seq.to_csv(str(p))
        back = ConvexSequence.from_csv(str(p))
        assert back.N == 12
        assert np.array_equal(back.values, seq.values)
        assert back.exact_values == seq.exact_values

    def test_csv_and_hits_roundtrip(self, tmp_path):
        seq = construct_dirichlet_like(128, 1.0)
        p = tmp_path / "seq.csv"
        h = tmp_path / "seq.hits.json"
        seq.to_csv(str(p))
        seq.hits_to_json(str(h))
        back = ConvexSequence.from_csv(str(p), hits_path=str(h))
        assert np.array_equal(back.values, seq.values)
        assert back.exact_values is None
        assert back.hits == seq.hits
        data = json.loads(h.read_text())
        assert all(set(d) == {"n", "alpha", "num", "den"} for d in data)
