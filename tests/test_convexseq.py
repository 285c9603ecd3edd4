"""Tests for sequence validation, constructions, and lattice intersection."""

import csv
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexsums.convexseq import (
    ConstructionError,
    ConvexSequence,
    LatticeHit,
    _mediant_step,
    construct,
    construct_dirichlet_like,
    construct_small_alpha,
    intersect_count,
    shear,
    validate,
)
from convexsums.interp import build_c1, knots_from_sequence
from convexsums.rational import Q, power_value


def quadratic_example(N: int) -> ConvexSequence:
    """The model sequence a_n = n/(2N) + n^2/(2N^2), kept exact."""
    exact = [Q(n, 2 * N) + Q(n * n, 2 * N * N) for n in range(1, N + 1)]
    values = np.asarray([float(v) for v in exact])
    return ConvexSequence(
        N=N, values=values, exact_values=exact, meta={"construction": "quadratic"}
    )


class TestValidate:
    def test_quadratic_passes(self):
        seq = quadratic_example(10)
        rep = validate(seq)
        assert rep["pass"]
        # second differences are exactly 1/N^2
        assert rep["second_diff_min"] == rep["second_diff_max"] == pytest.approx(0.01)
        assert rep["tightest_C"] == pytest.approx(20 / 13)
        assert rep["tightest_C"] >= 1.0

    def test_arithmetic_progression_fails(self):
        N = 10
        seq = ConvexSequence(N=N, values=np.arange(1, N + 1) / N)
        rep = validate(seq)
        assert not rep["pass"]
        assert rep["second_diff_max"] == pytest.approx(0.0, abs=1e-15)
        assert rep["tightest_C"] is None

    def test_huge_differences_overflow_quietly(self):
        # N * 1e308 overflows; a RuntimeWarning (an error here) would mean
        # the window arithmetic ran on NumPy scalars, not Python floats
        rep = validate(ConvexSequence(N=4, values=np.array([0.0, 1.0, 3.0, 1e308])))
        assert not rep["pass"] and rep["tightest_C"] is None

    def test_pure_square_fails(self):
        N = 100
        n = np.arange(1, N + 1)
        seq = ConvexSequence(N=N, values=(n / N) ** 2)
        rep = validate(seq)
        # first difference at n=1 is 3/N^2, below the 1/(4N) floor
        assert not rep["pass"]
        assert rep["first_diff_min"] == pytest.approx(3 / N**2)

    def test_needs_three_terms(self):
        with pytest.raises(ValueError):
            validate(ConvexSequence(N=2, values=np.array([0.1, 0.2])))

    @pytest.mark.parametrize(
        "values, message",
        [([0.0, 1.0, math.inf, math.inf], "a_3 is inf"), ([0.0, 1.0, 3.0, math.nan], "a_4 is nan")],
    )
    def test_non_finite_values_rejected(self, values, message):
        # one line naming the first bad term, as from_csv names the bad row
        with pytest.raises(ValueError, match=f"^{message}$"):
            ConvexSequence(N=4, values=np.array(values))

    def test_caller_values_stay_writable(self):
        values = np.array([0.1, 0.3, 0.6])
        seq = ConvexSequence(N=3, values=values)
        assert values.flags.writeable
        values[0] = 7.0
        assert seq.values[0] == 0.1 and not seq.values.flags.writeable

    def test_exact_verdict_at_boundary(self):
        # second diffs exactly 1/(4N^2): tightest_C = 4 exactly, still a pass;
        # float differences read C above 4 at N = 10, 100 and 1000
        for N in (10, 16, 100, 1000):
            exact = [Q(n, 2 * N) + Q(n * n, 8 * N * N) for n in range(1, N + 1)]
            seq = ConvexSequence(
                N=N, values=np.array([float(v) for v in exact]), exact_values=exact
            )
            rep = validate(seq)
            assert rep["pass"] and rep["tightest_C"] == 4.0, N


class TestIntersectCount:
    def test_quadratic_exact(self):
        seq = quadratic_example(10)
        count, idx = intersect_count(seq, 1.0)
        assert (count, idx) == (1, [10])

    def test_alpha_zero_non_integers(self):
        # all values are half-integers, never integers
        exact = [Q(2 * n + 1, 2) for n in range(10)]
        seq = ConvexSequence(
            N=10, values=np.array([float(v) for v in exact]), exact_values=exact
        )
        count, _ = intersect_count(seq, 0.0)
        assert count == 0

    def test_exact_needs_exact_values(self):
        # a float-only copy takes the float rule, which finds the same hit
        seq = ConvexSequence(N=10, values=quadratic_example(10).values)
        assert intersect_count(seq, 1.0) == (1, [10])

    def test_exact_needs_rational_step(self):
        # 10^{-1/2} is irrational: the exact values fall back to the float rule
        seq = quadratic_example(10)
        assert intersect_count(seq, 0.5)[0] == 0

    def test_float_matches_exact_on_quadratic(self):
        seq = quadratic_example(10)
        floats = ConvexSequence(N=10, values=seq.values)
        assert intersect_count(floats, 1.0) == intersect_count(seq, 1.0)

    def test_exact_rejects_values_within_float_tolerance(self):
        # a_3 = 3/10 + 10^-13 is off the lattice, but within 1e-9 * N^-1 of it
        exact = [Q(n, 10) for n in range(1, 11)]
        exact[2] += Q(1, 10**13)
        values = np.array([float(v) for v in exact])
        seq = ConvexSequence(N=10, values=values, exact_values=exact)
        floats = ConvexSequence(N=10, values=values)
        assert intersect_count(seq, 1.0) == (9, [1, 2, 4, 5, 6, 7, 8, 9, 10])
        assert intersect_count(floats, 1.0) == (10, list(range(1, 11)))

    def test_shift_invariance(self):
        # adding a lattice constant to all values preserves the exact count
        seq = quadratic_example(12)
        shift = Q(5, 12)  # 5 * N^{-1}
        shifted = ConvexSequence(
            N=seq.N,
            values=np.array([float(v + shift) for v in seq.exact_values]),
            exact_values=[v + shift for v in seq.exact_values],
        )
        assert intersect_count(seq, 1.0) == intersect_count(shifted, 1.0)


class TestMediantStep:
    """The integer pair step of the mediant construction, scale2 = sn/sd."""

    def test_half_twothirds(self):
        # Delta = 12/6 = 2: both terms keep multiplier 1
        assert _mediant_step(1, 2, 2, 3, 12, 1) == (5, 3)

    def test_unreduced_inputs_not_reduced_output(self):
        # Delta = 1728/144 = 12: multipliers 1, increment 10/24 = 5/12
        assert _mediant_step(4, 12, 6, 12, 1728, 1) == (24, 10)
        assert Q(10, 24) == Q(5, 12)

    def test_order_enforced(self):
        for terms in ((2, 3, 1, 2), (1, 2, 1, 2), (1, 2, 2, 4)):
            with pytest.raises(ConstructionError, match="not increasing"):
                _mediant_step(*terms, 10**6, 1)

    def test_expands_both_terms(self):
        # Delta = 48/6 = 8: 1/2 -> 4/8, 2/3 -> 6/9
        assert _mediant_step(1, 2, 2, 3, 48, 1) == (17, 10)

    def test_exact_scale(self):
        # Delta = 64/6 = 32/3: 1/3 -> 4/12, 1/2 -> 6/12
        assert _mediant_step(1, 3, 1, 2, 64, 1) == (24, 10)

    def test_float_scale(self):
        # the float snap of scale2 as an exact binary fraction, Delta ~ 10.665
        s = Q(63.99)
        assert s.denominator > 1
        assert _mediant_step(1, 3, 1, 2, s.numerator, s.denominator) == (24, 10)

    def test_infeasible(self):
        # Delta = 6/6 = 1: denominator 3 exceeds 2*Delta, and no multiple helps
        with pytest.raises(ConstructionError, match="1/2, 2/3"):
            _mediant_step(1, 2, 2, 3, 6, 1)

    @given(
        n1=st.integers(0, 50),
        d1=st.integers(1, 50),
        n2=st.integers(0, 50),
        d2=st.integers(1, 50),
        extra=st.integers(0, 10**6),
        sd=st.integers(1, 1000),
    )
    @settings(max_examples=100)
    def test_strictly_between(self, n1, d1, n2, d2, extra, sd):
        assume(Q(n1, d1) < Q(n2, d2))
        sn = -(-max(d1, d2) * sd * d1 * d2 // 2) + extra  # feasible: max d <= 2*Delta
        k, M = _mediant_step(n1, d1, n2, d2, sn, sd)
        assert Q(n1, d1) < Q(M, k) < Q(n2, d2)

    @given(
        n1=st.integers(0, 50),
        d1=st.integers(1, 50),
        n2=st.integers(0, 50),
        d2=st.integers(1, 50),
        sn=st.integers(1, 10**6),
        sd=st.integers(1, 20),
    )
    @settings(max_examples=100)
    def test_expansions_in_range(self, n1, d1, n2, d2, sn, sd):
        assume(Q(n1, d1) < Q(n2, d2))
        delta = Q(sn, sd * d1 * d2)
        if max(d1, d2) > 2 * delta:
            with pytest.raises(ConstructionError):
                _mediant_step(n1, d1, n2, d2, sn, sd)
            return
        k, M = _mediant_step(n1, d1, n2, d2, sn, sd)
        # recover the multipliers from k = d1*m1 + d2*m2, M = n1*m1 + n2*m2
        det = d1 * n2 - n1 * d2
        for (n, d), num in (((n1, d1), k * n2 - M * d2), ((n2, d2), M * d1 - k * n1)):
            assert num % det == 0
            m = num // det
            assert m >= 1
            assert Q(n * m, d * m) == Q(n, d)
            assert delta <= d * m <= 2 * delta
            assert m == 1 or d * (m - 1) < delta  # the least such multiplier


class TestDirichletLike:
    def test_walkthrough_N64(self):
        seq = construct_dirichlet_like(64, 1.0)
        assert seq.meta["qmax"] == 4
        assert seq.meta["fractions"] == 3  # 1/3, 1/2, 2/3
        assert [(h.n, h.num, h.den) for h in seq.hits] == [(24, 10, 1), (48, 24, 1)]
        assert seq.values[23] == pytest.approx(10 / 64, abs=0)
        assert seq.values[47] == pytest.approx(24 / 64, abs=0)
        rep = validate(seq)
        assert rep["pass"] and rep["tightest_C"] == pytest.approx(2.9215, abs=1e-3)
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
            assert {h.n for h in seq.hits} <= set(idx)
            assert count >= len(seq.hits)

    def test_count_lower_bound_alpha1(self):
        seq = construct_dirichlet_like(4096, 1.0)
        assert len(seq.hits) >= 0.1 * 4096 ** (2 / 3)

    def test_alpha2_degenerate_denominators(self):
        seq = construct_dirichlet_like(4096, 2.0)
        assert seq.meta["qmax"] == 1
        assert validate(seq)["pass"]

    def test_tightest_C_under_8(self):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for N in (256, 1024, 4096):
                rep = validate(construct_dirichlet_like(N, alpha))
                assert rep["tightest_C"] <= 8.0

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
        f = build_c1(knots_from_sequence(seq.values))
        x = np.arange(1, 257) / 256
        resampled = f.eval_many(x)[0]
        assert np.max(np.abs(resampled - seq.values)) < 1e-10


class TestSmallAlpha:
    def test_alpha_zero(self):
        seq = construct_small_alpha(64, 0.0)
        assert len(seq.hits) >= 1
        assert seq.values[0] == 0.0  # first sample is the m=0 lattice point
        assert validate(seq)["tightest_C"] <= 8.0

    def test_alpha_quarter_counts(self):
        for N, low in [(1024, 0.1 * 1024**0.25), (4096, 0.1 * 4096**0.25)]:
            seq = construct_small_alpha(N, 0.25)
            assert len(seq.hits) >= low

    def test_alpha_half(self):
        seq = construct_small_alpha(1024, 0.5)
        assert len(seq.hits) >= 0.1 * 1024**0.5
        assert validate(seq)["pass"]

    def test_hits_certified(self):
        seq = construct_small_alpha(1024, 0.5)  # step 1/32, exactly dyadic
        for h in seq.hits:
            assert seq.values[h.n - 1] == h.num * (1024.0**-0.5)

    def test_counts_vs_float_mode(self):
        for N in (256, 1024):
            seq = construct_small_alpha(N, 0.25)
            count, idx = intersect_count(seq, 0.25)
            assert {h.n for h in seq.hits} <= set(idx)

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

    def test_small_alpha_walk_validates_at_256_quarter(self):
        assert validate(construct(256, 0.25))["pass"]

    @given(N=st.integers(10, 10**5), alpha=st.floats(0.5, 2.0))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_mediant_construction_validates_or_refuses(self, N, alpha):
        try:
            seq = construct(N, alpha)
        except ConstructionError:
            return
        assert validate(seq)["pass"]

    @given(N=st.integers(10, 10**5), alpha=st.floats(0.0, 0.5, exclude_max=True))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_small_alpha_construction_validates_or_refuses(self, N, alpha):
        try:
            seq = construct(N, alpha)
        except ConstructionError:
            return
        assert validate(seq)["pass"]


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


def _per_row_csv(seq: ConvexSequence, path) -> None:
    """The earlier to_csv: one writerow per row, float() of each NumPy scalar."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "a_n", "exact_num", "exact_den"])
        for i in range(seq.N):
            if seq.exact_values is not None:
                q = seq.exact_values[i]
                w.writerow([i + 1, repr(float(seq.values[i])), q.numerator, q.denominator])
            else:
                w.writerow([i + 1, repr(float(seq.values[i])), "", ""])


def _dictreader_rows(path):
    """(values, exact values) as the earlier from_csv read them: one
    csv.DictReader dict per row, raising the same ValueError messages."""
    values = []
    exact = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if "a_n" not in (reader.fieldnames or ()):
            raise ValueError(f"{path}: no a_n column")
        for row in reader:
            where = f"{path}: row {len(values) + 1}"
            try:
                v = float(row["a_n"])
                if not math.isfinite(v):
                    raise ValueError(f"a_n is {v}")
                if exact is not None and row.get("exact_num"):
                    q = Q(int(row["exact_num"]), int(row.get("exact_den")))
                    if float(q) != v:
                        raise ValueError(f"a_n = {v!r} is not the float of {q}")
                    exact.append(q)
                else:
                    exact = None
            except ZeroDivisionError:
                raise ValueError(f"{where}: exact_den is 0") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{where}: {exc}") from None
            values.append(v)
    return values, exact


def _bulk_rows(path):
    seq = ConvexSequence.from_csv(path)
    return seq.values.tolist(), seq.exact_values


def _read_or_error(read, path):
    """read(path), or the message of the ValueError it raised."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


HEADER = "n,a_n,exact_num,exact_den\n"


class TestSerialization:
    def test_csv_roundtrip_exact(self, tmp_path):
        seq = quadratic_example(12)
        p = tmp_path / "seq.csv"
        seq.to_csv(str(p))
        back = ConvexSequence.from_csv(str(p))
        assert back.N == 12
        assert np.array_equal(back.values, seq.values)
        assert back.exact_values == seq.exact_values

    def test_csv_exact_rows_load(self, tmp_path):
        # each a_n that to_csv writes is the float of its exact value
        seq = quadratic_example(1000)
        for s in (seq, shear(seq, 0.3)):
            p = tmp_path / "seq.csv"
            s.to_csv(str(p))
            back = ConvexSequence.from_csv(str(p))
            assert np.array_equal(back.values, s.values)
            assert back.exact_values == s.exact_values

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

    @pytest.mark.parametrize("make", [
        lambda: construct(4096, 2),
        lambda: construct(256, 0.25),
        lambda: quadratic_example(1000),
        lambda: shear(quadratic_example(1000), 0.3),
    ], ids=["4096-2", "256-0.25", "quadratic-exact", "quadratic-sheared"])
    def test_csv_bytes_match_per_row_writer(self, tmp_path, make):
        # the earlier to_csv wrote each row with its own writerow call
        seq = make()
        seq.to_csv(str(tmp_path / "bulk.csv"))
        _per_row_csv(seq, tmp_path / "per_row.csv")
        want = (tmp_path / "per_row.csv").read_bytes()
        assert (tmp_path / "bulk.csv").read_bytes() == want

    @pytest.mark.parametrize("text, accepted", [
        (HEADER + "\n1,0.5,1,2\n\n\n2,1.0,1,1\n\n", True),
        (HEADER + "1,0.5,1,2\n2,1.0\n", True),
        (HEADER + "1,0.5,1,2\n2\n", False),
        (HEADER + "1,0.5,1,2,9\n2,1.0,1,1,x,y\n", True),
        ("n,a_n,exact_num,exact_den,a_n\n1,9.0,1,2,0.5\n", True),
        ("n,a_n,exact_num,exact_den,a_n\n1,0.5,1,2\n", False),
        (HEADER + "1,0.5,,\n2,1.0,,\n", True),
        ("n,a_n,exact_num\n1,0.5,1\n", False),
        ("n,a_n,exact_num\n1,0.5,\n", True),
        (HEADER + "1,0.5,1,2\n2,1.0,1,0\n", False),
        (HEADER + "1,0.5,1,2\n2,abc,,\n", False),
        (HEADER + "1,inf,,\n", False),
        ("", False),
        ("\nn,a_n\n1,0.5\n", False),
        ("n,value\n1,0.5\n", False),
    ], ids=["blank-lines", "short-row", "short-row-no-a_n", "extra-fields",
            "duplicate-a_n", "duplicate-a_n-short", "empty-exact", "no-exact_den",
            "no-exact_den-empty-num", "exact_den-0", "a_n-not-float", "a_n-inf",
            "empty-file", "blank-header", "no-a_n"])
    def test_csv_reads_as_dictreader(self, tmp_path, text, accepted):
        # the earlier from_csv read each row through csv.DictReader
        path = tmp_path / "seq.csv"
        path.write_text(text)
        want = _read_or_error(_dictreader_rows, str(path))
        got = _read_or_error(_bulk_rows, str(path))
        assert got == want
        assert isinstance(want, tuple) == accepted

    @pytest.mark.parametrize("N, alpha", [
        (4096, 2.0), (256, 0.25), (1000, 0.5),
        pytest.param(256, "int", id="256-int-alpha-read-back"),
        pytest.param(256, np.float64(2.0), id="256-float64-alpha"),
        pytest.param(12, None, id="no-hits"),
    ])
    def test_hits_json_bytes_match_asdict_encoding(self, tmp_path, N, alpha):
        # the earlier hits_to_json called json.dumps(..., indent=2, sort_keys=True);
        # json writes an np.float64 alpha as 2.0 and a JSON integer alpha as 2
        h = tmp_path / "seq.hits.json"
        if alpha is None:
            seq = ConvexSequence(N=N, values=quadratic_example(N).values, hits=[])
        elif alpha == "int":
            csv_path = str(tmp_path / "seq.csv")
            construct(N, 2.0).to_csv(csv_path)
            construct(N, 2.0).hits_to_json(str(h))
            h.write_text(h.read_text().replace('"alpha": 2.0', '"alpha": 2'))
            seq = ConvexSequence.from_csv(csv_path, hits_path=str(h))
            assert seq.hits and all(type(x.alpha) is int for x in seq.hits)
        else:
            seq = construct(N, alpha)
        seq.hits_to_json(str(h))
        want = json.dumps([asdict(x) for x in seq.hits], indent=2, sort_keys=True)
        assert h.read_text() == want
