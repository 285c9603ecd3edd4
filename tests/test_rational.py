"""Tests for exact rational helpers, checked against brute-force oracles."""

import fractions
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexsums import rational
from convexsums.rational import (
    Q,
    count_fractions,
    enumerate_fractions,
    iroot,
    power_exact,
    power_floor,
    power_value,
)


def oracle_enumerate(lo, hi, qmax):
    """All reduced p/q with q <= qmax in [lo, hi], the slow obvious way."""
    lo = fractions.Fraction(lo)
    hi = fractions.Fraction(hi)
    seen = set()
    for q in range(1, qmax + 1):
        for p in range(math.floor(lo * q), math.ceil(hi * q) + 1):
            v = fractions.Fraction(p, q)
            if lo <= v <= hi:
                seen.add(v)
    return sorted(seen)


class TestEnumerate:
    def test_unit_interval_qmax3(self):
        assert enumerate_fractions(Q(1, 3), Q(2, 3), 3) == [(1, 3), (1, 2), (2, 3)]

    def test_count_1_2_qmax3(self):
        assert count_fractions(1, 2, 3) == 5  # 1, 4/3, 3/2, 5/3, 2

    def test_count_integers_only(self):
        assert count_fractions(1, 2, 1) == 2

    def test_density_window(self):
        # long interval: count is close to (3/pi^2) * len * qmax^2
        n = count_fractions(100, 200, 10)
        assert 0.15 * 100 * 10**2 <= n <= 0.6 * 100 * 10**2

    def test_matches_oracle(self):
        for lo, hi, qmax in [
            (Q(1, 3), Q(2, 3), 5),
            (Q(0), Q(1), 7),
            (Q(3, 7), Q(5, 7), 12),
            (Q(99, 10), Q(101, 10), 4),
        ]:
            got = [Q(n, d) for n, d in enumerate_fractions(lo, hi, qmax)]
            want = oracle_enumerate(lo, hi, qmax)
            assert got == want
            assert count_fractions(lo, hi, qmax) == len(want)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            enumerate_fractions(Q(1, 2), Q(1, 2), 5)
        with pytest.raises(ValueError):
            enumerate_fractions(Q(2, 3), Q(1, 3), 5)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((Q(2, 3), Q(1, 3), 5), "empty interval"),
            ((0, 1, 0), "qmax must be >= 1"),
            ((float("nan"), 1, 5), "endpoint must be finite"),
        ],
    )
    def test_count_and_enumerate_reject_alike(self, args, message):
        for fn in (count_fractions, enumerate_fractions):
            with pytest.raises(ValueError, match=message):
                fn(*args)

    def test_mertens_small(self):
        want = [0, 1, 0, -1, -1, -2, -1, -2, -2, -2, -1, -2, -2, -3]
        assert rational._mertens(13).tolist() == want

    @pytest.mark.parametrize(
        "lo, hi, qmax",
        [
            (Q(0), Q(1), 300),
            (Q(-7, 3), Q(5, 4), 211),
            (0.1234, 0.9876, 256),
            (-2.5, -2.4999, 500),
            (Q(355, 113), Q(22, 7), 997),
        ],
    )
    def test_count_matches_walk_large_qmax(self, lo, hi, qmax):
        # denominators well past the property test's 20, where many pairs
        # (p, q) share a factor and the inversion subtracts them
        assert count_fractions(lo, hi, qmax) == len(enumerate_fractions(lo, hi, qmax))

    @given(
        lo=st.one_of(
            st.fractions(min_value=-5, max_value=5, max_denominator=20),
            st.floats(min_value=-5, max_value=5),
        ),
        width=st.one_of(
            st.fractions(min_value=Q(1, 40), max_value=3, max_denominator=40),
            st.floats(min_value=1e-4, max_value=3),
        ),
        qmax=st.integers(1, 20),
    )
    @example(lo=Q(1, 3) + Q(1, 100), width=Q(1, 100), qmax=3)  # no fraction
    @example(lo=Q(-7, 3), width=Q(5, 2), qmax=4)  # negative, crosses -2 .. 0
    @example(lo=-0.7, width=1.9, qmax=6)  # float endpoints crossing 0 and 1
    @example(lo=Q(2, 5), width=Q(1, 5), qmax=5)  # both ends on Farey points
    @settings(max_examples=150)
    def test_oracle_property(self, lo, width, qmax):
        hi = lo + width
        pairs = enumerate_fractions(lo, hi, qmax)
        assert [Q(n, d) for n, d in pairs] == oracle_enumerate(lo, hi, qmax)
        assert count_fractions(lo, hi, qmax) == len(pairs)
        # output invariants: reduced, bounded denominator, in the window,
        # and consecutive terms are Farey neighbours (hence strictly sorted)
        for n, d in pairs:
            assert math.gcd(n, d) == 1
            assert 1 <= d <= qmax
            assert lo <= Q(n, d) <= hi
        for (n1, d1), (n2, d2) in zip(pairs, pairs[1:]):
            assert d1 * n2 - n1 * d2 == 1


class TestPower:
    def test_iroot_exact(self):
        # k from n.bit_length() on has root 1; a 7-digit k, as
        # limit_denominator(10**6) of a float gives, must not form 2**k
        assert iroot(10**5, 3_000_001) == 1
        for n in [*range(0, 200), 2**17 - 1, 10**5, 2**64, 3**200]:
            for k in range(1, n.bit_length() + 4):
                r = iroot(n, k)
                assert r**k <= n < (r + 1) ** k, (n, k)

    @given(n=st.integers(0, 2**2000), k=st.integers(1, 300))
    @settings(max_examples=200)
    def test_iroot_large(self, n, k):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k

    def test_cube_root_64(self):
        # float round-trip gives 63.999999...; exact arithmetic must not
        assert power_floor(64, Q(1, 3)) == 4
        assert power_floor(4096, Q(1, 2)) == 64

    def test_power_floor_vs_float_free_oracle(self):
        for base in (2, 3, 10, 64, 100, 4096):
            for p, q in [(1, 2), (1, 3), (2, 3), (3, 4), (5, 6), (7, 12)]:
                got = power_floor(base, Q(p, q))
                # oracle: largest m with m^q <= base^p
                m = got
                assert m**q <= base**p < (m + 1) ** q

    @pytest.mark.parametrize("fn, args, message", [
        (iroot, (-1, 2), "n >= 0"), (power_exact, (0, Q(1, 2)), "positive integer"),
    ], ids=["iroot-negative", "power-exact-zero-base"])
    def test_rejects_bad_arguments(self, fn, args, message):
        with pytest.raises(ValueError, match=message):
            fn(*args)

    def test_power_floor_negative_irrational_exponent(self):
        assert power_floor(2, Q(-1, 2)) == 0  # 2^{-1/2} = 0.707...

    def test_power_exact(self):
        assert power_exact(64, Q(2, 3)) == 16
        assert power_exact(64, Q(-1, 2)) == Q(1, 8)
        assert power_exact(2, Q(1, 2)) is None
        assert power_exact(10, Q(0, 1)) == 1

    def test_power_exact_vs_root_oracle(self):
        for base in range(1, 400):
            for q in range(1, 13):
                for p in range(-8, 9):
                    n = base ** abs(p)
                    r = iroot(n, q)
                    want = None if r**q != n else (Q(r) if p >= 0 else Q(1, r))
                    assert power_exact(base, Q(p, q)) == want, (base, p, q)

    def test_large_exponents(self):
        # 1000**1223 is far past the float range, so neither the exactness
        # test nor the floor may convert it to float
        p, q = 1223, 3000
        m = power_floor(1000, Q(p, q))
        assert m == 16 and m**q <= 1000**p < (m + 1) ** q
        assert power_exact(1000, Q(p, q)) is None
        assert power_exact(1000, Q(2000, 3)) == 10**2000
        assert power_exact(1000, Q(-2000, 3)) == Q(1, 10**2000)
        # 2**100.5 ~ 1.8e30 is too large to settle by 50 digits: exact root
        assert power_floor(2, Q(201, 2)) == math.isqrt(2**201)
        # exponent with a 7-digit denominator, as limit_denominator(10**6)
        # of a float alpha gives; 10**5 ** (1234567/3000001) = 114.186
        assert power_floor(10**5, Q(1234567, 3000001)) == 114
        v, exact = power_value(10**5, Q(1234567, 3000001))
        assert not exact and v == Q(1e5 ** (1234567 / 3000001))

    def test_power_value(self):
        v, exact = power_value(64, Q(1, 3))
        assert exact and v == 4
        v, exact = power_value(2, Q(1, 2))
        assert not exact and abs(float(v) - math.sqrt(2)) < 1e-15

