"""Exact rational helpers: Farey enumeration and counts, exact powers, roots.

Rationals are fractions.Fraction, the package's only rational type; Farey
terms are (num, den) integer pairs.  Everything in this module is exact
integer arithmetic, apart from the 50-digit decimal that power_floor uses
only where its error cannot move the answer.  Interval endpoints may be
given as int, fractions.Fraction or a finite float; floats are converted to
their exact binary value, so results stay deterministic.
"""

from __future__ import annotations

import decimal
import itertools
import math
from array import array
from fractions import Fraction as Q


Endpoint = int | float | Q


def _as_exact(v: Endpoint) -> Q:
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"endpoint must be finite, got {v}")
    return Q(v)  # a float becomes its exact binary value


def _window(lo: Endpoint, hi: Endpoint, qmax: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(num, den) of lo and of hi, once qmax >= 1 and lo < hi are checked."""
    if qmax < 1:
        raise ValueError(f"qmax must be >= 1, got {qmax}")
    lo_q, hi_q = _as_exact(lo), _as_exact(hi)
    if lo_q >= hi_q:
        raise ValueError(f"empty interval: lo={lo_q} >= hi={hi_q}")
    return (lo_q.numerator, lo_q.denominator), (hi_q.numerator, hi_q.denominator)


def enumerate_fractions(lo: Endpoint, hi: Endpoint, qmax: int) -> list[tuple[int, int]]:
    """(num, den) of each rational in [lo, hi] with reduced denominator <= qmax.

    Returned strictly increasing, in lowest terms; endpoints included.
    Walks the Farey sequence of order qmax (Graham-Knuth-Patashnik, Concrete
    Mathematics 4.5): neighbours a/b < c/d satisfy bc - ad = 1, and the term
    after c/d is (kc - a)/(kd - b) with k = floor((qmax + b)/d).  Every
    comparison is an integer cross-multiplication, so there is no sort.
    """
    (ln, ld), (hn, hd) = _window(lo, hi, qmax)
    # first term >= lo: the least ceil(lo*q)/q; ties keep the smaller q,
    # which is the reduced form
    a, b = -(-ln // ld), 1
    for q in range(2, qmax + 1):
        p = -(-ln * q // ld)
        if p * b < a * q:
            a, b = p, q
    if a * hd > hn * b:
        return []
    # its right neighbour: bc - ad = 1 with the largest d <= qmax
    d0 = -pow(a, -1, b) % b
    d = d0 + (qmax - d0) // b * b
    c = (1 + a * d) // b
    terms = [(a, b)]
    while c * hd <= hn * d:
        terms.append((c, d))
        k = (qmax + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return terms


def _mertens(n: int) -> array:
    """M(0..n), where M(m) is the sum of the Moebius function mu over 1..m."""
    mu = array("b", [1]) * (n + 1)
    mu[0] = 0
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if not composite[p]:
            for k in range(p, n + 1, p):
                composite[k] = 1
                mu[k] = -mu[k]
            for k in range(p * p, n + 1, p * p):
                mu[k] = 0
    return array("q", itertools.accumulate(mu))


def count_fractions(lo: Endpoint, hi: Endpoint, qmax: int) -> int:
    """len(enumerate_fractions(lo, hi, qmax)), without walking the terms.

    Moebius inversion over g = gcd(p, q): the pairs (p, q) with q <= m and
    lo <= p/q <= hi number S(m) = sum_{q<=m} c(q), c(q) = floor(hi q) -
    ceil(lo q) + 1, and each is g times a reduced pair with denominator
    <= m/g.  So the count is sum_{d<=qmax} mu(d) S(qmax // d), which is
    sum_{q<=qmax} c(q) M(qmax // q) with M the Mertens function; every c(q)
    is an exact integer.
    """
    (ln, ld), (hn, hd) = _window(lo, hi, qmax)
    mertens = _mertens(qmax)
    return sum(
        (hn * q // hd + (-ln * q) // ld + 1) * mertens[qmax // q]
        for q in range(1, qmax + 1)
    )


def iroot(n: int, k: int) -> int:
    """Floor k-th root of a nonnegative integer, in integer arithmetic only."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n
    if k >= n.bit_length():  # n < 2^k, so the root is 1
        return 1
    # 2^(e-1) <= root < 2^e; bisect until the bracket is within a factor
    # 1 + 1/k, since Newton from above only converges fast from there
    e = -(-n.bit_length() // k)
    lo, hi = 1 << (e - 1), 1 << e
    while hi - lo > 1 and (hi - lo) * k > lo:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    # integer Newton from above decreases strictly and never undershoots
    # the floor root, so it stops exactly there
    x = hi
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def power_exact(base: int, expo: Q) -> Q | None:
    """base**expo as an exact rational, or None when it is irrational.

    base must be a positive integer.  With expo = p/q in lowest terms,
    base**expo is rational iff base = r**q for an integer r; it is then r**p.
    For if base**(|p|/q) is rational, it is an integer m, being a rational
    whose q-th power base**|p| is an integer; and u*|p| + v*q = 1 gives
    base = (m**u * base**v)**q, so r = m**u * base**v is an integer too.  One
    integer root decides it, found without forming base**p.
    """
    if base < 1:
        raise ValueError("base must be a positive integer")
    p, q = expo.numerator, expo.denominator
    r = iroot(base, q)
    return Q(r) ** p if r**q == base else None


def power_floor(base: int, expo: Q) -> int:
    """floor(base**expo) computed without float artifacts near integers.

    An irrational base**expo is found to 50 significant digits, which fixes
    its floor unless it lies within a relative 1e-30 of an integer.  Only
    then is the floor q-th root of base**p taken; with p near 10**6, as
    limit_denominator(10**6) of a float exponent gives, that integer has
    millions of digits.
    """
    exact = power_exact(base, expo)
    if exact is not None:
        return exact.numerator // exact.denominator
    p, q = expo.numerator, expo.denominator
    if p < 0:
        return 0  # 0 < base**expo < 1 and irrational
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        y = (decimal.Decimal(p) / q * decimal.Decimal(base).ln()).exp()
        m = int(y)
        margin = y.scaleb(-30)
        if margin < y - m < 1 - margin:
            return m
    return iroot(base**p, q)


def power_value(base: int, expo: Q) -> tuple[Q, bool]:
    """base**expo as a rational: (exact value, True) or (float snap, False)."""
    exact = power_exact(base, expo)
    if exact is not None:
        return exact, True
    return Q(float(base) ** float(expo)), False
