"""Exact rational helpers: Farey-style enumeration, mediants, denominator expansion.

Everything in this module is exact integer arithmetic.  Interval endpoints may
be given as int, fractions.Fraction, ReducedRational, Fraction (ours), or
float; floats are converted to their exact binary value, so results stay
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Union


class InfeasibleExpansionError(ValueError):
    """No multiple of the required denominator lies in the target range."""


Endpoint = Union[int, float, Q, "ReducedRational", "Fraction"]


def _as_exact(v: Endpoint) -> Q:
    if isinstance(v, (ReducedRational, Fraction)):
        return Q(v.num, v.den)
    if isinstance(v, float):
        return Q(v)  # exact binary value of the float
    return Q(v)


@dataclass(frozen=True)
class ReducedRational:
    """A rational in lowest terms with positive denominator."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 1:
            raise ValueError(f"denominator must be >= 1, got {self.den}")
        if math.gcd(self.num, self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not reduced")

    @classmethod
    def from_parts(cls, num: int, den: int) -> "ReducedRational":
        """Reduce num/den (den may be negative) to canonical form."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        return cls(num // g, den // g)

    def as_fraction(self) -> Q:
        return Q(self.num, self.den)

    def __float__(self) -> float:
        return self.num / self.den

    def _cmp_key(self, other: "ReducedRational") -> int:
        return self.num * other.den - other.num * self.den

    def __lt__(self, other: "ReducedRational") -> bool:
        return self._cmp_key(other) < 0

    def __le__(self, other: "ReducedRational") -> bool:
        return self._cmp_key(other) <= 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class Fraction:
    """A fraction num/den that is *not* required to be in lowest terms.

    Mediants depend on the representative, not the value, so reduction is
    deliberately not performed here.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 1:
            raise ValueError(f"denominator must be >= 1, got {self.den}")

    def reduce(self) -> ReducedRational:
        return ReducedRational.from_parts(self.num, self.den)

    def as_fraction(self) -> Q:
        return Q(self.num, self.den)

    def __float__(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def enumerate_fractions(lo: Endpoint, hi: Endpoint, qmax: int) -> list[ReducedRational]:
    """All distinct rationals in [lo, hi] with reduced denominator <= qmax.

    Returned strictly increasing.  Endpoints are included.  One pass per
    denominator; reduced representatives are unique, so no dedup is needed.
    """
    if qmax < 1:
        raise ValueError(f"qmax must be >= 1, got {qmax}")
    lo_q, hi_q = _as_exact(lo), _as_exact(hi)
    if lo_q >= hi_q:
        raise ValueError(f"empty interval: lo={lo_q} >= hi={hi_q}")
    out: list[ReducedRational] = []
    for q in range(1, qmax + 1):
        p_lo = math.ceil(lo_q * q)
        p_hi = math.floor(hi_q * q)
        for p in range(p_lo, p_hi + 1):
            if math.gcd(p, q) == 1:
                out.append(ReducedRational(p, q))
    out.sort(key=lambda r: r.as_fraction())
    return out


def count_fractions(lo: Endpoint, hi: Endpoint, qmax: int) -> int:
    return len(enumerate_fractions(lo, hi, qmax))


def mediant(f1: Fraction, f2: Fraction) -> Fraction:
    """Mediant (n1+n2)/(d1+d2) of the given representatives, not reduced.

    Requires f1 < f2 by value; the mediant then lies strictly between them.
    """
    if f1.num * f2.den >= f2.num * f1.den:
        raise ValueError(f"mediant requires f1 < f2, got {f1} >= {f2}")
    return Fraction(f1.num + f2.num, f1.den + f2.den)


def expand_to_range(r: ReducedRational, lo: Endpoint, hi: Endpoint) -> Fraction:
    """Rewrite r with the smallest denominator multiple of r.den that is >= lo.

    The result is value-equal to r with denominator in [lo, hi].  Feasible
    whenever r.den <= lo and hi >= 2*lo: consecutive multiples of r.den are
    r.den apart, so one lands in the window.
    """
    lo_q, hi_q = _as_exact(lo), _as_exact(hi)
    if lo_q <= 0:
        raise ValueError(f"lo must be positive, got {lo_q}")
    m = math.ceil(lo_q / r.den)
    if m < 1:
        m = 1
    if m * r.den > hi_q:
        raise InfeasibleExpansionError(
            f"no multiple of {r.den} in [{float(lo_q):.6g}, {float(hi_q):.6g}]"
        )
    return Fraction(r.num * m, r.den * m)


def iroot(n: int, k: int) -> int:
    """Floor k-th root of a nonnegative integer, exact."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n == 0:
        return 0
    x = int(round(n ** (1.0 / k)))
    x = max(x, 1)
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def power_exact(base: int, expo: Q) -> Q | None:
    """base**expo as an exact rational, or None when it is irrational.

    base must be a positive integer.  Exact iff base**|num| is a perfect
    den-th power.
    """
    if base < 1:
        raise ValueError("base must be a positive integer")
    p, q = expo.numerator, expo.denominator
    n = base ** abs(p)
    r = iroot(n, q)
    if r ** q != n:
        return None
    return Q(r) if p >= 0 else Q(1, r)


def power_floor(base: int, expo: Q) -> int:
    """floor(base**expo) computed without float artifacts near integers."""
    exact = power_exact(base, expo)
    if exact is not None:
        return exact.numerator // exact.denominator
    p, q = expo.numerator, expo.denominator
    if p >= 0:
        return iroot(base ** p, q)
    # 0 < base**expo < 1 and irrational
    return 0


def power_value(base: int, expo: Q) -> tuple[Q, bool]:
    """base**expo as a rational: (exact value, True) or (float snap, False)."""
    exact = power_exact(base, expo)
    if exact is not None:
        return exact, True
    return Q(float(base) ** float(expo)), False
