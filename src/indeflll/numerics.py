"""Exact scalar arithmetic primitives.

Everything in this package computes over arbitrary-precision integers
(plain ``int``) and rationals (``fractions.Fraction``).  No floating
point is used anywhere; comparisons against square roots are decided by
sign analysis and squaring.
"""

import re
from collections.abc import Sequence
from fractions import Fraction
from math import isqrt, lcm

from .errors import ParseError

Rational = int | Fraction


def normalize(x: Rational) -> Rational:
    """x as an int when it is integral, otherwise as a Fraction.

    Integral entries then take plain int arithmetic, which is much
    cheaper than Fraction arithmetic and gives the same values.
    """
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def sign(x: Rational) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def clear_denominators(xs: Sequence[Rational]) -> tuple[list[int], int]:
    """The xs times the lcm of their denominators, as ints, and that lcm."""
    # a list, not a generator: under CPython 3.11.7, lcm(*generator)
    # retained memory across calls (+10% peak RSS on d = 16 inputs)
    den = lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


def nearest_int(x: Rational) -> int:
    """Closest integer to x, ties broken toward zero.

    |x - nearest_int(x)| <= 1/2 always; at half-integers the candidate
    with the smaller absolute value wins (so 7/2 -> 3 and -7/2 -> -3).
    """
    x = Fraction(x)
    return nearest_div(x.numerator, x.denominator)


def nearest_div(n: int, m: int) -> int:
    """nearest_int(n / m) for ints n and m != 0."""
    if m < 0:
        n, m = -n, -m
    q, rem = divmod(n, m)  # rem in [0, m); a tie rounds toward zero
    return q + (2 * rem > m or (2 * rem == m and q < 0))


def floor_sqrt_div(p: int, d: int, q: int) -> int:
    """floor((p + sqrt(d)) / q) for ints p, d >= 0 and q != 0.

    For integer p and real y, floor((p + y) / q) is floor((p + floor(y)) / q)
    when q > 0 and floor((p + ceil(y)) / q) when q < 0; floor(sqrt(d)) is
    isqrt(d), and ceil(sqrt(d)) is one more unless d is a square.
    """
    r = isqrt(d)
    if q > 0:
        return (p + r) // q
    return (p + r + (r * r != d)) // q


def ceil_sqrt_div(p: int, d: int, q: int) -> int:
    """ceil((p + sqrt(d)) / q) = -floor((p + sqrt(d)) / -q), same domain."""
    return -floor_sqrt_div(p, d, -q)


def is_rational_square(x: Rational) -> Fraction | None:
    """Return r >= 0 with r*r == x if x is the square of a rational, else None."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def cmp_with_sqrt(p: Rational, q: Rational, d: Rational) -> int:
    """Exact sign of p - q*sqrt(d) for rational p, q and d >= 0."""
    pn, pd = (p.numerator, p.denominator) if isinstance(p, Fraction) else (p, 1)
    qn, qd = (q.numerator, q.denominator) if isinstance(q, Fraction) else (q, 1)
    dn, dd = (d.numerator, d.denominator) if isinstance(d, Fraction) else (d, 1)
    if dn < 0:
        raise ValueError("cmp_with_sqrt requires d >= 0")
    if dn == 0 or qn == 0:
        return sign(pn)
    if qn > 0 and pn <= 0:
        return -1
    if qn < 0 and pn >= 0:
        return 1
    # p and q*sqrt(d) share a strict sign; compare squares cross-multiplied
    lhs = pn * pn * qd * qd * dd
    rhs = qn * qn * dn * pd * pd
    if lhs == rhs:
        return 0
    return sign(pn) * (1 if lhs > rhs else -1)


def floor_mixed(a: Rational, b: Rational, d: Rational) -> int:
    """floor(a + b*sqrt(d)) computed exactly, d >= 0.

    A scaled integer square root brackets b*sqrt(d) within less than 1,
    then the candidate is fixed with exact sign tests.
    """
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    if d < 0:
        raise ValueError("floor_mixed requires d >= 0")
    m = d.numerator * d.denominator  # sqrt(d) = sqrt(m) / d.denominator
    bp = b / d.denominator
    if m == 0 or bp == 0:
        return a.numerator // a.denominator
    k = abs(bp.numerator) // bp.denominator + 2  # k > |bp|
    s = isqrt(m * k * k)  # s/k <= sqrt(m) < (s+1)/k
    lo = a + bp * Fraction(s if bp > 0 else s + 1, k)
    n = lo.numerator // lo.denominator
    # value >= n+1  <=>  (a - (n+1)) + bp*sqrt(m) >= 0
    while cmp_with_sqrt(a - (n + 1), -bp, m) >= 0:
        n += 1
    return n


def ceil_mixed(a: Rational, b: Rational, d: Rational) -> int:
    """ceil(a + b*sqrt(d)) computed exactly, d >= 0."""
    n = floor_mixed(a, b, d)
    return n if _equals_int(a, b, d, n) else n + 1


def _equals_int(a: Rational, b: Rational, d: Rational, n: int) -> bool:
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    m = d.numerator * d.denominator
    bp = b / d.denominator
    return cmp_with_sqrt(a - n, -bp, m) == 0


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """An ASCII decimal integer literal, [+-]?[0-9]+ (`int` alone also
    takes digit-group underscores and non-ASCII digits); ValueError
    otherwise."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse a decimal integer or a "p/q" literal, each part an ASCII
    integer as `parse_int` reads it, into a Fraction."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(parse_int(num.strip()), parse_int(den.strip()))
        return Fraction(parse_int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational literal: {text!r}") from exc


def format_rational(x: Rational) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
