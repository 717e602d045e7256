import decimal
import random
from fractions import Fraction

import pytest

from indeflll.numerics import (
    ceil_mixed,
    ceil_sqrt_div,
    cmp_with_sqrt,
    floor_mixed,
    floor_sqrt_div,
    format_rational,
    is_rational_square,
    nearest_div,
    nearest_int,
    parse_rational,
)
from indeflll.errors import ParseError
from indeflll.qform import BQForm
from fraction_walk import indefinite_step


def test_nearest_int_examples():
    assert nearest_int(Fraction(0)) == 0
    assert nearest_int(Fraction(7, 2)) == 3  # tie toward zero
    assert nearest_int(Fraction(-7, 2)) == -3
    assert nearest_int(Fraction(-5, 3)) == -2
    assert nearest_int(Fraction(1, 2)) == 0
    assert nearest_int(Fraction(-1, 2)) == 0
    assert nearest_int(5) == 5


def test_nearest_int_is_nearest():
    rng = random.Random(11)
    for _ in range(2000):
        x = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 999))
        n = nearest_int(x)
        err = abs(x - n)
        assert err <= Fraction(1, 2)
        if err == Fraction(1, 2):
            # the other candidate has a larger absolute value
            other = n + 1 if x > n else n - 1
            assert abs(n) < abs(other)


def test_is_rational_square():
    assert is_rational_square(Fraction(9, 4)) == Fraction(3, 2)
    assert is_rational_square(2) is None
    assert is_rational_square(0) == 0
    assert is_rational_square(-4) is None
    rng = random.Random(5)
    for _ in range(500):
        r = Fraction(rng.randrange(0, 4000), rng.randrange(1, 300))
        got = is_rational_square(r * r)
        assert got is not None and got * got == r * r
    assert is_rational_square(Fraction(8, 2)) == 2  # normalizes to 4


def test_cmp_with_sqrt_examples():
    assert cmp_with_sqrt(3, 1, 8) > 0
    assert cmp_with_sqrt(2, 1, 4) == 0
    assert cmp_with_sqrt(-1, 1, 2) < 0
    # with d = 0 or q = 0 the sign is p's, zero included
    assert cmp_with_sqrt(0, 1, 0) == 0
    assert cmp_with_sqrt(-3, 5, 0) == -1 and cmp_with_sqrt(Fraction(1, 2), 0, 7) == 1
    with pytest.raises(ValueError):
        cmp_with_sqrt(1, 1, -1)


def test_cmp_with_sqrt_against_high_precision():
    # independent oracle: 60-digit decimal interval evaluation
    decimal.getcontext().prec = 60
    rng = random.Random(404)
    checked = 0
    for _ in range(10_000):
        p = Fraction(rng.randrange(-500, 501), rng.randrange(1, 40))
        q = Fraction(rng.randrange(-500, 501), rng.randrange(1, 40))
        d = Fraction(rng.randrange(0, 900), rng.randrange(1, 40))
        got = cmp_with_sqrt(p, q, d)
        dp = decimal.Decimal(p.numerator) / decimal.Decimal(p.denominator)
        dq = decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)
        dd = decimal.Decimal(d.numerator) / decimal.Decimal(d.denominator)
        val = dp - dq * dd.sqrt()
        if abs(val) > decimal.Decimal("1e-40"):
            assert got == (1 if val > 0 else -1), (p, q, d)
            checked += 1
        else:
            # the decimal value is consistent with an exact zero
            assert got == 0 or abs(val) > 0
    assert checked > 9000


def test_floor_and_ceil_mixed():
    assert floor_mixed(0, 1, 8) == 2
    assert floor_mixed(0, Fraction(-1, 4), 8) == -1
    assert floor_mixed(5, 0, 7) == 5
    assert ceil_mixed(0, 1, 4) == 2
    assert ceil_mixed(0, 1, 2) == 2
    rng = random.Random(77)
    decimal.getcontext().prec = 60
    for _ in range(3000):
        a = Fraction(rng.randrange(-400, 401), rng.randrange(1, 30))
        b = Fraction(rng.randrange(-400, 401), rng.randrange(1, 30))
        d = Fraction(rng.randrange(0, 500), rng.randrange(1, 30))
        n = floor_mixed(a, b, d)
        da = decimal.Decimal(a.numerator) / decimal.Decimal(a.denominator)
        db = decimal.Decimal(b.numerator) / decimal.Decimal(b.denominator)
        dd = decimal.Decimal(d.numerator) / decimal.Decimal(d.denominator)
        val = da + db * dd.sqrt()
        assert decimal.Decimal(n) <= val + decimal.Decimal("1e-40")
        assert decimal.Decimal(n + 1) > val - decimal.Decimal("1e-40")


def _check_integer_kernel(p: int, d: int, q: int) -> None:
    """The integer primitives against the Fraction reference."""
    a, b = Fraction(p, q), Fraction(1, q)
    assert floor_sqrt_div(p, d, q) == floor_mixed(a, b, d), (p, d, q)
    assert ceil_sqrt_div(p, d, q) == ceil_mixed(a, b, d), (p, d, q)
    assert nearest_div(p, q) == nearest_int(a), (p, q)


def test_integer_kernel_matches_reference_on_a_box():
    # perfect squares, d = 0 and both signs of q are all inside the box
    for p in range(-12, 13):
        for d in range(0, 50):
            for q in range(-9, 10):
                if q:
                    _check_integer_kernel(p, d, q)
    assert floor_sqrt_div(0, 2, -1) == -2 and ceil_sqrt_div(0, 2, -1) == -1
    assert floor_sqrt_div(1, 9, -2) == -2 and ceil_sqrt_div(1, 9, -2) == -2
    assert nearest_div(7, 2) == 3 and nearest_div(7, -2) == -3 and nearest_div(-1, 2) == 0
    with pytest.raises(ValueError):
        floor_sqrt_div(0, -1, 1)


def test_integer_kernel_matches_reference_on_large_values():
    rng = random.Random(2007)
    for _ in range(300):
        bits = rng.randrange(200, 400)
        p = rng.randrange(-(1 << bits), 1 << bits)
        q = rng.choice((1, -1)) * rng.randrange(1, 1 << rng.randrange(1, bits))
        root = rng.randrange(0, 1 << bits)
        for d in (root * root, root * root + rng.randrange(1, 2 * root + 1) if root else 1):
            _check_integer_kernel(p, d, q)
            _check_integer_kernel(-root, d, q)  # (p + sqrt d) / q at or near zero


def test_integer_kernel_on_the_pathological_form():
    # the quotients of the walk of the 19-digit form, to reducedness and on
    f = BQForm(5133516356526721720, -2 * 5133515988396719824, 5133515620266744327)
    d = f.disc
    for _ in range(40):
        a, b, c = f.coeffs()
        for p, q in ((b, 2 * c), (b, -2 * c), (-b, 2 * a), (-b, -2 * a)):
            _check_integer_kernel(p, d, q)
        f, _ = indefinite_step(f)


def test_rational_parsing_and_printing():
    assert parse_rational("99/100") == Fraction(99, 100)
    assert parse_rational(" -7 ") == -7
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(8, 2)) == "4"
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("3/0")
    # only ASCII digits, without digit-group underscores
    for text in ("9_9/1_00", "1_0", "\u0663", "3/\u0664", "\uff11"):
        with pytest.raises(ParseError):
            parse_rational(text)
