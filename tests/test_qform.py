import random
from fractions import Fraction
from math import gcd

import pytest

import fraction_walk as ref
from indeflll.numerics import is_rational_square
from indeflll.qform import (
    BQForm,
    SWAP,
    IntegralWalk,
    Transform2,
    apply,
    is_reduced,
    reduce_definite,
    reduce_indefinite,
    reduce_square_disc,
)


def brute_apply(f: BQForm, t: Transform2) -> BQForm:
    """Oracle: expand Q(alpha*x + beta*y, gamma*x + delta*y) termwise."""
    a, b, c = f.coeffs()

    def q(x, y):
        return a * x * x + b * x * y + c * y * y

    al, be, ga, de = t.m11, t.m12, t.m21, t.m22
    a2 = q(al, ga)
    c2 = q(be, de)
    b2 = q(al + be, ga + de) - a2 - c2
    return BQForm(a2, b2, c2)


def test_discriminant_examples():
    assert BQForm(1, 0, 1).disc == -4
    assert BQForm(0, 7, 0).disc == 49
    assert BQForm(2, 1, 2).disc == -15
    assert BQForm(Fraction(1, 2), 1, Fraction(-1, 3)).disc == Fraction(5, 3)


def test_apply_examples():
    f = BQForm(1, 0, 1)
    assert apply(f, Transform2.identity()).coeffs() == (1, 0, 1)
    assert apply(BQForm(2, 3, 5), SWAP).coeffs() == (5, -3, 2)
    assert apply(BQForm(1, 0, -2), Transform2(1, 1, 0, 1)).coeffs() == (1, 2, -1)
    with pytest.raises(ValueError):
        apply(f, Transform2(2, 0, 0, 1))


def test_apply_matches_expansion_oracle():
    rng = random.Random(3)
    for _ in range(400):
        f = BQForm(rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10))
        while True:
            t = Transform2(*(rng.randrange(-4, 5) for _ in range(4)))
            if t.det in (1, -1):
                break
        assert apply(f, t).coeffs() == brute_apply(f, t).coeffs()


def test_is_reduced_examples():
    assert is_reduced(BQForm(2, 1, 2))
    assert is_reduced(BQForm(1, 2, -1))  # disc 8, window holds
    assert not is_reduced(BQForm(1, 0, -2))
    # square-disc shapes
    assert is_reduced(BQForm(1, 0, -1))
    assert is_reduced(BQForm(1, 6, 0))
    assert is_reduced(BQForm(0, 6, 0))
    assert not is_reduced(BQForm(3, 6, 0))
    assert not is_reduced(BQForm(2, -2, 0))
    # zero discriminant
    assert is_reduced(BQForm(0, 0, 5))
    assert not is_reduced(BQForm(1, 2, 1))


def brute_force_minimum(f: BQForm, bound: int = 50) -> Fraction:
    """Smallest nonzero |Q(x, y)| over coprime pairs, |x|, |y| <= bound."""
    a, b, c = f.coeffs()
    best = None
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                continue
            v = abs(a * x * x + b * x * y + c * y * y)
            if best is None or v < best:
                best = v
    return best


def test_reduce_definite_examples():
    g, t = reduce_definite(BQForm(1, 0, 1))
    assert g.coeffs() == (1, 0, 1) and t.det == 1
    g, t = reduce_definite(BQForm(2, 1, 2))
    assert g.coeffs() == (2, 1, 2)
    g, t = reduce_definite(BQForm(4, 4, 1))
    assert (g.a, g.b) == (0, 0)
    assert apply(BQForm(4, 4, 1), t).coeffs() == g.coeffs() and t.det == 1
    with pytest.raises(ValueError):
        reduce_definite(BQForm(1, 0, -1))
    # zero form is a fixed point
    g, _ = reduce_definite(BQForm(0, 0, 0))
    assert g.coeffs() == (0, 0, 0)


def test_reduce_definite_reaches_minimum():
    # the reduced |a| of a definite form is its nonzero minimum
    rng = random.Random(17)
    done = 0
    while done < 60:
        a = rng.randrange(1, 21)
        b = rng.randrange(-20, 21)
        c = rng.randrange(1, 21)
        f = BQForm(a, b, c)
        if f.disc >= 0:
            continue
        sign = rng.choice((1, -1))
        f = ref.scale_form(f, sign)
        g, t = reduce_definite(f)
        assert is_reduced(g)
        assert apply(f, t).coeffs() == g.coeffs()
        assert abs(g.a) == brute_force_minimum(f)
        done += 1


def test_indefinite_step_examples():
    walk = IntegralWalk(BQForm(1, 0, -2))
    assert [f for f, _ in walk.descend()] == [(1, 0, -2), (-2, 0, 1), (1, 2, -1)]
    assert walk.steps == 2
    with pytest.raises(ValueError):
        IntegralWalk(BQForm(1, 0, 1))
    # a terminal square shape has no further move
    walk = IntegralWalk(BQForm(1, 6, 0))
    assert list(walk.cycle(walk.start, 3)) == [] and walk.steps == 0


def test_reduce_indefinite_trajectory():
    traj = reduce_indefinite(BQForm(1, 0, -2), 0)
    assert traj[-1][0].coeffs() == (1, 2, -1)
    for form, t in traj:
        assert t.det == 1
        assert apply(BQForm(1, 0, -2), t).coeffs() == form.coeffs()

    traj = reduce_indefinite(BQForm(1, 2, -1), 2)
    signs = [1 if f.a > 0 else -1 for f, _ in traj]
    assert signs == [1, -1, 1]
    assert all(is_reduced(f) for f, _ in traj)


def test_pathological_form_reduces_quickly():
    a = 5133516356526721720
    b = -2 * 5133515988396719824
    c = 5133515620266744327
    f = BQForm(a, b, c)
    assert f.disc > 0 and is_rational_square(f.disc) is None
    steps = 0
    g = f
    while not is_reduced(g):
        g, _ = ref.indefinite_step(g)
        steps += 1
        assert steps <= 200
    traj = reduce_indefinite(f, 0)
    assert traj[-1][0].coeffs() == g.coeffs()
    assert apply(f, traj[-1][1]).coeffs() == g.coeffs()


def test_square_disc_examples():
    g, t = reduce_square_disc(BQForm(1, 0, -1))
    assert g.coeffs() == (1, 0, -1) and t.det == 1
    g, t = reduce_square_disc(BQForm(3, 6, 0))
    assert g.coeffs() == (3, 0, -3)
    assert apply(BQForm(3, 6, 0), t).coeffs() == (3, 0, -3)
    g, _ = reduce_square_disc(BQForm(1, 6, 0))
    assert g.coeffs() == (1, 6, 0)
    with pytest.raises(ValueError):
        reduce_square_disc(BQForm(1, 0, -2))


def test_square_disc_random_convergence():
    rng = random.Random(23)
    done = 0
    while done < 200:
        # build a square-disc form from a root pattern
        a = rng.randrange(-12, 13)
        b = rng.randrange(-12, 13)
        c = rng.randrange(-12, 13)
        f = BQForm(a, b, c)
        d = f.disc
        if d <= 0 or is_rational_square(d) is None:
            continue
        g, t = reduce_square_disc(f)
        assert is_reduced(g), (f, g)
        assert apply(f, t).coeffs() == g.coeffs()
        assert t.det == 1
        done += 1


def test_discriminant_and_transform_soundness_random():
    rng = random.Random(29)
    for _ in range(1500):
        f = BQForm(rng.randrange(-50, 51), rng.randrange(-50, 51), rng.randrange(-50, 51))
        d = f.disc
        if d < 0 or (d == 0 and (f.a or f.b)):
            g, t = reduce_definite(f)
        elif d == 0:
            continue
        else:
            g, t = reduce_indefinite(f, rng.randrange(0, 3))[-1]
        assert g.disc == d
        assert apply(f, t).coeffs() == g.coeffs()
        assert t.det == 1


def test_scale_invariance():
    rng = random.Random(31)
    done = 0
    while done < 150:
        f = BQForm(rng.randrange(-15, 16), rng.randrange(-15, 16), rng.randrange(-15, 16))
        lam = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        d = f.disc
        if d > 0:
            if f.c == 0 or (f.a == 0 and f.c == 0):
                continue
            if is_rational_square(d) is not None:
                g1, t1 = reduce_square_disc(f)
                g2, t2 = reduce_square_disc(ref.scale_form(f, lam))
            else:
                g1, t1 = reduce_indefinite(f, 0)[-1]
                g2, t2 = reduce_indefinite(ref.scale_form(f, lam), 0)[-1]
        elif f.a or f.b or f.c:
            g1, t1 = reduce_definite(f)
            g2, t2 = reduce_definite(ref.scale_form(f, lam))
        else:
            continue
        assert t1.rows() == t2.rows()
        assert g2.coeffs() == ref.scale_form(g1, lam).coeffs()
        done += 1


def cycle_of(f: BQForm, limit: int = 10000) -> list[BQForm]:
    """Walk the cycle from a reduced indefinite non-square form, one
    cycle move of `reduce_indefinite` at a time."""
    assert is_reduced(f)
    out = [f]
    g, _ = reduce_indefinite(f, 1)[1]
    steps = 1
    while g.coeffs() != f.coeffs():
        out.append(g)
        g, _ = reduce_indefinite(g, 1)[1]
        steps += 1
        assert steps <= limit, "cycle did not close"
    return out


def test_cycles_close_and_alternate():
    rng = random.Random(37)
    seen = 0
    while seen < 60:
        a = rng.randrange(-20, 21)
        b = rng.randrange(-20, 21)
        c = rng.randrange(-20, 21)
        f = BQForm(a, b, c)
        d = f.disc
        if not (0 < d <= 10_000) or is_rational_square(d) is not None:
            continue
        red = reduce_indefinite(f, 0)[-1][0]
        cyc = cycle_of(red)
        signs = [1 if g.a > 0 else -1 for g in cyc]
        assert all(x != y for x, y in zip(signs, signs[1:]))
        assert signs[0] != signs[-1]  # the cycle has even length
        # somewhere on the cycle the lead drops below sqrt(disc/5)
        assert any(5 * g.a * g.a <= d for g in cyc), (f, d)
        seen += 1


def _walk_key(trajectory):
    return [(f.coeffs(), t.rows()) for f, t in trajectory]


def test_integer_kernel_matches_fraction_walk():
    """Every engine equals the Fraction reference form for form and
    transform for transform, on integral and rational forms with square
    and non-square discriminants, large ones included."""
    rng = random.Random(1993)
    forms = ref.sample_forms(rng, 1200) + ref.sample_forms(rng, 200, bound=1 << 64)
    forms.append(BQForm(5133516356526721720, -2 * 5133515988396719824, 5133515620266744327))
    squares = 0
    for f in forms:
        assert is_reduced(f) == ref.is_reduced(f), f
        for max_extra in (0, 2, 12):
            assert _walk_key(reduce_indefinite(f, max_extra)) == _walk_key(ref.reduce_indefinite(f, max_extra)), f
        if is_rational_square(f.disc) is not None:
            assert _walk_key([reduce_square_disc(f)]) == _walk_key(ref.reduce_indefinite(f)[:1]), f
            squares += 1
    assert squares > 300
    # definite and degenerate forms, integral and rational
    done = 0
    while done < 600:
        a, b, c = (Fraction(rng.randrange(-40, 41), rng.choice((1, 1, 2, 3, 7))) for _ in range(3))
        f = BQForm(a, b, c) if done % 3 else BQForm(a * a, 2 * a * c, c * c)  # disc 0
        if f.disc > 0:
            continue
        assert _walk_key([reduce_definite(f)]) == _walk_key([ref.reduce_definite(f)]), f
        assert is_reduced(f) == ref.is_reduced(f), f
        done += 1


def test_criterion_6_trajectories_match_fraction_walk():
    # the form stream of acceptance criterion 6
    rng = random.Random(606)
    checked = 0
    while checked < 3000:
        f = BQForm(rng.randrange(-100, 101), rng.randrange(-100, 101), rng.randrange(-100, 101))
        d = f.disc
        if d <= 0:
            if d == 0 and not (f.a or f.b or f.c):
                continue
            assert _walk_key([reduce_definite(f)]) == _walk_key([ref.reduce_definite(f)])
        else:
            max_extra = rng.randrange(0, 4)
            assert _walk_key(reduce_indefinite(f, max_extra)) == _walk_key(ref.reduce_indefinite(f, max_extra))
        checked += 1
