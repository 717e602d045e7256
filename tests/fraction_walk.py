"""Reference binary-form walk on Fractions, for the bit-identity tests.

These are the engines as they were before `qform` moved to one integer
kernel: every step recomputes the discriminant and its regime, every
comparison against sqrt(disc) goes through `cmp_with_sqrt`, and every
floor of a quadratic irrational through `floor_mixed`.  The kernel must
reproduce them exactly, form for form and transform for transform.
"""

from fractions import Fraction
from math import ceil, floor, lcm

from indeflll.errors import InternalInvariantError
from indeflll.numerics import (
    ceil_mixed,
    cmp_with_sqrt,
    floor_mixed,
    is_rational_square,
    nearest_int,
    sign,
)
from indeflll.qform import BQForm, Transform2, apply

SWAP = Transform2(0, 1, -1, 0)  # (a, b, c) -> (c, -b, a)
IMPROPER_SWAP = Transform2(0, 1, 1, 0)


def scale_form(f: BQForm, lam) -> BQForm:
    """The form lam * f."""
    return BQForm(*(lam * x for x in f.coeffs()))


def translate(lam: int) -> Transform2:
    """(a, b, c) -> (a, b + 2*lam*a, c + lam*b + lam^2*a)."""
    return Transform2(1, lam, 0, 1)


def translate_left(lam: int) -> Transform2:
    """(a, b, c) -> (a + lam*b + lam^2*c, b + 2*lam*c, c)."""
    return Transform2(1, 0, lam, 1)


def is_reduced(f: BQForm) -> bool:
    d = f.disc
    a, b, c = f.a, f.b, f.c
    if d < 0:
        return abs(b) <= abs(a) <= abs(c)
    if d == 0:
        return a == 0 and b == 0
    r = is_rational_square(d)
    if r is None:
        if cmp_with_sqrt(b, 1, d) >= 0:
            return False
        if cmp_with_sqrt(2 * abs(a) + b, 1, d) <= 0:
            return False
        if cmp_with_sqrt(2 * abs(a) - b, 1, d) >= 0:
            return False
        return True
    if b == 0:
        return c == -a and 2 * abs(a) == r
    if b == r:
        return c == 0 and 2 * abs(a) < b
    return abs(r - 2 * abs(a)) < b < r


def step_budget(f: BQForm) -> int:
    bits = 0
    for x in f.coeffs():
        bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return 4 * bits + 64


def reduce_definite(f: BQForm) -> tuple[BQForm, Transform2]:
    d = f.disc
    t = Transform2.identity()
    if d == 0:
        if f.a == 0 and f.b == 0:
            return f, t
        budget = step_budget(f)
        while f.a != 0:
            step = translate(nearest_int(Fraction(-f.b, 2 * f.a))).compose(SWAP)
            f, t = apply(f, step), t.compose(step)
            budget -= 1
            if budget < 0:
                raise InternalInvariantError("degenerate reduction did not converge")
        return f, t
    budget = step_budget(f)
    if abs(f.a) > abs(f.c):
        f, t = apply(f, SWAP), t.compose(SWAP)
    while True:
        lam = nearest_int(Fraction(-f.b, 2 * f.a))
        if lam != 0:
            f, t = apply(f, translate(lam)), t.compose(translate(lam))
        if abs(f.a) > abs(f.c):
            f, t = apply(f, SWAP), t.compose(SWAP)
        else:
            break
        budget -= 1
        if budget < 0:
            raise InternalInvariantError("definite reduction did not converge")
    return f, t


def indefinite_delta(f: BQForm) -> int:
    d = f.disc
    b, c = f.b, f.c
    if cmp_with_sqrt(abs(c), 1, d) > 0:
        x = Fraction(b + abs(c), 2 * c)
        return floor(x) if c > 0 else ceil(x)
    r = is_rational_square(d)
    if r is not None:
        x = Fraction(b + r, 2 * c)
        return floor(x) if c > 0 else ceil(x)
    n = floor_mixed(Fraction(b, 2 * c), Fraction(1, 2 * c), d)
    return n if c > 0 else n + 1


def indefinite_step(f: BQForm) -> tuple[BQForm, Transform2]:
    t = Transform2(0, -1, 1, indefinite_delta(f))
    return apply(f, t), t


def square_move(f: BQForm) -> tuple[BQForm, Transform2]:
    a, b, c = f.a, f.b, f.c
    if c == 0:
        if b > 0:
            lam = nearest_int(Fraction(-a, b))
            if lam != 0:
                t = translate_left(lam)
                return apply(f, t), t
            if 2 * abs(a) == b:
                t = translate(-1 if a > 0 else 1)
                return apply(f, t), t
            raise InternalInvariantError(f"square-disc move called on reduced form {f}")
        if a == 0:
            return apply(f, SWAP), SWAP
        lam = nearest_int(Fraction(-b, 2 * a))
        if lam != 0:
            t = translate(lam)
            return apply(f, t), t
        return apply(f, SWAP), SWAP
    if a == 0:
        lam = nearest_int(Fraction(-c, b))
        if lam != 0:
            t = translate(lam)
            return apply(f, t), t
        return apply(f, SWAP), SWAP
    return indefinite_step(f)


def cycle_move(f: BQForm) -> tuple[BQForm, Transform2] | None:
    if f.c != 0:
        return indefinite_step(f)
    if f.b == 0:
        return apply(f, SWAP), SWAP
    return None


def step_toward_reduced(f: BQForm) -> tuple[BQForm, Transform2]:
    if is_rational_square(f.disc) is not None:
        return square_move(f)
    return indefinite_step(f)


def reduce_indefinite(f: BQForm, max_extra: int = 0) -> list[tuple[BQForm, Transform2]]:
    t = Transform2.identity()
    budget = step_budget(f)
    seen = set()
    while not is_reduced(f):
        key = f.coeffs()
        if key in seen:
            break
        seen.add(key)
        f, step = step_toward_reduced(f)
        t = t.compose(step)
        budget -= 1
        if budget < 0:
            raise InternalInvariantError("indefinite reduction exceeded its step budget")
    trajectory = [(f, t)]
    for _ in range(max_extra):
        move = cycle_move(f)
        if move is None:
            break
        f, step = move
        t = t.compose(step)
        trajectory.append((f, t))
    return trajectory


def indefinite_candidates(
    form: BQForm, gamma0: Fraction, max_extra: int, want_sign: int | None
) -> list[tuple[BQForm, Transform2]]:
    """The candidate search as it was, with its walk written out; it walks
    the reduced-input cycle for all max_extra steps, without the stop at
    the first repeated form.  A reduced input with no right-sign gain
    under the sign strategy falls back to the first gain of either sign
    when disc < 4 gamma0 a0^2."""
    scale = lcm(*[x.denominator for x in form.coeffs()])
    if scale != 1:
        form = scale_form(form, scale)
    a0 = abs(form.a)
    disc = form.disc

    def sign_ok(x) -> bool:
        return want_sign is None or x == 0 or sign(x) != want_sign

    if is_reduced(form):
        f, t = form, Transform2.identity()
        either = []
        for _ in range(max_extra):
            move = cycle_move(f)
            if move is None:
                break
            f, step = move
            t = t.compose(step)
            if abs(f.a) < gamma0 * a0:
                if sign_ok(f.a):
                    return [(f, t)]
                either = either or [(f, t)]
        # no right-sign gain: the first gain of either sign, when disc < 4 gamma0 a0^2
        return either if disc < 4 * gamma0 * a0 * a0 else []

    f, t = form, Transform2.identity()
    escape = None
    seen = set()
    budget = 4 * max(x.numerator.bit_length() + x.denominator.bit_length() for x in form.coeffs()) + 64
    while not is_reduced(f):
        if escape is None and 2 * abs(f.a) <= a0 and sign_ok(f.a) and f.coeffs() != form.coeffs():
            escape = (f, t)
        key = f.coeffs()
        if key in seen:
            break
        seen.add(key)
        f, step = step_toward_reduced(f)
        t = t.compose(step)
        budget -= 1
        if budget < 0:
            raise InternalInvariantError("projected block reduction exceeded its budget")
    if want_sign is not None and is_reduced(f) and not sign_ok(f.a):
        c = f.c
        if c != 0 and abs(c) < gamma0 * a0 and 4 * c * c <= disc:
            f = apply(f, IMPROPER_SWAP)
            t = t.compose(IMPROPER_SWAP)
    walk = []
    if escape is not None:
        walk.append(escape)
    walk.append((f, t))
    if is_reduced(f):
        fc, tc = f, t
        for _ in range(max_extra):
            move = cycle_move(fc)
            if move is None:
                break
            fc, step = move
            tc = tc.compose(step)
            walk.append((fc, tc))

    def gamma_gain(cand: BQForm) -> bool:
        return abs(cand.a) < gamma0 * a0 and sign_ok(cand.a)

    def clears_zero_tail(cand: BQForm) -> bool:
        return abs(cand.a) <= a0 and form.c == 0 and cand.c != 0

    first = [wt for wt in walk if gamma_gain(wt[0])]
    second = [wt for wt in walk if not gamma_gain(wt[0]) and clears_zero_tail(wt[0])]
    repair = sorted(
        (
            wt
            for wt in walk
            if is_reduced(wt[0])
            and abs(wt[0].a) <= a0
            and not gamma_gain(wt[0])
            and not clears_zero_tail(wt[0])
        ),
        key=lambda wt: (abs(wt[0].a), 0 if sign_ok(wt[0].a) else 1),
    )
    return first + second + repair


def cleanup_lambda(n1: Fraction, s: Fraction, n2: Fraction) -> int:
    disc = s * s - n1 * n2
    if disc <= 0:
        return nearest_int(-s / n1)
    if s == 0 and n1 + n2 == 0:
        return 0
    if n2 != 0 or cmp_with_sqrt(abs(s), 1, disc) != 0 or cmp_with_sqrt(abs(n1), 1, disc) != 0:
        if cmp_with_sqrt(abs(n1), 1, disc) > 0:
            return nearest_int(-s / n1)
        if n1 > 0:
            return floor_mixed(-s / n1, Fraction(1) / n1, disc)
        return ceil_mixed(-s / n1, Fraction(1) / n1, disc)
    return nearest_int(-s / n1)


def sample_forms(rng, n: int, bound: int = 60) -> list[BQForm]:
    """n forms of positive discriminant, cycling through four kinds:
    integral, rational with independent denominators, integral with a
    square discriminant (a product of two linear factors, which covers
    the c = 0 and a = 0 shapes), and such a product times a rational."""
    out = []
    while len(out) < n:
        kind = len(out) % 4
        if kind < 2:
            a, b, c = (rng.randrange(-bound, bound + 1) for _ in range(3))
        else:
            p, q, r, s = (rng.randrange(-9, 10) for _ in range(4))
            a, b, c = p * r, p * s + q * r, q * s
        if kind == 1:
            a, b, c = (Fraction(x, rng.randrange(1, 13)) for x in (a, b, c))
        f = BQForm(a, b, c)
        if kind == 3:
            f = scale_form(f, Fraction(rng.randrange(1, 13), rng.randrange(1, 13)))
        if f.disc > 0:
            out.append(f)
    return out
