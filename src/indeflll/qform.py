"""Binary quadratic forms and their reduction.

A form (a, b, c) stands for a*x^2 + b*xy + c*y^2 with rational
coefficients.  Three regimes are implemented:

* definite (disc < 0): classic Gauss reduction to |b| <= |a| <= |c|,
  with the disc == 0 degenerate branch running the same steps down to
  a (0, 0, c) shape (a GCD computation in lattice terms);
* indefinite with non-square disc: the two-regime step rule, which is
  required for polynomial running time on unbalanced inputs;
* indefinite with square disc: the step rule with a closed upper
  inequality, plus the dedicated terminal shapes (r/2, 0, -r/2),
  (a, r, 0) with 2|a| < r, and the hyperbolic (0, r, 0), where
  r = sqrt(disc).

All engines emit determinant +1 transforms and are scale invariant.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError
from .numerics import (
    Rational,
    ceil_frac,
    cmp_with_sqrt,
    floor_frac,
    floor_mixed,
    is_rational_square,
    nearest_int,
    normalize,
)


@dataclass(frozen=True)
class Transform2:
    """2x2 integer change of variables, columns act on (x, y)."""

    m11: int
    m12: int
    m21: int
    m22: int

    @staticmethod
    def identity() -> "Transform2":
        return Transform2(1, 0, 0, 1)

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def compose(self, other: "Transform2") -> "Transform2":
        """self followed by other (matrix product self @ other)."""
        return Transform2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def rows(self) -> list[list[int]]:
        return [[self.m11, self.m12], [self.m21, self.m22]]


SWAP = Transform2(0, 1, -1, 0)  # (a, b, c) -> (c, -b, a)


def translate(lam: int) -> Transform2:
    """(a, b, c) -> (a, b + 2*lam*a, c + lam*b + lam^2*a)."""
    return Transform2(1, lam, 0, 1)


def translate_left(lam: int) -> Transform2:
    """(a, b, c) -> (a + lam*b + lam^2*c, b + 2*lam*c, c)."""
    return Transform2(1, 0, lam, 1)


@dataclass(frozen=True)
class BQForm:
    """Coefficients are stored normalized: int when integral, else Fraction."""

    a: Rational
    b: Rational
    c: Rational

    def __init__(self, a: Rational, b: Rational, c: Rational):
        object.__setattr__(self, "a", normalize(a))
        object.__setattr__(self, "b", normalize(b))
        object.__setattr__(self, "c", normalize(c))

    @property
    def disc(self) -> Rational:
        return self.b * self.b - 4 * self.a * self.c

    def coeffs(self) -> tuple[Rational, Rational, Rational]:
        return (self.a, self.b, self.c)

    def scaled(self, lam: Rational) -> "BQForm":
        return BQForm(self.a * lam, self.b * lam, self.c * lam)

    def __repr__(self) -> str:
        return f"BQForm({self.a}, {self.b}, {self.c})"


def discriminant(f: BQForm) -> Rational:
    return f.disc


def apply(f: BQForm, t: Transform2) -> BQForm:
    """Change of variables f(T(x, y)); requires det(T) = +-1."""
    if t.det not in (1, -1):
        raise ValueError(f"transform is not unimodular (det {t.det})")
    a, b, c = f.a, f.b, f.c
    al, be, ga, de = t.m11, t.m12, t.m21, t.m22
    a2 = a * al * al + b * al * ga + c * ga * ga
    b2 = 2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de
    c2 = a * be * be + b * be * de + c * de * de
    return BQForm(a2, b2, c2)


def is_reduced(f: BQForm) -> bool:
    """Reducedness under the regime dictated by the discriminant.

    disc < 0: |b| <= |a| <= |c|.  disc > 0 non-square: the strict window
    |sqrt(disc) - 2|a|| < b < sqrt(disc).  disc > 0 square with root r:
    the boundary shapes (b = 0, c = -a, 2|a| = r) and (b = r, c = 0,
    2|a| < b, covering the hyperbolic (0, r, 0)), plus the fully mixed
    forms sitting inside the window |r - 2|a|| < b < r; the latter are
    the fixed points of the closed-window step rule and are treated as
    reduced by convention.  disc = 0: a = b = 0.
    """
    d = f.disc
    a, b, c = f.a, f.b, f.c
    if d < 0:
        return abs(b) <= abs(a) <= abs(c)
    if d == 0:
        return a == 0 and b == 0
    r = is_rational_square(d)
    if r is None:
        # |sqrt(d) - 2|a|| < b < sqrt(d), all comparisons exact
        if cmp_with_sqrt(b, 1, d) >= 0:
            return False
        if cmp_with_sqrt(2 * abs(a) + b, 1, d) <= 0:  # sqrt(d) < 2|a| + b
            return False
        if cmp_with_sqrt(2 * abs(a) - b, 1, d) >= 0:  # 2|a| - b < sqrt(d)
            return False
        return True
    if b == 0:
        return c == -a and 2 * abs(a) == r
    if b == r:
        return c == 0 and 2 * abs(a) < b
    return abs(r - 2 * abs(a)) < b < r


def _step_budget(f: BQForm) -> int:
    bits = 0
    for x in f.coeffs():
        bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return 4 * bits + 64


def reduce_definite(f: BQForm) -> tuple[BQForm, Transform2]:
    """Gauss reduction for disc <= 0.

    disc < 0 ends at |b| <= |a| <= |c|; disc = 0 (and f nonzero) ends at
    a (0, 0, c) shape, which computes the GCD of two linearly dependent
    lattice vectors.  The zero form is returned unchanged.
    """
    d = f.disc
    if d > 0:
        raise ValueError("reduce_definite requires disc <= 0")
    t = Transform2.identity()
    if d == 0:
        if f.a == 0 and f.b == 0:
            return f, t  # includes the all-zero form
        budget = _step_budget(f)
        while f.a != 0:
            lam = nearest_int(Fraction(-f.b, 2 * f.a))
            step = translate(lam).compose(SWAP)
            f = apply(f, step)
            t = t.compose(step)
            budget -= 1
            if budget < 0:
                raise InternalInvariantError("degenerate reduction did not converge")
        return f, t
    budget = _step_budget(f)
    if abs(f.a) > abs(f.c):
        f = apply(f, SWAP)
        t = t.compose(SWAP)
    while True:
        lam = nearest_int(Fraction(-f.b, 2 * f.a))
        if lam != 0:
            f = apply(f, translate(lam))
            t = t.compose(translate(lam))
        if abs(f.a) > abs(f.c):
            f = apply(f, SWAP)
            t = t.compose(SWAP)
        else:
            break
        budget -= 1
        if budget < 0:
            raise InternalInvariantError("definite reduction did not converge")
    return f, t


def _indefinite_delta(f: BQForm) -> int:
    """The unique step parameter for disc > 0, c != 0.

    When |c| > sqrt(disc) the target window for -b + 2*c*delta is
    (-|c|, |c|]; otherwise it is (sqrt(disc) - 2|c|, sqrt(disc)), with
    the upper end closed when disc is a perfect square.
    """
    d = f.disc
    b, c = f.b, f.c
    if cmp_with_sqrt(abs(c), 1, d) > 0:
        x = Fraction(b + abs(c), 2 * c)
        return floor_frac(x) if c > 0 else ceil_frac(x)
    r = is_rational_square(d)
    if r is not None:
        x = Fraction(b + r, 2 * c)
        return floor_frac(x) if c > 0 else ceil_frac(x)
    n = floor_mixed(Fraction(b, 2 * c), Fraction(1, 2 * c), d)
    return n if c > 0 else n + 1


def reduce_indefinite_step(f: BQForm) -> tuple[BQForm, Transform2]:
    """One step (a, b, c) -> (c, -b + 2*c*delta, a - b*delta + c*delta^2).

    Requires disc > 0 and c != 0; the square-disc terminal shapes with
    c = 0 are the caller's business.
    """
    if f.disc <= 0:
        raise ValueError("reduce_indefinite_step requires disc > 0")
    if f.c == 0:
        raise ValueError("step undefined for c = 0 (terminal square-disc shape)")
    delta = _indefinite_delta(f)
    t = Transform2(0, -1, 1, delta)
    return apply(f, t), t


def _square_move(f: BQForm) -> tuple[BQForm, Transform2]:
    """One move of the square-disc engine (f not reduced, disc > 0 square)."""
    a, b, c = f.a, f.b, f.c
    if c == 0:
        # disc = b^2, so |b| plays the square root
        if b > 0:
            # (a, r, 0): bring a into 2|a| <= b, then shear the boundary
            lam = nearest_int(Fraction(-a, b))
            if lam != 0:
                t = translate_left(lam)
                return apply(f, t), t
            if 2 * abs(a) == b:
                t = translate(-1 if a > 0 else 1)
                return apply(f, t), t
            raise InternalInvariantError(f"square-disc move called on reduced form {f}")
        if a == 0:
            return apply(f, SWAP), SWAP  # (0, b, 0) with b < 0
        # b < 0: push b into |b| <= |a|, falling back to the swap when stuck
        lam = nearest_int(Fraction(-b, 2 * a))
        if lam != 0:
            t = translate(lam)
            return apply(f, t), t
        return apply(f, SWAP), SWAP
    if a == 0:
        # (0, b, c): shrink c modulo b, then swap it in front
        lam = nearest_int(Fraction(-c, b))
        if lam != 0:
            t = translate(lam)
            return apply(f, t), t
        return apply(f, SWAP), SWAP
    return reduce_indefinite_step(f)


def _cycle_move(f: BQForm) -> tuple[BQForm, Transform2] | None:
    """Continue along the cycle from a reduced indefinite form.

    Non-square discs always step.  For square discs the (a, 0, -a)
    shape alternates via the swap; the (a, r, 0) terminal shapes have
    no further defined move and return None.
    """
    if f.c != 0:
        return reduce_indefinite_step(f)
    if f.b == 0:
        return apply(f, SWAP), SWAP
    return None


def step_toward_reduced(f: BQForm) -> tuple[BQForm, Transform2]:
    """One move toward reducedness for disc > 0, covering square discs."""
    d = f.disc
    if d <= 0:
        raise ValueError("step_toward_reduced requires disc > 0")
    if is_rational_square(d) is not None:
        return _square_move(f)
    return reduce_indefinite_step(f)


def reduce_indefinite(f: BQForm, max_extra: int = 0) -> list[tuple[BQForm, Transform2]]:
    """Reduce an indefinite form, then walk up to max_extra cycle steps.

    Returns the trajectory of (form, cumulative transform) pairs
    starting at the first reduced form reached.  If the input is
    already reduced the trajectory starts with (f, identity).  Square
    discriminants are handled by the dedicated moves; their terminal
    (a, r, 0) shapes end the cycle walk early.
    """
    if f.disc <= 0:
        raise ValueError("reduce_indefinite requires disc > 0")
    t = Transform2.identity()
    budget = _step_budget(f)
    seen: set[tuple[Fraction, Fraction, Fraction]] = set()
    while not is_reduced(f):
        key = f.coeffs()
        if key in seen:
            break  # square-disc fixed cycle; treated as reduced by convention
        seen.add(key)
        f, step = step_toward_reduced(f)
        t = t.compose(step)
        budget -= 1
        if budget < 0:
            raise InternalInvariantError("indefinite reduction exceeded its step budget")
    trajectory = [(f, t)]
    for _ in range(max_extra):
        move = _cycle_move(f)
        if move is None:
            break
        f, step = move
        t = t.compose(step)
        trajectory.append((f, t))
    return trajectory


def reduce_square_disc(f: BQForm) -> tuple[BQForm, Transform2]:
    """Reduce a form whose positive discriminant is a rational square.

    The walk is that of :func:`reduce_indefinite`: terminal shapes
    follow the square-disc conventions, and a form revisited without
    reaching one (a fixed cycle of the modified step rule) is treated
    as reduced by convention.
    """
    d = f.disc
    if d <= 0 or is_rational_square(d) is None:
        raise ValueError("reduce_square_disc requires a positive square discriminant")
    return reduce_indefinite(f)[0]
