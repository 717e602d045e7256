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

All engines emit determinant +1 transforms and are scale invariant, so
they share one integer kernel.  A rational form is scaled by the lcm of
its denominators at the boundary; the steps move plain int triples
(a, b, c) under transforms kept as int 4-tuples (m11, m12, m21, m22).
A walk (the rho operator of Buchmann-Vollmer, *Binary Quadratic
Forms*, 2007) never changes the discriminant d, r = isqrt(d) or whether
d is a square, so `IntegralWalk` computes them once; then x < sqrt(d)
iff x <= r for integers, and floor((p + sqrt(d)) / q) = (p + r) // q
for q > 0 (see `numerics.floor_sqrt_div`).
"""

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import InternalInvariantError
from .numerics import Rational, clear_denominators, is_rational_square, nearest_div, normalize

Form = tuple[int, int, int]
Mat = tuple[int, int, int, int]
_ID: Mat = (1, 0, 0, 1)
_SWAP: Mat = (0, 1, -1, 0)


def _act(f: tuple, t: Mat) -> tuple:
    """Coefficients of f(T(x, y)) for coefficients f and the entries of T."""
    a, b, c = f
    al, be, ga, de = t
    return (
        a * al * al + b * al * ga + c * ga * ga,
        2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de,
        a * be * be + b * be * de + c * de * de,
    )


def _mul(s: Mat, t: Mat) -> Mat:
    """s followed by t (the matrix product s @ t)."""
    (p, q, r, u), (w, x, y, z) = s, t
    return (p * w + q * y, p * x + q * z, r * w + u * y, r * x + u * z)


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

    def entries(self) -> Mat:
        return (self.m11, self.m12, self.m21, self.m22)

    def compose(self, other: "Transform2") -> "Transform2":
        """self followed by other (matrix product self @ other)."""
        return Transform2(*_mul(self.entries(), other.entries()))

    def rows(self) -> list[list[int]]:
        return [[self.m11, self.m12], [self.m21, self.m22]]


SWAP = Transform2(0, 1, -1, 0)  # (a, b, c) -> (c, -b, a)


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

    def __repr__(self) -> str:
        return f"BQForm({self.a}, {self.b}, {self.c})"


def apply(f: BQForm, t: Transform2) -> BQForm:
    """Change of variables f(T(x, y)); requires det(T) = +-1."""
    if t.det not in (1, -1):
        raise ValueError(f"transform is not unimodular (det {t.det})")
    return BQForm(*_act(f.coeffs(), t.entries()))


def _unscaled(f: Form, scale: int) -> BQForm:
    return BQForm(*f) if scale == 1 else BQForm(*(Fraction(x, scale) for x in f))


def _step_budget(f: Form, scale: int) -> int:
    """Steps any engine may take from f, the input times `scale`.

    Each coefficient of f is a multiple of the input's numerator and
    `scale` a multiple of every denominator, so this is never below
    4 * (bits of the input's largest numerator or denominator) + 64.
    """
    return 4 * (max(x.bit_length() for x in f) + scale.bit_length()) + 64


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
    if d < 0:
        return abs(f.b) <= abs(f.a) <= abs(f.c)
    if d == 0:
        return f.a == 0 and f.b == 0
    walk = IntegralWalk(f)
    return walk.is_reduced(walk.start)


def reduce_definite(f: BQForm) -> tuple[BQForm, Transform2]:
    """Gauss reduction for disc <= 0.

    disc < 0 ends at |b| <= |a| <= |c|; disc = 0 (and f nonzero) ends at
    a (0, 0, c) shape, which computes the GCD of two linearly dependent
    lattice vectors.  The zero form is returned unchanged.
    """
    d = f.disc
    if d > 0:
        raise ValueError("reduce_definite requires disc <= 0")
    if d == 0 and f.a == 0 and f.b == 0:
        return f, Transform2.identity()  # includes the all-zero form
    (g, scale), t = clear_denominators(f.coeffs()), _ID
    budget = _step_budget(g, scale)
    if d < 0 and abs(f.a) > abs(f.c):
        g, t = _act(g, _SWAP), _mul(t, _SWAP)
    # translate b into [-|a|, |a|], then swap: while |a| > |c| (disc < 0)
    # or until a = 0 (disc = 0)
    while g[0] != 0:
        lam = nearest_div(-g[1], 2 * g[0])
        if lam != 0:
            g, t = _act(g, (1, lam, 0, 1)), _mul(t, (1, lam, 0, 1))
        if d < 0 and abs(g[0]) <= abs(g[2]):
            break
        g, t = _act(g, _SWAP), _mul(t, _SWAP)
        budget -= 1
        if budget < 0:
            raise InternalInvariantError("definite reduction did not converge")
    return _unscaled(g, scale), Transform2(*t)


def _rho(f: Form, r: int) -> tuple[Form, Mat]:
    """One step (a, b, c) -> (c, -b + 2*c*delta, a - b*delta + c*delta^2)
    of an integral form of disc d > 0 with c != 0, r = isqrt(d).

    delta puts -b + 2*c*delta into (-|c|, |c|] when |c| > sqrt(d), and
    otherwise into (sqrt(d) - 2|c|, sqrt(d)), with the upper end closed
    when d is a square.  So delta = sign(c) * floor((b + w) / (2|c|)),
    with w = |c| or sqrt(d), and floor((b + sqrt(d)) / (2|c|)) is
    (b + r) // (2|c|).  As |c| > sqrt(d) exactly when |c| > r, w may be
    taken as max(|c|, r).
    """
    a, b, c = f
    w = abs(c)
    delta = (b + max(w, r)) // (2 * w)
    if c < 0:
        delta = -delta
    return (c, 2 * c * delta - b, a - b * delta + c * delta * delta), (0, -1, 1, delta)


def step_toward_reduced(f: Form, r: int, square: bool) -> tuple[Form, Mat]:
    """One move toward reducedness of an integral form of disc d > 0,
    r = isqrt(d), square = (r * r == d): the step rule, or for a square
    disc one move of the square-disc engine."""
    a, b, c = f
    if not square or (a != 0 and c != 0):
        return _rho(f, r)
    if c == 0:
        # disc = b^2, so |b| plays the square root
        if b > 0:
            # (a, r, 0): bring a into 2|a| <= b, then shear the boundary
            lam = nearest_div(-a, b)
            if lam != 0:
                step = (1, 0, lam, 1)
            elif 2 * abs(a) == b:
                step = (1, -1 if a > 0 else 1, 0, 1)
            else:
                raise InternalInvariantError(f"square-disc move called on reduced form {f}")
        elif a == 0:
            step = _SWAP  # (0, b, 0) with b < 0
        else:
            # b < 0: push b into |b| <= |a|, falling back to the swap when stuck
            lam = nearest_div(-b, 2 * a)
            step = (1, lam, 0, 1) if lam != 0 else _SWAP
    else:
        # (0, b, c): shrink c modulo b, then swap it in front
        lam = nearest_div(-c, b)
        step = (1, lam, 0, 1) if lam != 0 else _SWAP
    return _act(f, step), step


def _cycle_move(f: Form, r: int, square: bool) -> tuple[Form, Mat] | None:
    """Continue along the cycle from a reduced indefinite form.

    Non-square discs always step.  For square discs the (a, 0, -a)
    shape alternates via the swap; the (a, r, 0) terminal shapes have
    no further defined move and return None.
    """
    if f[2] != 0:
        return _rho(f, r)
    if f[1] == 0:
        return _act(f, _SWAP), _SWAP
    return None


class IntegralWalk:
    """The walks from a form of positive discriminant, run on `start`,
    its integral scaling (the form times `scale`).

    disc, root = isqrt(disc) and square (root * root == disc) hold for
    every form on a walk.  Forms are int triples and transforms int
    4-tuples relative to `start`; `steps` counts the moves taken.
    """

    __slots__ = ("start", "scale", "disc", "root", "square", "steps")

    def __init__(self, f: BQForm):
        num, scale = clear_denominators(f.coeffs())
        self._begin(tuple(num), scale)

    @classmethod
    def over(cls, num: Form, den: int) -> "IntegralWalk":
        """The walk from the form num / den (an int triple over an int
        den > 0), scaled as the constructor scales that form: the lcm of
        the reduced denominators is den / gcd(num, den)."""
        g = gcd(*num, den)
        walk = cls.__new__(cls)
        walk._begin(tuple(x // g for x in num), den // g)
        return walk

    def _begin(self, start: Form, scale: int) -> None:
        self.start, self.scale = start, scale
        a, b, c = start
        self.disc = b * b - 4 * a * c
        if self.disc <= 0:
            raise ValueError("indefinite reduction requires disc > 0")
        self.root = isqrt(self.disc)
        self.square = self.root * self.root == self.disc
        self.steps = 0

    def is_reduced(self, f: Form) -> bool:
        """is_reduced for a form on the walk, with x < sqrt(disc) iff x <= root."""
        (a, b, c), r = f, self.root
        if not self.square:  # |sqrt(d) - 2|a|| < b < sqrt(d)
            return b <= r and 2 * abs(a) - b <= r < 2 * abs(a) + b
        if b == 0:
            return c == -a and 2 * abs(a) == r
        if b == r:
            return c == 0 and 2 * abs(a) < b
        return abs(r - 2 * abs(a)) < b < r

    def descend(self) -> Iterator[tuple[Form, Mat]]:
        """Yield each form the reduction visits, with its transform: the
        start, every form stepped to, and last the first reduced form or
        the first repeated one (a fixed cycle of the square-disc step
        rule, treated as reduced by convention)."""
        r, square, reduced = self.root, self.square, self.is_reduced
        f, t = self.start, _ID
        budget = _step_budget(f, self.scale)
        seen = set()
        while not reduced(f):
            yield f, t
            if f in seen:
                return
            seen.add(f)
            f, step = step_toward_reduced(f, r, square)
            t = _mul(t, step)
            self.steps += 1
            budget -= 1
            if budget < 0:
                raise InternalInvariantError("indefinite reduction exceeded its step budget")
        yield f, t

    def cycle(self, f: Form, steps: int, t: Mat = _ID) -> Iterator[tuple[Form, Mat]]:
        """Yield up to `steps` cycle moves on from f, reached by t; a
        square-disc terminal shape ends the walk early."""
        r, square = self.root, self.square
        for _ in range(steps):
            move = _cycle_move(f, r, square)
            if move is None:
                return
            f, step = move
            t = _mul(t, step)
            self.steps += 1
            yield f, t

    def boundary(self, f: Form, t: Mat) -> tuple[BQForm, Transform2]:
        """f and t as the input's own form and transform."""
        return _unscaled(f, self.scale), Transform2(*t)


def reduce_indefinite(f: BQForm, max_extra: int = 0) -> list[tuple[BQForm, Transform2]]:
    """Reduce an indefinite form, then walk up to max_extra cycle steps.

    Returns the trajectory of (form, cumulative transform) pairs
    starting at the first reduced form reached.  If the input is
    already reduced the trajectory starts with (f, identity).  Square
    discriminants are handled by the dedicated moves; their terminal
    (a, r, 0) shapes end the cycle walk early.
    """
    walk = IntegralWalk(f)
    *_, (g, t) = walk.descend()
    return [walk.boundary(g, t), *(walk.boundary(*gt) for gt in walk.cycle(g, max_extra, t))]


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
