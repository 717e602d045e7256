"""Reference generalized GSO on Fractions, for the bit-identity tests.

This is the GSO as it was before `gram` moved to an integral LDL^T:
star vectors are integer coordinate vectors over a common denominator,
built by Fraction Gram-Schmidt (`_build_gso.orthogonalize`), and the
residual norm, the coefficient vector theta, the prefix determinant and
the potential are Fraction computations on them, and `dets_and_lam`
reads the integral GSO's determinants and lambda rows off them.
`cleanup_size_reduce` is the size reduction that ran on it.  The
integral GSO and the reducer's integer size reduction must reproduce
them exactly.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from indeflll.errors import InadmissiblePrefixError
from indeflll.gram import GramMatrix
from indeflll.numerics import clear_denominators, nearest_int
from indeflll.reducer import ReducerState

from fraction_walk import cleanup_lambda as _cleanup_lambda


@dataclass
class GsoState:
    """Generalized Gram vectors for the leading `upto` positions.

    The i-th star vector is stored as an integer coordinate vector
    star_num[i] over the common positive denominator star_den[i]
    (coordinates are in the basis of the Gram matrix, support inside
    positions 0..i); this keeps the hot inner products in integer
    arithmetic.  `reused` counts the leading positions a build took over
    from a previous state instead of computing them.
    """

    gram: GramMatrix
    upto: int
    star_num: list[list[int]]
    star_den: list[int]
    star_norms: list[Fraction]
    bad: frozenset[int]
    cross: dict[int, Fraction] = field(default_factory=dict)
    reused: int = field(default=0, compare=False)

    def is_scalar(self, i: int) -> bool:
        return i not in self.bad and (i - 1) not in self.bad

    def star_vector(self, i: int) -> list[Fraction]:
        den = self.star_den[i]
        return [Fraction(n, den) for n in self.star_num[i]]

    def sign_counts(self) -> tuple[int, int]:
        """(positive, negative) counts of the prefix: each scalar position
        by the sign of its star norm, each hyperbolic plane once on each
        side."""
        scalar = [self.star_norms[i] for i in range(self.upto) if self.is_scalar(i)]
        planes = len(self.bad)
        return sum(1 for n in scalar if n > 0) + planes, sum(1 for n in scalar if n < 0) + planes

    def truncated(self, upto: int) -> "GsoState":
        """Restrict to the leading `upto` positions (no pair may split)."""
        if upto > self.upto:
            raise ValueError("cannot extend a GSO state by truncation")
        if upto > 0 and (upto - 1) in self.bad:
            raise ValueError(f"truncation at {upto} splits the hyperbolic pair at {upto - 1}")
        return GsoState(
            gram=self.gram,
            upto=upto,
            star_num=[vec[:upto] for vec in self.star_num[:upto]],
            star_den=self.star_den[:upto],
            star_norms=self.star_norms[:upto],
            bad=frozenset(j for j in self.bad if j + 1 < upto),
            cross={j: a for j, a in self.cross.items() if j + 1 < upto},
        )

    def star_product(self, products: list, j: int) -> Fraction:
        """b(w, star_j), given the products b(w, v_m) (ints or Fractions)."""
        return Fraction(self._scaled_star_product(products, j), self.star_den[j])

    def _scaled_star_product(self, products: list, j: int):
        """star_den[j] * b(w, star_j), in the type of the products."""
        return sum(map(mul, self.star_num[j], products))

    def theta_and_residual_norm(
        self, products: list, norm
    ) -> tuple[list[Fraction], Fraction]:
        """Coefficients of w - w* in the basis, and b(w*, w*)."""
        ps = [self.star_product(products, j) for j in range(self.upto)]
        theta = [Fraction(0)] * self.upto
        i = 0
        while i < self.upto:
            if i in self.bad:
                alpha = self.cross[i]
                c_second = ps[i] / (alpha * self.star_den[i + 1])
                c_first = ps[i + 1] / (alpha * self.star_den[i])
                if c_first:
                    for m, n in enumerate(self.star_num[i]):
                        if n:
                            theta[m] += c_first * n
                if c_second:
                    for m, n in enumerate(self.star_num[i + 1]):
                        if n:
                            theta[m] += c_second * n
                i += 2
            else:
                mu = ps[i] / (self.star_norms[i] * self.star_den[i])
                if mu:
                    for m, n in enumerate(self.star_num[i]):
                        if n:
                            theta[m] += mu * n
                i += 1
        return theta, self.residual_norm(products, norm)

    def residual_norm(self, products: list, norm) -> Fraction:
        """b(w*, w*) alone, without the coefficient vector.  Adding
        prefix vectors to w leaves it unchanged.

        That is b(w, w) less b(w, star_i)^2 / N_i per scalar position
        and 2 b(w, star_j) b(w, star_j+1) / alpha_j per plane.  The terms
        are summed as one integer fraction, normalized once at the end.
        """
        num, den = 0, 1
        i = 0
        while i < self.upto:
            p = self._scaled_star_product(products, i)
            if i in self.bad:
                q = self._scaled_star_product(products, i + 1)
                alpha = self.cross[i]
                t_num = 2 * p.numerator * q.numerator * alpha.denominator
                t_den = p.denominator * q.denominator * self.star_den[i] * self.star_den[i + 1] * alpha.numerator
                i += 2
            else:
                n_i = self.star_norms[i]
                t_num = p.numerator * p.numerator * n_i.denominator
                t_den = (p.denominator * self.star_den[i]) ** 2 * n_i.numerator
                i += 1
            if t_num:
                num = num * t_den + t_num * den
                den *= t_den
        return Fraction(norm) - Fraction(num, den)


def _num_bilinear(rows, x_num: list[int], y_num: list[int]):
    """x_num^T * G * y_num over the raw entry type (int when integral)."""
    total = 0
    for i, xi in enumerate(x_num):
        if not xi:
            continue
        ri = rows[i]
        acc = 0
        for j, yj in enumerate(y_num):
            if yj:
                acc += yj * ri[j]
        total += xi * acc
    return total


def _num_row_dot(rows, i: int, num: list[int]):
    return sum(map(mul, num, rows[i]))


def _reusable(previous: GsoState | None, gram: GramMatrix, upto: int) -> int:
    """How many leading positions of `previous` a build of `gram` would
    reproduce exactly.

    Star vector i depends only on the leading (i+1)x(i+1) block, so the
    count stops at the first row whose leading part changed, one place
    earlier when that would split a hyperbolic pair.
    """
    if previous is None:
        return 0
    keep = min(upto, previous.upto)
    old, new = previous.gram.rows, gram.rows
    for i in range(keep):
        if new[i][: i + 1] != old[i][: i + 1]:
            keep = i
            break
    if keep and (keep - 1) in previous.bad:
        keep -= 1
    return keep


def _build_gso(gram: GramMatrix, upto: int, previous: GsoState | None = None) -> GsoState:
    """A zero star norm starts a hyperbolic pair."""
    rows = gram.rows
    keep = _reusable(previous, gram, upto)
    if keep:
        # star vectors are stored at the length of the prefix; their
        # support ends at their own position, so resizing is exact
        star_num = [
            v[:upto] if len(v) >= upto else v + [0] * (upto - len(v)) for v in previous.star_num[:keep]
        ]
        star_den = previous.star_den[:keep]
        norms = previous.star_norms[:keep]
        bad = {j for j in previous.bad if j < keep}
        cross = {j: previous.cross[j] for j in bad}
    else:
        star_num, star_den, norms, cross, bad = [], [], [], {}, set()

    def orthogonalize(i: int, pending: int | None = None) -> tuple[list[int], int]:
        vec = [Fraction(0)] * upto
        vec[i] = Fraction(1)
        j = 0
        while j < len(star_num):
            if j == pending:
                j += 1  # isotropic partner of a pair still being formed
                continue
            if j in bad:
                alpha = cross[j]
                p_j = Fraction(_num_row_dot(rows, i, star_num[j]), star_den[j])
                p_j1 = Fraction(_num_row_dot(rows, i, star_num[j + 1]), star_den[j + 1])
                f_second = p_j / (alpha * star_den[j + 1])
                f_first = p_j1 / (alpha * star_den[j])
                if f_second:
                    num = star_num[j + 1]
                    for m in range(j + 2):
                        if num[m]:
                            vec[m] -= f_second * num[m]
                if f_first:
                    num = star_num[j]
                    for m in range(j + 1):
                        if num[m]:
                            vec[m] -= f_first * num[m]
                j += 2
            else:
                p = _num_row_dot(rows, i, star_num[j])
                if p:
                    factor = Fraction(p, star_den[j]) / (norms[j] * star_den[j])
                    num = star_num[j]
                    for m in range(j + 1):
                        if num[m]:
                            vec[m] -= factor * num[m]
                j += 1
        return clear_denominators(vec)

    i = keep
    while i < upto:
        num, den = orthogonalize(i)
        norm = Fraction(_num_bilinear(rows, num, num)) / (den * den)
        if norm != 0:
            star_num.append(num)
            star_den.append(den)
            norms.append(norm)
            i += 1
            continue
        if i + 1 >= upto:
            raise InadmissiblePrefixError(
                f"inadmissible prefix: isolated isotropic star vector at position {i}", i
            )
        star_num.append(num)
        star_den.append(den)
        norms.append(norm)
        num2, den2 = orthogonalize(i + 1, pending=i)
        norm2 = Fraction(_num_bilinear(rows, num2, num2)) / (den2 * den2)
        alpha = Fraction(_num_bilinear(rows, num, num2)) / (den * den2)
        if norm2 != 0 or alpha == 0:
            raise InadmissiblePrefixError(
                f"inadmissible prefix: positions {i}, {i + 1} do not form a hyperbolic pair", i
            )
        star_num.append(num2)
        star_den.append(den2)
        norms.append(norm2)
        bad.add(i)
        cross[i] = alpha
        i += 2
    return GsoState(
        gram=gram,
        upto=upto,
        star_num=star_num,
        star_den=star_den,
        star_norms=norms,
        bad=frozenset(bad),
        cross=cross,
        reused=keep,
    )


def prefix_determinant(state: GsoState, upto: int) -> Fraction:
    """Gram determinant of the leading `upto` positions.

    Truncation must not split a hyperbolic pair (that prefix would be
    singular); scalar positions contribute their star norm, pairs
    contribute -cross^2.
    """
    if upto > state.upto:
        raise ValueError(f"prefix length {upto} exceeds GSO extent {state.upto}")
    if upto > 0 and (upto - 1) in state.bad:
        raise ValueError(f"cannot truncate at bad index {upto - 1}: it splits a hyperbolic pair")
    det = Fraction(1)
    i = 0
    while i < upto:
        if i in state.bad:
            det *= -state.cross[i] ** 2
            i += 2
        else:
            det *= state.star_norms[i]
            i += 1
    return det


def local_potential(state: GsoState) -> Fraction:
    """Inductive potential of an admissible prefix.

    Empty prefix: 1.  Scalar extension: potential times |new det|.
    Hyperbolic extension with cross alpha: potential times
    |alpha|^3 * det^2 (det of the prefix before the plane).
    """
    pot = Fraction(1)
    det = Fraction(1)
    i = 0
    while i < state.upto:
        if i in state.bad:
            alpha = state.cross[i]
            pot = abs(alpha) ** 3 * det * det * pot
            det = det * (-(alpha**2))
            i += 2
        else:
            det = det * state.star_norms[i]
            pot = abs(det) * pot
            i += 1
    return pot


def dets_and_lam(state: GsoState) -> tuple[list[Fraction], list[list[Fraction]]]:
    """The integers the integral GSO holds, read off the star vectors:
    dets[i], the determinant through the block of position i, and
    lam[i][m] = D'_m * b(v_i, v*_m) for m <= i, with D'_m the determinant
    before the block of m."""
    rows, bad = state.gram.rows, state.bad
    before = [prefix_determinant(state, m - 1 if (m - 1) in bad else m) for m in range(state.upto)]
    dets = [prefix_determinant(state, i + 1 + (i in bad)) for i in range(state.upto)]
    lam = [[before[m] * state.star_product(rows[i], m) for m in range(i + 1)] for i in range(state.upto)]
    return dets, lam


def cleanup_size_reduce(
    state: ReducerState, pos: int, gso: GsoState | None = None
) -> tuple[Fraction, bool]:
    """Size-reduce the vector at `pos` against the prefix held in `gso`.

    The last prefix position, when scalar, is handled by the clean-up
    rule `cleanup_lambda` (anticipating that the vector lands right after it); all
    earlier scalar positions get plain nearest-integer reduction and
    hyperbolic pairs get the pair rule on both cross coefficients.
    Adding prefix vectors leaves the residual norm b(w*, w*) unchanged,
    so it is computed once, up front; only a zero residual can belong to
    a prefix zero, so only then is the coefficient vector built, and a
    prefix zero has it subtracted, leaving it exactly orthogonal to the
    prefix.  Returns the residual norm and whether the vector is a
    prefix zero.
    """
    gso = gso or state.gso
    kappa = gso.upto
    rnorm = gso.residual_norm(state.gc[pos][:kappa], state.gc[pos][pos])
    if kappa == 0:
        return rnorm, rnorm == 0
    j = kappa - 1
    if gso.is_scalar(j):
        n1 = gso.star_norms[j]
        s = gso.star_product(state.gc[pos], j)
        n2 = rnorm + s * s / n1
        lam = _cleanup_lambda(n1, s, n2)
        if lam:
            state.col_addmul(pos, j, lam)
        j -= 1
    while j >= 0:
        if (j - 1) in gso.bad:  # the plane (j - 1, j)
            alpha = gso.cross[j - 1]
            n_first = nearest_int(gso.star_product(state.gc[pos], j) / alpha)
            n_second = nearest_int(gso.star_product(state.gc[pos], j - 1) / alpha)
            if n_first:
                state.col_addmul(pos, j - 1, -n_first)
            if n_second:
                state.col_addmul(pos, j, -n_second)
            j -= 2
        else:
            lam = nearest_int(gso.star_product(state.gc[pos], j) / gso.star_norms[j])
            if lam:
                state.col_addmul(pos, j, -lam)
            j -= 1
    if rnorm != 0:
        return rnorm, False
    # a prefix zero is straightened out entirely
    theta, _ = gso.theta_and_residual_norm(state.gc[pos][:kappa], rnorm)
    if not all(t.denominator == 1 for t in theta):
        return rnorm, False
    for j, tj in enumerate(theta):
        if tj:
            state.col_addmul(pos, j, -int(tj))
    return rnorm, True
