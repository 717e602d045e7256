"""Gram matrices and generalized Gram-Schmidt orthogonalization.

The GSO here tolerates consecutive isotropic-but-non-orthogonal pairs
("hyperbolic pairs", tracked in a bad-index set).  Members of such a
pair have zero star norm and a nonzero cross product, and inside an
admissible prefix they are fully orthogonal to everything else.  Every
other position carries a nonzero star norm.

The GSO is held fraction-free, as the integral LDL^T of de Weger (1987)
and Cohen's *Course in Computational Algebraic Number Theory*,
Alg. 2.6.7: per position the integer determinant of the leading block
that ends with its block, and the integer row
lambda_{i,m} = D'_m * b(v_i, v*_m), where D'_m is the determinant before
the block of m.  A hyperbolic plane is one 2x2 pivot, which multiplies
the prefix determinant by -alpha^2.  Rows follow Cohen's recursion
(`GsoState.lambda_row` and `scaled_residual`), and every division in it
is exact.  The one rational view of these integers is
`theta_and_residual_norm`: the coefficient vector theta of a vector's
projection on the prefix, and its residual norm.  The GSO takes integral
Grams only.  A state holds each fact once: one list entry per position,
so its length is `upto`, and one set of plane starts.  A build extends a
previous state of the same Gram in place and takes each row its caller
already knows instead of building it.  It compares no rows: whoever
changes the Gram cuts the state (`GsoState.cut`) where the change
begins, as the reducer's basis moves do.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import mul

from .errors import InadmissiblePrefixError
from .numerics import Rational, clear_denominators, format_rational, normalize


# ---------------------------------------------------------------------------
# plain matrix helpers (integer transforms, exact determinants)
# ---------------------------------------------------------------------------


def mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_transpose(m: list[list]) -> list[list]:
    return [list(row) for row in zip(*m)]


def _symmetric_product(xs: list, ys: list) -> list[list]:
    """The matrix of dot products x_i . y_j when it is known to be
    symmetric, as U^T (G U) is: only the upper triangle is multiplied
    out, and each row starts with the column its predecessors built."""
    out = []
    for i, x in enumerate(xs):
        out.append([row[i] for row in out] + [sum(map(mul, x, y)) for y in ys[i:]])
    return out


def mat_det(rows: list[list]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    A rational matrix is scaled to integers by one lcm of all its
    denominators; the elimination runs on ints, and the determinant is
    divided by the lcm's n-th power once at the end.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    flat, den = clear_denominators([x for row in rows for x in row])
    work = [flat[i : i + n] for i in range(0, n * n, n)]
    prev = 1
    sign_flip = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if work[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            work[k], work[pivot] = work[pivot], work[k]
            sign_flip = -sign_flip
        wk = work[k]
        piv = wk[k]
        for wi in work[k + 1 :]:
            wik = wi[k]
            for j in range(k + 1, n):
                wi[j] = (wi[j] * piv - wik * wk[j]) // prev
            wi[k] = 0
        prev = piv
    return Fraction(sign_flip * work[n - 1][n - 1], den**n)


def _congruent_leading_minors(a: list[list[int]]) -> list[int]:
    """Leading principal minors D_1..D_rank of an integer matrix
    congruent to the symmetric `a`, by fraction-free (Bareiss) symmetric
    elimination; `a` is overwritten.

    Step k pivots on a remaining nonzero diagonal entry, moved to place
    k by a symmetric swap.  When every remaining diagonal entry is zero,
    the unimodular step e_i += e_j with a_ij != 0 first makes the new
    a_ii = 2 a_ij.  Both congruences act only on indices k and up, where
    the Bareiss entries are bordered minors and so transform the same
    way; D_1..D_k stay as found.  The remaining block is D_k times a
    Schur complement, so the elimination stops when it is all zero;
    D_rank = det(a) when `a` is nonsingular, as both moves are
    unimodular.
    """
    r = len(a)
    minors = []
    prev = 1
    for k in range(r):
        p = next((i for i in range(k, r) if a[i][i]), None)
        if p is None:
            p, j = next(((i, j) for i in range(k, r) for j in range(i + 1, r) if a[i][j]), (None, None))
            if p is None:
                break
            ap, aj = a[p], a[j]
            for t in range(k, r):
                ap[t] += aj[t]
            for row in a[k:]:
                row[p] += row[j]
        a[k], a[p] = a[p], a[k]
        for row in a[k:]:
            row[k], row[p] = row[p], row[k]
        ak = a[k]
        piv = ak[k]
        for i in range(k + 1, r):
            ai = a[i]
            aik = ai[k]
            for j in range(i, r):
                ai[j] = a[j][i] = (ai[j] * piv - aik * ak[j]) // prev
        minors.append(piv)
        prev = piv
    return minors


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


class GramMatrix:
    """Symmetric square matrix of exact rationals.

    `_memo` holds what was formed from the instance's entries, or None:
    a snapshot of the rows, as a tuple of tuples, and a dict of the
    results formed from exactly those entries, the last congruence (see
    `congruence`) and the leading minors (see `leading_minors`).  Any
    call that finds the rows differ from the snapshot starts a new dict,
    so an entry edited in place misses every result."""

    __slots__ = ("rows", "_memo")

    def __init__(self, rows: list[list[Rational]]):
        n = len(rows)
        norm = [[normalize(x) for x in row] for row in rows]
        for i, row in enumerate(norm):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for i in range(n):
            for j in range(i + 1, n):
                if norm[i][j] != norm[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i}, {j})")
        self.rows = norm
        self._memo = None

    @classmethod
    def trusted(cls, rows: list[list[Rational]]) -> "GramMatrix":
        """`rows` themselves, neither copied, normalized nor checked: the
        caller guarantees a square symmetric matrix of normalized entries
        (the working Gram of a reduction, say) and copies it first if it
        will change while the matrix is in use.  The view starts with no
        results of its own."""
        gram = cls.__new__(cls)
        gram.rows = rows
        gram._memo = None
        return gram

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(n: int) -> "GramMatrix":
        return GramMatrix(mat_identity(n))

    @staticmethod
    def zeros(n: int) -> "GramMatrix":
        return GramMatrix([[0] * n for _ in range(n)])

    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self.rows for x in row)

    def leading(self, k: int) -> "GramMatrix":
        return GramMatrix([row[:k] for row in self.rows[:k]])

    def congruence(self, u: list[list[int]]) -> "GramMatrix":
        """U^T * G * U for a dim x dim integer matrix U, as a new matrix.

        The product is formed once per G and U: the instance keeps its
        last one, keyed by the snapshot of G's entries and one of U's,
        so a second call on equal entries (the certificate that follows
        `reduce`'s own check) copies it instead of multiplying again,
        and an entry of either edited in place in between misses.  A
        miss forms G U once, as the rows of its transpose U^T G, then
        `_symmetric_product`, which is square and symmetric by
        construction, so its entries are only normalized.  A U of another
        shape raises ValueError."""
        n = len(self.rows)
        if len(u) != n or any(len(row) != n for row in u):
            raise ValueError(f"the transform must be {n}x{n}")
        memo, key = self._formed(), tuple(map(tuple, u))
        kept = memo.get("congruence")
        if kept is None or kept[0] != key:
            ut = list(zip(*key))
            gu_t = [[sum(map(mul, col, row)) for row in self.rows] for col in ut]
            product = _symmetric_product(ut, gu_t)
            kept = memo["congruence"] = (key, [tuple(map(normalize, row)) for row in product])
        return GramMatrix.trusted([list(row) for row in kept[1]])

    def leading_minors(self) -> tuple[int, ...]:
        """Leading principal minors D_1..D_rank of an integer matrix
        congruent to this integral Gram (`_congruent_leading_minors`), so
        D_dim = det G at full rank.  They are formed once per entries and
        kept under the same snapshot as `congruence`'s product: the
        signature oracle after `reduce` reads the ones the reducer's own
        determinant check formed.  A non-integral entry raises
        ValueError."""
        memo = self._formed()
        minors = memo.get("minors")
        if minors is None:
            if not self.is_integral():
                raise ValueError("the leading minors need an integral Gram matrix")
            minors = memo["minors"] = tuple(_congruent_leading_minors(self.copy_rows()))
        return minors

    def _formed(self) -> dict:
        """The results kept for the current entries (see the class)."""
        key = tuple(map(tuple, self.rows))
        if self._memo is None or self._memo[0] != key:
            self._memo = (key, {})
        return self._memo[1]

    def det(self) -> Fraction:
        return mat_det(self.rows)

    def copy_rows(self) -> list[list[Rational]]:
        return [list(row) for row in self.rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, GramMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(x) for x in row) for row in self.rows)
        return f"GramMatrix[{body}]"


# ---------------------------------------------------------------------------
# generalized GSO
# ---------------------------------------------------------------------------


@dataclass
class GsoState:
    """Generalized GSO of the leading `upto` positions of an integral
    Gram, held in integers, one list entry per position.

    Write D'_m for the determinant of the leading block before the block
    of position m (1 at the front).  dets[i] is the determinant of the
    leading block through the block of position i, so both positions of
    a plane hold the determinant after the plane.  lam[i][m] =
    D'_m * b(v_i, v*_m) for m <= i: at a scalar position lam[i][i] =
    dets[i], inside a plane lam[i][i] = 0, and the second position of a
    plane (j, j+1) holds A_j = lam[j+1][j] = D'_j * alpha_j.  `bad` holds
    the first position of each plane.  `reused` counts the leading positions
    a build took over from a previous state instead of computing them.
    Builds and cuts edit the lists and the set in place, and no row is
    ever edited in place.  The state holds the prefix alone: rows of
    vectors past it that a caller already knows reach a build through
    its `known` argument (see `auto_gso`).
    """

    lam: list[list[int]]
    dets: list[int]
    bad: set[int]
    reused: int = field(default=0, compare=False)

    @property
    def upto(self) -> int:
        """Number of positions held."""
        return len(self.dets)

    @property
    def det(self) -> int:
        """Gram determinant of the prefix."""
        return self.dets[-1] if self.dets else 1

    def is_scalar(self, i: int) -> bool:
        return i not in self.bad and (i - 1) not in self.bad

    def before(self, i: int) -> int:
        """D'_i, the determinant before the block of position i."""
        i = _block_start(self.bad, i)
        return self.dets[i - 1] if i else 1

    def norm_sign(self, i: int) -> int:
        """Sign of the star norm of position i (0 inside a plane)."""
        if not self.is_scalar(i):
            return 0
        return 1 if (self.dets[i] > 0) == (self.before(i) > 0) else -1

    def norm_signs(self) -> list[int]:
        """`norm_sign` of every position, in one pass: a scalar position
        compares the sign of its determinant with the one before it."""
        bad, prev, out = self.bad, 1, []
        for i, det in enumerate(self.dets):
            out.append(0 if i in bad or (i - 1) in bad else 1 if (det > 0) == (prev > 0) else -1)
            prev = det
        return out

    def sign_counts(self) -> tuple[int, int]:
        """(positive, negative) counts of the prefix: each scalar position
        by the sign of its star norm, each hyperbolic plane once on each
        side."""
        signs = self.norm_signs()
        planes = len(self.bad)
        return signs.count(1) + planes, signs.count(-1) + planes

    def cut(self, first: int) -> None:
        """Drop the positions from `first` on, in place, and the whole
        hyperbolic plane that `first` would split; a cut at or past `upto`
        changes nothing.  A shorter prefix is a cut of a copy."""
        if first >= self.upto:
            return
        if first and (first - 1) in self.bad:
            first -= 1
        del self.lam[first:], self.dets[first:]
        self.bad.difference_update([j for j in self.bad if j >= first])

    # -- integer rows of a vector w, over the integral Gram -----------------

    def lambda_row(self, products: list[int], upto: int | None = None) -> list[int]:
        """lam_{w,j} = D'_j * b(w, v*_j) for every position j < `upto`
        (the prefix length, or one more for the partner of a plane the
        build holds half of), from the integer products b(w, v_j), by
        Cohen's recursion: start from b(w, v_j) and fold in each block
        before the block of j.  A scalar position m maps u to
        (dets[m] u - lam_{j,m} lam_{w,m}) / D'_m; a plane (m, m+1) is one
        2x2 pivot, u to (A (lam_{j,m+1} lam_{w,m} + lam_{j,m} lam_{w,m+1})
        - A^2 u) / D'_m^2 with A = A_m.  Every division is exact."""
        lam, dets, bad = self.lam, self.dets, self.bad
        row: list[int] = []
        for j in range(len(dets) if upto is None else upto):
            u, lj, p, m = products[j], lam[j], 1, 0
            stop = _block_start(bad, j)
            while m < stop:
                if m in bad:
                    a = lam[m + 1][m]
                    u = (a * (lj[m + 1] * row[m] + lj[m] * row[m + 1]) - a * a * u) // (p * p)
                    m += 2
                else:
                    u = (dets[m] * u - lj[m] * row[m]) // p
                    m += 1
                p = dets[m - 1]
            row.append(u)
        return row

    def scaled_residual(self, row: list[int], norm: int) -> int:
        """D * b(w*, w*), for the prefix determinant D, from w's lambda
        row and the integer norm b(w, w), by the same recursion through
        every block of the prefix.  Adding prefix vectors to w leaves it
        unchanged."""
        lam, dets, bad = self.lam, self.dets, self.bad
        u, p, m, upto = norm, 1, 0, len(dets)
        while m < upto:
            if m in bad:
                a = lam[m + 1][m]
                u = (2 * a * row[m] * row[m + 1] - a * a * u) // (p * p)
                m += 2
            else:
                u = (dets[m] * u - row[m] * row[m]) // p
                m += 1
            p = dets[m - 1]
        return u

    def projected_block(self, j: int, s: int, rho: int) -> tuple[int, int, int, int]:
        """(N1, S, N2) of the projected block of scalar position j and a
        vector w, as integers over their positive common denominator, and
        that denominator.

        s = lam_{w,j}, and rho = dets[j] * b(w*, w*) with w* orthogonal
        to the prefix through j.  Then N1 = dets[j] / D'_j, S = s / D'_j
        and N2 = (rho * D'_j + s^2) / (dets[j] * D'_j), where the division
        by dets[j] is exact.
        """
        p, d = self.before(j), self.dets[j]
        n2 = (rho * p + s * s) // d
        if p < 0:
            return -d, -s, -n2, -p
        return d, s, n2, p

    def row_before(self, j: int, row: list[int], rho: int) -> tuple[list[int], int]:
        """Lambda row and scaled residual of a vector w against the prefix
        before scalar position j, from its `row` and rho = dets[j] *
        b(w*, w*) against the prefix through j: the row cut at j, and the
        exact (rho * D'_j + lam_{w,j}^2) / dets[j], the numerator of N2 in
        `projected_block`."""
        s = row[j]
        before = self.dets[j - 1] if j else 1  # D'_j, as j is scalar
        return row[:j], (rho * before + s * s) // self.dets[j]

    def potential(self) -> tuple[int, int]:
        """Inductive potential of the prefix as (numerator, positive
        denominator).  The empty prefix has potential 1; a scalar
        position multiplies it by |dets[i]|, the new prefix determinant,
        and a plane (j, j+1) by |alpha_j|^3 * D'_j^2 = |A_j|^3 / |D'_j|."""
        num = den = 1
        i = 0
        while i < self.upto:
            if i in self.bad:
                num *= abs(self.lam[i + 1][i]) ** 3
                den *= abs(self.before(i))
                i += 2
            else:
                num *= abs(self.dets[i])
                i += 1
        return num, den

    # -- exact rational view ------------------------------------------------

    def theta_and_residual_norm(self, products: list, norm) -> tuple[list[Fraction], Fraction]:
        """Coefficients of w - w* in the basis, and b(w*, w*), from the
        products b(w, v_m) and the norm b(w, w).  Both are read off the
        integer rows of t * w, for the least t > 0 that makes its products
        and norm integers."""
        nums, t = clear_denominators([*products[: self.upto], norm])
        row = self.lambda_row(nums[:-1])
        theta = [x / t for x in self._theta(row, self.upto)]
        residual = Fraction(self.scaled_residual(row, nums[-1] * t), t * t * self.det)
        return theta, residual

    def _star_coefficients(self, row: list[int], upto: int) -> list[Fraction]:
        """Coefficients on v*_0 .. v*_upto-1 of the projection of a vector
        with lambda row `row`: lam_m / dets[m] at a scalar position, and
        lam_j+1 / A_j, lam_j / A_j across a plane (j, j+1)."""
        out = []
        m = 0
        while m < upto:
            if m in self.bad:
                a = self.lam[m + 1][m]
                out += [Fraction(row[m + 1], a), Fraction(row[m], a)]
                m += 2
            else:
                out.append(Fraction(row[m], self.dets[m]))
                m += 1
        return out

    def _theta(self, row: list[int], upto: int) -> list[Fraction]:
        """Coordinates in v_0 .. v_upto-1 of the same projection, by
        back-substitution through the lambda rows (`upto` a block
        boundary)."""
        theta = self._star_coefficients(row, upto)
        for k in range(upto - 1, -1, -1):
            t = theta[k]
            if t:
                start = _block_start(self.bad, k)
                for m, c in enumerate(self._star_coefficients(self.lam[k], start)):
                    if c:
                        theta[m] -= t * c
        return theta


def _block_start(bad, i: int) -> int:
    """First position of the block of position i."""
    return i - 1 if (i - 1) in bad else i


def auto_gso(
    gram: GramMatrix,
    upto: int | None = None,
    previous: GsoState | None = None,
    known: Mapping[int, tuple] | None = None,
) -> GsoState:
    """Generalized GSO of the leading `upto` positions that detects
    hyperbolic pairs as they arise.

    A zero star norm starts a pair (j, j+1), which must have both star
    norms zero and a nonzero cross product; anything else reports an
    inadmissible prefix.  `previous`, when given, is a GSO of the leading
    `previous.upto` positions of `gram` itself: whoever changed the Gram
    since it was built has cut it where the change begins (see
    `GsoState.cut`).  The build takes it over, cut to `upto`, keeps its
    positions without recomputing or comparing them, extends its lists and
    its set in place and returns `previous` itself as the new state, so a
    caller that still needs the old state passes a copy; after a build
    that raises an inadmissible prefix, `previous` is half built and must
    not be read.  The Gram must be integral on the rows the build reads
    (ValueError otherwise, raised before `previous` is cut).  The state
    keeps nothing of `gram` itself.

    `known` maps a position p to a tuple that starts with the lambda row
    and the scaled residual of the vector at p against the p positions
    before it (the reducer's `ReducerState.carry`); the build takes such
    an entry at any position it computes in place of Cohen's recursion,
    and the caller vouches that it is exact.
    """
    if upto is None:
        upto = gram.dim
    rows = gram.rows
    # `previous` was built from integral rows of this Gram, and the lower
    # triangle of the others holds every entry the build reads
    for i in range(min(upto, previous.upto) if previous else 0, upto):
        if not all(map(isinstance, rows[i][: i + 1], repeat(int))):
            raise ValueError("the generalized GSO expects an integral Gram matrix")
    if previous is None:
        gso = GsoState(lam=[], dets=[], bad=set())
    else:
        gso = previous
        gso.cut(upto)
    lam, dets, bad, keep = gso.lam, gso.dets, gso.bad, gso.upto
    i = keep
    while i < upto:
        low = rows[i]
        entry = known.get(i) if known else None
        if entry is not None:
            row, diag = entry[:2]
        else:
            row = gso.lambda_row(low)
            diag = gso.scaled_residual(row, low[i])  # D'_i times the star norm
        if diag:
            lam.append(row + [diag])
            dets.append(diag)
            i += 1
            continue
        if i + 1 >= upto:
            raise InadmissiblePrefixError(
                f"inadmissible prefix: isolated isotropic star vector at position {i}", i
            )
        lam.append(row + [0])
        # the partner's row runs through position i, whose column gives A;
        # its star norm skips the pending position i
        low = rows[i + 1]
        partner = gso.lambda_row(low, i + 1)
        diag = gso.scaled_residual(partner, low[i + 1])
        a = partner[i]
        if diag != 0 or a == 0:
            raise InadmissiblePrefixError(
                f"inadmissible prefix: positions {i}, {i + 1} do not form a hyperbolic pair", i
            )
        lam.append(partner + [0])
        pre = dets[-1] if dets else 1
        dets += [-(a * a) // pre] * 2
        bad.add(i)
        i += 2
    gso.reused = keep
    return gso
