"""Gram matrices and generalized Gram-Schmidt orthogonalization.

The GSO here tolerates consecutive isotropic-but-non-orthogonal pairs
("hyperbolic pairs", tracked in a bad-index set).  Members of such a
pair have zero star norm and a nonzero cross product, and inside an
admissible prefix they are fully orthogonal to everything else.  Every
other position carries a nonzero star norm.
"""

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import mul

from .errors import InadmissiblePrefixError, InternalInvariantError
from .numerics import Rational, clear_denominators, format_rational, normalize


# ---------------------------------------------------------------------------
# plain matrix helpers (integer transforms, exact determinants)
# ---------------------------------------------------------------------------


def mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_transpose(m: list[list]) -> list[list]:
    return [list(row) for row in zip(*m)]


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    n, k, p = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            ait = ai[t]
            if ait == 0:
                continue
            bt = b[t]
            for j in range(p):
                oi[j] += ait * bt[j]
    return out


def mat_det(rows: list[list]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    work: list[list[int]] = []
    for row in rows:
        num, den = clear_denominators(row)
        scale /= den
        work.append(num)
    prev = 1
    sign_flip = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if work[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            work[k], work[pivot] = work[pivot], work[k]
            sign_flip = -sign_flip
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign_flip * work[n - 1][n - 1] * scale


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


class GramMatrix:
    """Symmetric square matrix of exact rationals."""

    __slots__ = ("rows",)

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

    @classmethod
    def trusted(cls, rows: list[list[Rational]]) -> "GramMatrix":
        """A copy of `rows` taken without normalizing or checking them:
        the caller guarantees a square symmetric matrix of normalized
        entries (the working Gram of a reduction, say)."""
        gram = cls.__new__(cls)
        gram.rows = [row[:] for row in rows]
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
        """U^T * G * U for a square integer matrix U."""
        return GramMatrix(mat_mul(mat_transpose(u), mat_mul(self.rows, u)))

    def det(self) -> Fraction:
        return mat_det(self.rows)

    def copy_rows(self) -> list[list[Rational]]:
        return [list(row) for row in self.rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, GramMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(x) for x in row) for row in self.rows)
        return f"GramMatrix[{body}]"


# ---------------------------------------------------------------------------
# admissibility traces
# ---------------------------------------------------------------------------


class BlockKind(Enum):
    SCALAR = "scalar"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class TraceBlock:
    kind: BlockKind
    index: int  # first position covered (0-based)

    @property
    def width(self) -> int:
        return 1 if self.kind is BlockKind.SCALAR else 2


@dataclass(frozen=True)
class AdmissibleTrace:
    """Ordered block decomposition of an admissible prefix."""

    blocks: tuple[TraceBlock, ...] = ()

    @property
    def dim(self) -> int:
        return sum(b.width for b in self.blocks)

    def extended_scalar(self) -> "AdmissibleTrace":
        return AdmissibleTrace(self.blocks + (TraceBlock(BlockKind.SCALAR, self.dim),))


# ---------------------------------------------------------------------------
# generalized GSO
# ---------------------------------------------------------------------------


class Classification(Enum):
    NON_ADHERENT = "non_adherent"
    ADHERENT = "adherent"
    G_ZERO = "g_zero"


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

    def blocks(self) -> list[TraceBlock]:
        out = []
        i = 0
        while i < self.upto:
            if i in self.bad:
                out.append(TraceBlock(BlockKind.HYPERBOLIC, i))
                i += 2
            else:
                out.append(TraceBlock(BlockKind.SCALAR, i))
                i += 1
        return out

    def trace(self) -> AdmissibleTrace:
        return AdmissibleTrace(tuple(self.blocks()))

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

    def star_product(self, raw_products: list, j: int) -> Fraction:
        """b(w, star_j), given raw products b(w, v_m) (ints or Fractions)."""
        return Fraction(self._scaled_star_product(raw_products, j), self.star_den[j])

    def _scaled_star_product(self, raw_products: list, j: int):
        """star_den[j] * b(w, star_j), in the type of the raw products."""
        return sum(map(mul, self.star_num[j], raw_products))

    def theta_and_residual_norm(
        self, raw_products: list, norm
    ) -> tuple[list[Fraction], Fraction]:
        """Coefficients of w - w* in the basis, and b(w*, w*)."""
        ps = [self.star_product(raw_products, j) for j in range(self.upto)]
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
        return theta, self.residual_norm(raw_products, norm)

    def residual_norm(self, raw_products: list, norm) -> Fraction:
        """b(w*, w*) alone, without the coefficient vector.  Adding
        prefix vectors to w leaves it unchanged.

        That is b(w, w) less b(w, star_i)^2 / N_i per scalar position
        and 2 b(w, star_j) b(w, star_j+1) / alpha_j per plane.  The terms
        are summed as one integer fraction, normalized once at the end.
        """
        num, den = 0, 1
        i = 0
        while i < self.upto:
            p = self._scaled_star_product(raw_products, i)
            if i in self.bad:
                q = self._scaled_star_product(raw_products, i + 1)
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


def _reusable(
    previous: GsoState | None, gram: GramMatrix, upto: int, declared: frozenset[int] | None
) -> int:
    """How many leading positions of `previous` a build of `gram` would
    reproduce exactly.

    Star vector i depends only on the leading (i+1)x(i+1) block, so the
    count stops at the first row whose leading part changed, one place
    earlier when that would split a hyperbolic pair.  A declared bad set
    that disagrees with the previous pairs below that point reuses
    nothing.
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
    if declared is not None and any((j in declared) != (j in previous.bad) for j in range(keep)):
        return 0
    return keep


def _build_gso(
    gram: GramMatrix, upto: int, declared: frozenset[int] | None, previous: GsoState | None = None
) -> GsoState:
    rows = gram.rows
    keep = _reusable(previous, gram, upto, declared)
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
        starts_pair = (i in declared) if declared is not None else (norm == 0)
        if not starts_pair:
            if norm == 0:
                raise InadmissiblePrefixError(
                    f"inadmissible prefix: zero star norm at position {i} outside a declared pair", i
                )
            star_num.append(num)
            star_den.append(den)
            norms.append(norm)
            i += 1
            continue
        if declared is not None and norm != 0:
            raise InadmissiblePrefixError(f"declared bad index {i} has nonzero star norm {norm}", i)
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


def generalized_gso(
    gram: GramMatrix,
    upto: int | None = None,
    bad: frozenset[int] | set[int] | None = None,
    previous: GsoState | None = None,
) -> GsoState:
    """Generalized GSO with an explicitly declared bad-index set.

    Every position below `upto` must either carry a nonzero star norm
    or belong to a declared pair (j, j+1) with both star norms zero and
    a nonzero cross product; anything else reports an inadmissible
    prefix.  Positions that `previous` (a GSO of an earlier Gram)
    provably shares with this one are taken over, not recomputed.
    """
    if upto is None:
        upto = gram.dim
    declared = frozenset(bad or frozenset())
    for j in declared:
        if j + 1 >= upto:
            raise InadmissiblePrefixError(f"declared bad index {j} has no partner below {upto}")
    return _build_gso(gram, upto, declared, previous)


def auto_gso(gram: GramMatrix, upto: int | None = None, previous: GsoState | None = None) -> GsoState:
    """Generalized GSO that detects hyperbolic pairs on the fly, taking
    over what `previous` provably shares with it (see `generalized_gso`)."""
    if upto is None:
        upto = gram.dim
    return _build_gso(gram, upto, None, previous)


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


def local_potential(trace: AdmissibleTrace, state: GsoState) -> Fraction:
    """Inductive potential of an admissible prefix.

    Empty prefix: 1.  Scalar extension: potential times |new det|.
    Hyperbolic extension with cross alpha: potential times
    |alpha|^3 * det^2 (det of the prefix before the plane).
    """
    pot = Fraction(1)
    det = Fraction(1)
    for block in trace.blocks:
        if block.kind is BlockKind.SCALAR:
            det = det * state.star_norms[block.index]
            pot = abs(det) * pot
        else:
            alpha = state.cross[block.index]
            pot = abs(alpha) ** 3 * det * det * pot
            det = det * (-(alpha**2))
    return pot


def theta_vector(prefix: GramMatrix, w_products: list[Rational]) -> list[Fraction]:
    """Solve prefix * theta = w_products exactly for an admissible prefix."""
    if prefix.dim != len(w_products):
        raise ValueError("product vector length does not match prefix dimension")
    state = auto_gso(prefix)
    products = [Fraction(p) for p in w_products]
    theta, _ = state.theta_and_residual_norm(products, Fraction(0))
    # residual norm needs b(w, w); theta does not, so any placeholder works
    check = [
        sum((Fraction(prefix.rows[i][j]) * theta[j] for j in range(prefix.dim)), Fraction(0))
        for i in range(prefix.dim)
    ]
    if check != products:
        raise InternalInvariantError("theta solve failed to reproduce the products")
    return theta


def _prefix_products(state: GsoState, raw_products: list[Rational]) -> list[Fraction]:
    if len(raw_products) != state.upto:
        raise ValueError("product vector length does not match prefix dimension")
    return [Fraction(p) for p in raw_products]


def classify(
    state: GsoState, raw_products: list[Rational], norm: Rational
) -> Classification:
    """Non-adherent, adherent, or G-zero status of an extra vector.

    The vector is given through its raw products with the prefix basis
    and its own squared norm.  Adherent means the generalized residual
    is isotropic; a G-zero additionally has an integral coefficient
    vector.
    """
    products = _prefix_products(state, raw_products)
    if state.residual_norm(products, norm) != 0:
        return Classification.NON_ADHERENT
    theta, _ = state.theta_and_residual_norm(products, norm)
    if all(t.denominator == 1 for t in theta):
        return Classification.G_ZERO
    return Classification.ADHERENT


def extend_admissible(
    trace: AdmissibleTrace,
    state: GsoState,
    raw_products: list[Rational],
    norm: Rational,
) -> tuple[AdmissibleTrace, Fraction]:
    """Append a non-adherent vector as a scalar block.

    Returns the extended trace and the new prefix determinant, which is
    the old determinant times the residual norm of the vector.
    """
    residual = state.residual_norm(_prefix_products(state, raw_products), norm)
    if residual == 0:
        raise ValueError("cannot extend an admissible prefix by an adherent vector")
    old_det = prefix_determinant(state, state.upto)
    return trace.extended_scalar(), old_det * residual
