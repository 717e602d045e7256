"""Lattice invariants and verifications independent of the reducer.

Kernel splitting via integer column elimination, signature counting
both through the reduction output and through exact Sturm sequences on
the characteristic polynomial, quality-bound checking, the Hermitian
doubling embedding, and the hyperbolic-plane removal basis change.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InternalInvariantError
from .gram import GramMatrix, auto_gso, mat_identity
from .numerics import Rational, sign
from .reducer import ReducerParams, ReductionResult, reduce


@dataclass
class LatticeInvariants:
    dim: int
    rank: int
    n_plus: int
    n_minus: int
    nondeg_det: Fraction

    @property
    def signature(self) -> int:
        return abs(self.n_plus - self.n_minus)


@dataclass
class KernelSplit:
    transform: list[list[int]]  # unimodular, kernel columns last
    nondegenerate: GramMatrix  # leading rank x rank block

    @property
    def rank(self) -> int:
        return self.nondegenerate.dim


def kernel_split(gram: GramMatrix) -> KernelSplit:
    """Split off the integer kernel of an integral Gram matrix.

    Unimodular column operations clear the columns spanning the kernel;
    the transform then satisfies U^T G U = diag(G_rank, 0) with the
    leading block invertible.  The zero columns of U form a basis of
    ker(G) intersected with the integer lattice (primitive because U is
    unimodular).
    """
    if not gram.is_integral():
        raise ValueError("kernel_split expects an integral Gram matrix")
    d = gram.dim
    a = [list(row) for row in gram.rows]  # worked on by column ops
    v = mat_identity(d)

    def col_addmul(dst, src, coef):
        for r in range(d):
            a[r][dst] += coef * a[r][src]
            v[r][dst] += coef * v[r][src]

    def col_swap(i, j):
        for r in range(d):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            v[r][i], v[r][j] = v[r][j], v[r][i]

    pivot_col = 0
    for row in range(d):
        active = [c for c in range(pivot_col, d) if a[row][c] != 0]
        if not active:
            continue
        while len(active) > 1:
            active.sort(key=lambda c: abs(a[row][c]))
            base = active[0]
            remaining = [base]
            for c in active[1:]:
                q = a[row][c] // a[row][base]
                col_addmul(c, base, -q)
                if a[row][c] != 0:
                    remaining.append(c)
            active = remaining
        col_swap(pivot_col, active[0])
        pivot_col += 1
    rank = pivot_col
    transformed = GramMatrix(gram.congruence(v).rows)
    for i in range(rank, d):
        if any(transformed.rows[i][j] != 0 for j in range(d)):
            raise InternalInvariantError("kernel columns did not clear")
    lead = transformed.leading(rank)
    if rank and lead.det() == 0:
        raise InternalInvariantError("leading block is singular after the kernel split")
    return KernelSplit(transform=v, nondegenerate=lead)


# ---------------------------------------------------------------------------
# characteristic polynomial and Sturm counting
# ---------------------------------------------------------------------------


def char_poly(gram: GramMatrix) -> list[Fraction]:
    """Coefficients of det(x*I - G), constant term first (exact).

    Faddeev-LeVerrier recursion over rationals.
    """
    d = gram.dim
    g = [[Fraction(x) for x in row] for row in gram.rows]
    work = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    cs = [Fraction(1)]
    for k in range(1, d + 1):
        gm = [[sum(g[i][t] * work[t][j] for t in range(d)) for j in range(d)] for i in range(d)]
        ck = -sum(gm[i][i] for i in range(d)) / k
        cs.append(ck)
        work = [[gm[i][j] + (ck if i == j else 0) for j in range(d)] for i in range(d)]
    return list(reversed(cs))


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [p[i] * i for i in range(1, len(p))]


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = _poly_trim(num[:])
    dlen = len(den)
    q = [Fraction(0)] * max(0, len(num) - dlen + 1)
    while len(num) >= dlen:
        coef = num[-1] / den[-1]
        shift = len(num) - dlen
        q[shift] = coef
        for i, dc in enumerate(den):
            num[shift + i] -= coef * dc
        num.pop()
        _poly_trim(num)
    return q, num


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [p[:], _poly_deriv(p)]
    while len(chain[-1]) > 1:
        _, r = _poly_divmod(chain[-2][:], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])
    return [c for c in chain if c]


def _sign_changes(values: list[int]) -> int:
    seq = [v for v in values if v != 0]
    return sum(1 for x, y in zip(seq, seq[1:]) if x * y < 0)


def _eval_sign_at_zero(p: list[Fraction]) -> int:
    return sign(p[0]) if p else 0


def _sign_at_infinity(p: list[Fraction], positive: bool) -> int:
    lead = p[-1]
    n = len(p) - 1
    if positive:
        return sign(lead)
    return sign(lead) * (1 if n % 2 == 0 else -1)


def _count_roots_half_lines(p: list[Fraction]) -> tuple[int, int]:
    """Distinct real roots of squarefree p in (0, inf) and (-inf, 0)."""
    chain = _sturm_chain(p)
    v_zero = _sign_changes([_eval_sign_at_zero(c) for c in chain])
    v_pos = _sign_changes([_sign_at_infinity(c, True) for c in chain])
    v_neg = _sign_changes([_sign_at_infinity(c, False) for c in chain])
    return v_zero - v_pos, v_neg - v_zero


def _integral_scale(gram: GramMatrix) -> tuple[GramMatrix, Fraction]:
    """Scale a rational Gram matrix by a positive integer making it
    integral; scaling preserves the signature."""
    scale = lcm(*[Fraction(x).denominator for row in gram.rows for x in row])
    if scale == 1:
        return gram, Fraction(1)
    return GramMatrix([[Fraction(x) * scale for x in row] for row in gram.rows]), Fraction(scale)


def signature_via_sturm(gram: GramMatrix) -> LatticeInvariants:
    """Count positive and negative eigenvalues exactly.

    Builds the characteristic polynomial, strips the zero eigenvalues,
    peels square-free layers so multiplicities are respected, and
    counts the roots on each half line via Sturm sequences.  The
    nondegenerate determinant comes from the integer kernel split.
    """
    d = gram.dim
    p = char_poly(gram)
    zero_mult = 0
    while p and p[0] == 0:
        p.pop(0)
        zero_mult += 1
    n_plus = n_minus = 0
    rest = _poly_trim(p[:])
    while rest and len(rest) > 1:
        g = _poly_gcd(rest, _poly_deriv(rest))
        sqfree, _ = _poly_divmod(rest, g)
        sqfree = _poly_trim(sqfree)
        if len(sqfree) > 1:
            pos, neg = _count_roots_half_lines(sqfree)
            n_plus += pos
            n_minus += neg
        rest = g
    rank = d - zero_mult
    det_nondeg = Fraction(0)
    if rank:
        scaled, lam = _integral_scale(gram)
        det_nondeg = kernel_split(scaled).nondegenerate.det() / lam**rank
    return LatticeInvariants(
        dim=d, rank=rank, n_plus=n_plus, n_minus=n_minus, nondeg_det=det_nondeg
    )


def signature_via_gso(gram: GramMatrix, params: ReducerParams | None = None) -> LatticeInvariants:
    """Signature through the reduction output.

    The reducer leaves an admissible leading block: scalar positions
    contribute the sign of their star norm, every hyperbolic plane
    contributes one positive and one negative eigenvalue.  Rational
    input is scaled to integral first (the signature is unchanged).
    """
    gram, lam = _integral_scale(gram)
    res = reduce(gram, params)
    n_plus, n_minus = auto_gso(res.reduced, res.rank).sign_counts()
    det = res.reduced.leading(res.rank).det() / lam**res.rank if res.rank else Fraction(0)
    return LatticeInvariants(
        dim=gram.dim, rank=res.rank, n_plus=n_plus, n_minus=n_minus, nondeg_det=det
    )


# ---------------------------------------------------------------------------
# quality bound
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    rank: int
    sum_definite: int
    first_value: Fraction
    nondeg_det: Fraction
    lhs: Fraction
    rhs: Fraction
    holds: bool
    slack: Fraction | None
    heuristic_lhs: Fraction
    heuristic_rhs: Fraction
    heuristic_holds: bool


def verify_theorem_bound(result: ReductionResult, gram_in: GramMatrix) -> BoundReport:
    """Check the output quality inequality exactly.

    |first|^rank <= gamma0^(-rank(rank-1)) * D^(sum N_i) * |det_nonzero|
    with D = gamma0^2 / (gamma0 - 1/4), evaluated over exact rationals;
    `first` is the first squared norm, or the first hyperbolic cross
    term when the front vector is isotropic.  The informational variant
    with base 4/3 and unit constants is reported alongside.
    """
    if gram_in.congruence(result.transform) != result.reduced:
        raise ValueError("result does not belong to this input (congruence fails)")
    gamma0 = result.params.gamma0
    if gamma0 <= Fraction(1, 4):
        raise ValueError("the bound constant requires gamma0 > 1/4")
    ell = result.rank
    if ell == 0:
        one = Fraction(1)
        return BoundReport(0, 0, Fraction(0), Fraction(1), Fraction(0), one, True, None,
                           Fraction(0), one, True)
    det = result.reduced.leading(ell).det()
    if det == 0:
        raise InternalInvariantError("nondegenerate determinant vanished")
    first = abs(result.first_entry())
    sum_n = result.sum_definite_exponent()
    d_const = gamma0 * gamma0 / (gamma0 - Fraction(1, 4))
    lhs = first**ell
    rhs = (1 / gamma0) ** (ell * (ell - 1)) * d_const**sum_n * abs(det)
    holds = lhs <= rhs
    slack = rhs / lhs if lhs else None
    heur_lhs = first**ell
    # signature read off the reduced block structure
    n_pos, n_neg = auto_gso(result.reduced, ell).sign_counts()
    sig = abs(n_pos - n_neg)
    heur_rhs = Fraction(4, 3) ** (sig * (sig - 1)) * abs(det)
    return BoundReport(
        rank=ell,
        sum_definite=sum_n,
        first_value=result.first_entry(),
        nondeg_det=det,
        lhs=lhs,
        rhs=rhs,
        holds=holds,
        slack=slack,
        heuristic_lhs=heur_lhs,
        heuristic_rhs=heur_rhs,
        heuristic_holds=heur_lhs <= heur_rhs,
    )


# ---------------------------------------------------------------------------
# embeddings and appendix transforms
# ---------------------------------------------------------------------------


def hermitian_embed(entries: list[list[tuple[Rational, Rational]]]) -> GramMatrix:
    """Double a Hermitian matrix into a real symmetric Gram matrix.

    Each complex entry a + ib becomes the 2x2 block [[a, -b], [b, a]];
    the input is given as (real, imag) pairs and must satisfy
    H[i][j] = conj(H[j][i]).
    """
    d = len(entries)
    for i, row in enumerate(entries):
        if len(row) != d:
            raise ValueError("Hermitian input must be square")
    for i in range(d):
        re_ii, im_ii = entries[i][i]
        if im_ii != 0:
            raise ValueError(f"diagonal entry {i} is not real")
        for j in range(d):
            re_ij, im_ij = entries[i][j]
            re_ji, im_ji = entries[j][i]
            if Fraction(re_ij) != Fraction(re_ji) or Fraction(im_ij) != -Fraction(im_ji):
                raise ValueError(f"input is not Hermitian at ({i}, {j})")
    rows = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        for j in range(d):
            a = Fraction(entries[i][j][0])
            b = Fraction(entries[i][j][1])
            rows[2 * i][2 * j] = a
            rows[2 * i][2 * j + 1] = -b
            rows[2 * i + 1][2 * j] = b
            rows[2 * i + 1][2 * j + 1] = a
    return GramMatrix(rows)


def remove_hyperbolic_plane(g3: GramMatrix) -> tuple[GramMatrix, list[list[int]]]:
    """Turn [[1,0,0],[0,0,a],[0,a,0]] with a > 0 into a dense symmetric
    shape with unit diagonal tail (diagonal when a = 1).

    The basis change is (u+v-w, u+v, u-w) for basis (u, v, w); returns
    the transformed Gram matrix and the unimodular transform columns.
    """
    if g3.dim != 3:
        raise ValueError("expected a 3x3 Gram matrix")
    rows = g3.rows
    alpha = Fraction(rows[1][2])
    expected = GramMatrix([[1, 0, 0], [0, 0, alpha], [0, alpha, 0]])
    if g3 != expected or alpha <= 0:
        raise ValueError("expected the shape [[1,0,0],[0,0,a],[0,a,0]] with a > 0")
    u = [[1, 1, 1], [1, 1, 0], [-1, 0, -1]]
    return g3.congruence(u), u


def automorphy_check(gram: GramMatrix, u: list[list[int]]) -> bool:
    """Whether U^T G U = G exactly."""
    if len(u) != gram.dim or any(len(row) != gram.dim for row in u):
        raise ValueError("transform dimensions do not match")
    return gram.congruence(u) == gram
