"""Lattice invariants and verifications independent of the reducer.

Kernel splitting via integer column elimination, signature counting
both through the reduction output and through exact fraction-free
congruence elimination (Sylvester's law of inertia; one elimination,
the kernel split only for singular input), the quality bound decided in
integers, the Hermitian doubling embedding, and the hyperbolic-plane
removal basis change.

The certificate's product U^T G U is `GramMatrix.congruence`'s, formed
once per G and U: after `reduce` it is the one the reducer's own check
formed, taken over while neither matrix has changed.  The exact
comparison with the reduced matrix is `verify_theorem_bound`'s own.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InadmissiblePrefixError, InternalInvariantError
from .gram import GramMatrix, _symmetric_product, auto_gso, mat_det, mat_identity, mat_transpose
from .numerics import Rational, clear_denominators
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


def _eliminate_columns(at: list[list[int]], vt: list[list[int]]) -> int:
    """Unimodular integer column elimination of A = G V, in place.

    `at` holds the columns of A and `vt` those of V (V = I on entry);
    both take the same column operations, so A = G V throughout.  Each
    row's nonzero entries among the columns not yet pivoted are reduced
    to one by repeated division, and that column moves to the next pivot
    place.  Returns the number of pivots, the rank; every later column
    of A is then zero when the arithmetic is right.
    """
    d = len(at)
    pivot_col = 0
    for row in range(d):
        active = [c for c in range(pivot_col, d) if at[c][row] != 0]
        if not active:
            continue
        while len(active) > 1:
            active.sort(key=lambda c: abs(at[c][row]))
            base = active[0]
            remaining = [base]
            for c in active[1:]:
                q = at[c][row] // at[base][row]
                at[c] = [x - q * y for x, y in zip(at[c], at[base])]
                vt[c] = [x - q * y for x, y in zip(vt[c], vt[base])]
                if at[c][row] != 0:
                    remaining.append(c)
            active = remaining
        c = active[0]
        at[pivot_col], at[c], vt[pivot_col], vt[c] = at[c], at[pivot_col], vt[c], vt[pivot_col]
        pivot_col += 1
    return pivot_col


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
    vt, lead = _nondegenerate_block(gram.rows)
    if lead and mat_det(lead) == 0:
        raise InternalInvariantError("leading block is singular after the kernel split")
    return KernelSplit(transform=mat_transpose(vt), nondegenerate=GramMatrix.trusted(lead))


def _nondegenerate_block(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """The columns of V, the unimodular transform of `_eliminate_columns`
    for the integral Gram `rows`, and the leading rank x rank block of
    V^T G V.

    It takes its caller's word that `rows` is integral, checks the kernel
    columns on A = G V itself (V is unimodular, so they are zero exactly
    when those of V^T A are), and multiplies out only the leading rows.
    Whether that block is singular its caller tells.
    """
    at, vt = [list(row) for row in rows], mat_identity(len(rows))
    rank = _eliminate_columns(at, vt)
    if any(any(col) for col in at[rank:]):
        raise InternalInvariantError("kernel columns did not clear")
    return vt, _symmetric_product(vt[:rank], at[:rank])


# ---------------------------------------------------------------------------
# exact inertia
# ---------------------------------------------------------------------------


def char_poly(gram: GramMatrix) -> list[Fraction]:
    """Coefficients of det(x*I - G), constant term first (exact).

    Faddeev-LeVerrier recursion over rationals.  The signature oracle
    does not use it; the tests check that oracle against it.
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
    D_rank = det(a) when `a` is nonsingular.
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


def _integral_scale(gram: GramMatrix) -> tuple[GramMatrix, int]:
    """Scale a rational Gram matrix by the least positive integer making
    it integral, and that integer; scaling preserves the signature.  An
    integral input comes back as it is."""
    flat, scale = clear_denominators([x for row in gram.rows for x in row])
    if scale == 1:
        return gram, 1
    d = gram.dim
    return GramMatrix.trusted([flat[i : i + d] for i in range(0, d * d, d)]), scale


def signature_via_sturm(gram: GramMatrix) -> LatticeInvariants:
    """Count positive and negative eigenvalues exactly.

    By Sylvester's law of inertia any congruent matrix has the same
    counts.  Rational input is scaled to integral, and fraction-free
    symmetric elimination gives the leading principal minors
    D_1..D_rank of a congruent matrix (D_0 = 1).  The sign changes of
    this Sturm sequence at 0 count n_minus: the k-th diagonal entry of
    the congruent diagonal form is D_k / D_(k-1).  The nondegenerate
    determinant is D_rank / scale^rank, D_rank taken from the integer
    kernel split's leading block when the input is singular.
    """
    scaled, lam = _integral_scale(gram)
    minors = _congruent_leading_minors(scaled.copy_rows())
    rank = len(minors)
    if rank < gram.dim:
        lead = _nondegenerate_block(scaled.rows)[1]
        minors = _congruent_leading_minors(lead)
        if len(minors) < len(lead):
            raise InternalInvariantError("singular block in the inertia count")
        rank = len(lead)
    n_minus = sum((x < 0) != (y < 0) for x, y in zip([1] + minors, minors))
    det_nondeg = Fraction(minors[-1], lam**rank) if rank else Fraction(0)
    return LatticeInvariants(
        dim=gram.dim, rank=rank, n_plus=rank - n_minus, n_minus=n_minus, nondeg_det=det_nondeg
    )


def signature_via_gso(gram: GramMatrix, params: ReducerParams | None = None) -> LatticeInvariants:
    """Signature through the reduction output.

    The reducer leaves an admissible leading block: scalar positions
    contribute the sign of their star norm, every hyperbolic plane
    contributes one positive and one negative eigenvalue.  Rational
    input is scaled to integral first (the signature is unchanged), and
    the same GSO gives the nondegenerate determinant.
    """
    gram, lam = _integral_scale(gram)
    res = reduce(gram, params)
    gso = auto_gso(res.reduced, res.rank)
    n_plus, n_minus = gso.sign_counts()
    det = Fraction(gso.det, lam**res.rank) if res.rank else Fraction(0)
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
    nondeg_det: Fraction
    lhs: Fraction
    rhs: Fraction
    holds: bool
    slack: Fraction | None
    heuristic_rhs: Fraction
    heuristic_holds: bool
    excess_definite: int  # definite blocks less max(sigma - 1, 0); planes can make it negative
    signature: int  # sigma = |n_plus - n_minus| of the reduced block structure


def verify_theorem_bound(result: ReductionResult, gram_in: GramMatrix) -> BoundReport:
    """Check the output quality inequality exactly.

    |first|^rank <= gamma0^(-rank(rank-1)) * D^(sum N_i) * |det_nonzero|
    with D = gamma0^2 / (gamma0 - 1/4); `first` is the first squared
    norm, or the first hyperbolic cross term when the front vector is
    isotropic.  With gamma0 = p/q, D = 4p^2 / (q(4p - q)), and the
    inequality is decided in integers by cross-multiplying its positive
    denominators; the rational fields of the report are built once from
    the same integers.  The informational variant with base 4/3 and unit
    constants is reported alongside, against the same lhs, and so is the
    signature of the reduced block structure.  The definite blocks and
    sigma are read off the result's Gram, not its other fields, and rows
    from `rank` on that are not all zero are refused (ValueError).
    """
    # the product reduce's own check formed, unless G or U changed since
    if gram_in.congruence(result.transform) != result.reduced:
        raise ValueError("result does not belong to this input (congruence fails)")
    ell = result.rank
    if any(any(row) for row in result.reduced.rows[ell:]):
        raise ValueError(f"the reduced Gram has a nonzero row past its rank {ell}")
    gamma0 = result.params.gamma0
    if gamma0 <= Fraction(1, 4):
        raise ValueError("the bound constant requires gamma0 > 1/4")
    if ell == 0:
        one = Fraction(1)
        return BoundReport(0, 0, one, Fraction(0), one, True, None, one, True, 0, 0)
    # one GSO of the leading rank block gives |det| and its star-norm signs;
    # an admissible block is nonsingular, so a singular one is refused
    try:
        gso = auto_gso(result.reduced, ell)
    except InadmissiblePrefixError:
        if result.reduced.leading(ell).det() == 0:
            raise InternalInvariantError("nondegenerate determinant vanished") from None
        raise
    det = abs(gso.det)
    # the GSO read the leading block, so the entry there is an integer
    first_pow = abs(result.first_entry()).numerator ** ell
    signs = [gso.norm_sign(i) for i in range(ell)]  # 0 inside a plane
    definite = [p for p in range(ell - 1) if signs[p] == signs[p + 1] != 0]
    sum_n = sum(ell - 1 - p for p in definite)
    # first^ell * p^e * (q(4p - q))^N <= q^e * (4p^2)^N * |det|, with the
    # powers of p and q common to both sides cancelled first: that keeps
    # the integers, and the gcd that normalizes rhs, small
    p, q = gamma0.numerator, gamma0.denominator
    e = ell * (ell - 1)
    kp, kq = min(2 * sum_n, e), min(sum_n, e)
    rhs_num = q ** (e - kq) * 4**sum_n * p ** (2 * sum_n - kp) * det
    rhs_den = p ** (e - kp) * q ** (sum_n - kq) * (4 * p - q) ** sum_n
    lhs, rhs = Fraction(first_pow), Fraction(rhs_num, rhs_den)
    # signature read off the reduced block structure, a plane adding 0
    sig = abs(signs.count(1) - signs.count(-1))
    h = sig * (sig - 1)
    heur_num, heur_den = 4**h * det, 3**h
    return BoundReport(
        rank=ell,
        sum_definite=sum_n,
        nondeg_det=Fraction(gso.det),
        lhs=lhs,
        rhs=rhs,
        holds=first_pow * rhs_den <= rhs_num,
        slack=rhs / lhs if first_pow else None,
        heuristic_rhs=Fraction(heur_num, heur_den),
        heuristic_holds=first_pow * heur_den <= heur_num,
        excess_definite=len(definite) - max(sig - 1, 0),
        signature=sig,
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
