"""Lattice reduction for indefinite integral Gram matrices.

The main loop keeps an admissible prefix (scalar positions with nonzero
generalized GSO norm, plus fully orthogonal hyperbolic planes), scans
the tail for the first vector that is not a prefix zero, pulls it in
with a cyclic shift, and reduces it against the prefix.  Projected 2x2
blocks are driven by the binary-quadratic-form engines of
:mod:`indeflll.qform`; isotropic pairs are kept as hyperbolic planes
instead of being broken up.  All arithmetic is exact.

``reduce_baseline`` is the classic absolute-value variant (Simon-style
adaptation of LLL) used for comparisons; it fails fast on isotropic
orthogonalized vectors.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InadmissiblePrefixError, InternalInvariantError, IsotropicVectorError
from .gram import GramMatrix, GsoState, auto_gso, mat_det, mat_identity
from .numerics import (
    Rational,
    ceil_sqrt_div,
    floor_sqrt_div,
    nearest_div,
)
from .qform import BQForm, Form, IntegralWalk, Mat, is_reduced as qf_is_reduced, reduce_definite


@dataclass
class ReducerParams:
    """Knobs of the indefinite reduction.

    gamma0 is the quality factor in (0, 1) (default 99/100); gamma_h
    governs hyperbolic-plane ordering and must equal gamma0 or exactly
    1; max_extra bounds the cycle steps taken past the first reduced
    form (reduced-form cycles of large discriminants hide their short
    leading coefficients several steps in, so the default walk is 12);
    sign_strategy turns the sign-alternance heuristics on.
    """

    gamma0: Fraction = Fraction(99, 100)
    gamma_h: Fraction | None = None
    max_extra: int = 12
    sign_strategy: bool = True

    def __post_init__(self):
        self.gamma0 = Fraction(self.gamma0)
        if not (0 < self.gamma0 < 1):
            raise ValueError("gamma0 must lie strictly between 0 and 1")
        if self.gamma_h is None:
            self.gamma_h = self.gamma0
        else:
            self.gamma_h = Fraction(self.gamma_h)
            if self.gamma_h != self.gamma0 and self.gamma_h != 1:
                raise ValueError("gamma_h must equal gamma0 or be exactly 1")
        if self.max_extra < 0:
            raise ValueError("max_extra must be non-negative")


@dataclass
class ReductionStats:
    loop_iterations: int = 0
    position_reports: int = 0
    pair_reports: int = 0
    swaps: int = 0
    adherent_integrations: int = 0
    plane_moves: int = 0
    repairs: int = 0
    worthwhile_c_zero: int = 0
    potential_drops: int = 0
    potential_violations: int = 0
    gso_positions: int = 0  # star vectors computed by prefix GSO refreshes
    walk_steps: int = 0  # binary-form moves of the indefinite candidate walks
    u_bits: int = 0  # largest entry bit length of U, set at the end
    g_bits: int = 0  # largest entry bit length of the reduced Gram


@dataclass
class ReductionResult:
    transform: list[list[int]]
    reduced: GramMatrix
    rank: int
    block_kinds: list[str]
    stats: ReductionStats
    params: ReducerParams

    def first_entry(self) -> Fraction:
        """First squared norm, or the first hyperbolic cross term."""
        if self.reduced.dim == 0:
            return Fraction(0)
        head = Fraction(self.reduced.rows[0][0])
        if head != 0 or self.reduced.dim < 2:
            return head
        return Fraction(self.reduced.rows[0][1])

    def sum_definite_exponent(self) -> int:
        """Sum over positions of the running definite-block count."""
        total = 0
        for p, kind in enumerate(self.block_kinds):
            if kind == "definite":
                total += self.rank - 1 - p
        return total

    def unit_diagonal_count(self) -> int:
        return sum(1 for i in range(self.reduced.dim) if abs(self.reduced.rows[i][i]) == 1)


class ReducerState:
    """Mutable working state: transform columns and the current Gram.

    `touched` is the first position that a column operation changed
    since the last prefix GSO refresh: the leading rows of the Gram
    below it, through the diagonal, are those that refresh read.
    """

    def __init__(self, gram: GramMatrix, params: ReducerParams):
        self.g_in = gram
        self.params = params
        self.d = gram.dim
        self.u = mat_identity(self.d)
        self.gc: list[list] = gram.copy_rows()
        self.stats = ReductionStats()
        self.gso: GsoState | None = None  # GSO of the current prefix
        self.touched = 0
        self._pot_max_dim = 0
        self._pot_last = (1, 1)  # potential as (numerator, positive denominator)

    # -- elementary column operations (kept congruent on gc) --------------

    def col_addmul(self, dst: int, src: int, coef: int) -> None:
        """v_dst += coef * v_src."""
        if coef == 0 or dst == src:
            return
        self.touched = min(self.touched, dst)
        for r in range(self.d):
            self.u[r][dst] += coef * self.u[r][src]
        gc = self.gc
        for i in range(self.d):
            gc[i][dst] = gc[i][dst] + coef * gc[i][src]
        row_dst, row_src = gc[dst], gc[src]
        for j in range(self.d):
            row_dst[j] = row_dst[j] + coef * row_src[j]

    def col_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        self.touched = min(self.touched, i, j)
        for r in range(self.d):
            self.u[r][i], self.u[r][j] = self.u[r][j], self.u[r][i]
        gc = self.gc
        for r in range(self.d):
            gc[r][i], gc[r][j] = gc[r][j], gc[r][i]
        gc[i], gc[j] = gc[j], gc[i]

    def col_transform2(self, p: int, q: int, t: Mat) -> None:
        """(v_p, v_q) <- (m11 v_p + m21 v_q, m12 v_p + m22 v_q) for the
        entries t = (m11, m12, m21, m22) of a 2x2 transform."""
        self.touched = min(self.touched, p, q)
        m11, m12, m21, m22 = t
        for r in range(self.d):
            a, b = self.u[r][p], self.u[r][q]
            self.u[r][p] = m11 * a + m21 * b
            self.u[r][q] = m12 * a + m22 * b
        gc = self.gc
        for i in range(self.d):
            a, b = gc[i][p], gc[i][q]
            gc[i][p] = m11 * a + m21 * b
            gc[i][q] = m12 * a + m22 * b
        rp, rq = gc[p], gc[q]
        for j in range(self.d):
            a, b = rp[j], rq[j]
            rp[j] = m11 * a + m21 * b
            rq[j] = m12 * a + m22 * b

    def cyclic_shift(self, dst: int, src: int) -> None:
        """(v_dst, ..., v_src) -> (v_src, v_dst, ..., v_{src-1})."""
        if dst == src:
            return
        self.touched = min(self.touched, dst)
        for r in range(self.d):
            row = self.u[r]
            row[dst : src + 1] = [row[src]] + row[dst:src]
        gc = self.gc
        for r in range(self.d):
            row = gc[r]
            row[dst : src + 1] = [row[src]] + row[dst:src]
        gc[dst : src + 1] = [gc[src]] + gc[dst:src]

    def snapshot(self):
        return ([row[:] for row in self.u], [row[:] for row in self.gc], self.touched)

    def restore(self, snap) -> None:
        self.u = [row[:] for row in snap[0]]
        self.gc = [row[:] for row in snap[1]]
        self.touched = snap[2]

    # -- views -------------------------------------------------------------

    def current_gram(self) -> GramMatrix:
        """A copy of the working Gram (integer column operations keep it normalized)."""
        return GramMatrix.trusted([row[:] for row in self.gc])

    def refresh_prefix_gso(self, prefix: int, strict: bool = False) -> GsoState:
        """Hold the GSO of the leading `prefix` positions of the current
        Gram in `self.gso`.

        Star vector i depends only on the leading (i+1)x(i+1) block, so
        the previously held state is kept below `touched` (one place
        earlier when that would split a hyperbolic pair), and only the
        positions from there on are computed; `stats.gso_positions`
        counts them.  No row is compared, and the working Gram is not
        copied.  `strict` admits no hyperbolic pairs: the first zero
        star norm raises.
        """
        self.gso = auto_gso(GramMatrix.trusted(self.gc), prefix, self.gso, self.touched, strict)
        self.touched = self.d
        self.stats.gso_positions += prefix - self.gso.reused
        return self.gso

    def columns_match_pm(self, p: int, q: int, old_p: list, old_q: list) -> bool:
        """(v_p, v_q) equal to (old_p, old_q) up to independent signs."""
        col_p = [self.u[r][p] for r in range(self.d)]
        col_q = [self.u[r][q] for r in range(self.d)]
        same_p = col_p == old_p or col_p == [-x for x in old_p]
        same_q = col_q == old_q or col_q == [-x for x in old_q]
        return same_p and same_q


# ---------------------------------------------------------------------------
# size reduction / clean-up
# ---------------------------------------------------------------------------


def _cleanup_lambda(n1: int, s: int, n2: int) -> int:
    """Shift count for the candidate against its scalar neighbor.

    Ordinary size reduction when the projected block is definite or
    degenerate; otherwise the window rule that keeps indefinite blocks
    reducible (with the all-boundary square case falling back to the
    nearest-integer choice).  The rule is scale invariant, so it takes
    the block as integers over any positive common denominator, as
    `GsoState.projected_block` gives it.
    """
    disc = s * s - n1 * n2
    if disc <= 0:
        return nearest_div(-s, n1)
    if s == 0 and n1 + n2 == 0:
        return 0
    if n1 * n1 > disc or (n2 == 0 and n1 * n1 == disc):
        return nearest_div(-s, n1)
    if n1 > 0:
        return floor_sqrt_div(-s, disc, n1)
    return ceil_sqrt_div(-s, disc, n1)


def _add_prefix_vector(
    state: ReducerState, pos: int, row: list[int], gso: GsoState, j: int, coef: int
) -> None:
    """v_pos += coef * v_j for a prefix position j, keeping the lambda row
    of v_pos exact up to position j: lam_{w,m} += coef * lam_{j,m}."""
    state.col_addmul(pos, j, coef)
    row[: j + 1] = [r + coef * x for r, x in zip(row, gso.lam[j])]


def _size_reduce_below(
    state: ReducerState, pos: int, row: list[int], gso: GsoState, top: int
) -> None:
    """Nearest-integer size reduction of the vector at `pos`, with lambda
    row `row`, against the prefix positions below `top`, from the last
    down: a scalar position j by lam_{w,j} / dets[j], a plane (j-1, j) by
    the pair rule lam_{w,j} / A and lam_{w,j-1} / A on both cross
    coefficients.  The whole row stays exact."""
    j = top - 1
    while j >= 0:
        if (j - 1) in gso.bad:  # the plane (j - 1, j)
            a = gso.lam[j][j - 1]
            n_first = nearest_div(row[j], a)
            n_second = nearest_div(row[j - 1], a)
            if n_first:
                _add_prefix_vector(state, pos, row, gso, j - 1, -n_first)
                row[j] -= n_first * a  # b(v_j-1, v*_j) = alpha: lam_{j-1,j} = A
            if n_second:
                _add_prefix_vector(state, pos, row, gso, j, -n_second)
            j -= 2
        else:
            lam = nearest_div(row[j], gso.dets[j])
            if lam:
                _add_prefix_vector(state, pos, row, gso, j, -lam)
            j -= 1


def cleanup_size_reduce(
    state: ReducerState, pos: int, gso: GsoState | None = None
) -> tuple[tuple[int | None, int], bool]:
    """Size-reduce the vector at `pos` against the prefix held in `gso`.

    The last prefix position, when scalar, is handled by the clean-up
    rule above (anticipating that the vector lands right after it); all
    earlier scalar positions get plain nearest-integer reduction and
    hyperbolic pairs get the pair rule on both cross coefficients.
    Everything runs on the vector's integer lambda row, built once and
    updated after each column operation.  Adding prefix vectors leaves
    the scaled residual rho = D * b(w*, w*) unchanged, so it is computed
    once, up front.  The row and rho are handed over to `gso` for the
    build that extends it by this vector.  Returns (s, rho), with
    s = lam_{w,j} against the last prefix position j when that is scalar
    (else None), and whether the vector is a prefix zero: an integer
    combination of the prefix plus a vector orthogonal to it and
    isotropic.  Rounding from the last position down takes integral
    coefficients off exactly (with rho = 0 the last-position rule is
    plain nearest rounding), so after it a prefix zero is exactly a zero
    residual with a zero lambda row, already orthogonal to the prefix.
    """
    gso = gso or state.gso
    kappa = gso.upto
    w = state.gc[pos]
    row = gso.lambda_row(w)
    rho = gso.scaled_residual(row, w[pos])
    if kappa == 0:
        return (None, rho), rho == 0
    top, s = kappa, None
    if gso.is_scalar(kappa - 1):
        top -= 1
        lam = _cleanup_lambda(*gso.projected_block(top, row[top], rho)[:3])
        if lam:
            _add_prefix_vector(state, pos, row, gso, top, lam)
        s = row[top]
    _size_reduce_below(state, pos, row, gso, top)
    gso.hand_over(w, pos, row, rho)
    return (s, rho), rho == 0 and not any(row)


# ---------------------------------------------------------------------------
# vector reduction
# ---------------------------------------------------------------------------


def _sign_target(gso: GsoState, prev: int) -> int | None:
    """Sign the next star norm should avoid: sign of the last scalar
    star norm strictly below `prev`, skipping hyperbolic planes."""
    i = prev - 1
    while i >= 0:
        if gso.is_scalar(i):
            return gso.norm_sign(i)
        i -= 1
    return None


def _place_transformed_pair(state: ReducerState, k: int, t: Mat) -> int:
    """Apply a block transform, as its entries (m11, m12, m21, m22), at
    (k-1, k) and run the placement tests.

    The new front vector is size-reduced against the shorter prefix,
    classified, and the pair is kept (front first, or swapped when the
    front is a prefix zero) unless it equals the old pair up to signs,
    in which case everything is rolled back.
    """
    prev, pos = k - 2, k - 1
    snap = state.snapshot()
    old_p = [snap[0][r][prev] for r in range(state.d)]
    old_q = [snap[0][r][pos] for r in range(state.d)]
    state.col_transform2(prev, pos, t)
    short = state.gso.truncated(prev)
    if cleanup_size_reduce(state, prev, gso=short)[1]:
        state.col_swap(prev, pos)
    if state.columns_match_pm(prev, pos, old_p, old_q):
        state.restore(snap)
        return +1
    state.stats.swaps += 1
    return -1


def _lovasz_definite(state: ReducerState, k: int, n1: int, n2: int) -> int:
    """Definite projected block (N1, S, N2): swap on a gamma0 gain.

    The clean-up has already size-reduced the block, |S| <= |N1| / 2, so
    only N1 and N2 matter; they come as integers over a positive common
    denominator, and both comparisons are invariant under it.  A strict
    sub-gamma0 improvement is also taken (counted as a repair) so that
    final definite blocks satisfy |a| <= |c| exactly; each such swap
    still strictly lowers the integer-valued potential, so the loop
    cannot cycle on them.
    """
    gamma0 = state.params.gamma0
    if abs(n2) < abs(n1):
        if not (abs(n2) * gamma0.denominator < gamma0.numerator * abs(n1)):
            state.stats.repairs += 1
        state.col_swap(k - 2, k - 1)
        state.stats.swaps += 1
        return -1
    return +1


def integrate_adherent(state: ReducerState, k: int, n1: int, s: int, n2: int) -> int:
    """Fold an adherent (isotropic residual, non-integral coefficients)
    vector into the prefix through the degenerate projected block.

    The vector at k-1 has been size-reduced by `cleanup_size_reduce`, and
    (N1, S, N2) is its projected block against position k-2, as integers
    over a positive common denominator.  The rank-one 2x2 block is run
    down to a (0, 0, c) shape, which is a GCD computation on the two
    projected vectors; the lift shortens the prefix vector and leaves
    behind a combination that adheres further down, so the main loop
    keeps cascading until the leftover becomes a prefix zero.  Each pass
    divides the local determinant by at least 4.
    """
    gso = state.gso
    if not gso.is_scalar(k - 2):
        raise ValueError("integrate_adherent requires a scalar neighbor position")
    if s * s != n1 * n2:  # the residual norm is not zero
        raise ValueError("integrate_adherent requires an adherent vector")
    # after size reduction a prefix zero is a zero residual with a zero lambda row
    if not any(gso.lambda_row(state.gc[k - 1])):
        raise ValueError("integrate_adherent rejects prefix zeroes")
    # the engine is scale invariant, so it takes the block times its denominator
    t = reduce_definite(BQForm(n1, 2 * s, n2))[1].entries()
    state.stats.adherent_integrations += 1
    change = _place_transformed_pair(state, k, t)
    if change != -1:
        raise InternalInvariantError("adherent integration produced a sign-trivial pair")
    return change


def _indefinite_candidates(
    walk: IntegralWalk,
    gamma0: Fraction,
    max_extra: int,
    want_sign: int | None,
) -> list[tuple[Form, Mat]]:
    """Ordered transform candidates for a projected indefinite block.

    Unreduced input: step until reduced, remembering the point where
    the leading coefficient first halves (with the right sign under the
    sign strategy) as the preferred early exit; optionally swap leading
    and trailing coefficients to fix the sign of the first reduced
    form; then continue along the cycle for up to max_extra steps.
    Candidates worth applying come first: leading coefficient beating
    gamma0 (with the right sign), then the clear-a-zero-trailing rule,
    then reduced forms that at least do not grow the leading
    coefficient (they repair an unreduced block without raising the
    potential).  Reduced input: cycle steps only, gated on a strict
    gamma0 gain with the right sign, up to the first repeated form (the
    move is deterministic, so only non-gains would follow).  Candidates
    are the walk's own (form, transform) int tuples: forms of its integral
    scaling `walk.start`, and transforms as (m11, m12, m21, m22).
    """
    start = walk.start
    a0 = abs(start[0])
    gain_bound, gain_den = gamma0.numerator * a0, gamma0.denominator

    def sign_ok(a: int) -> bool:
        return want_sign is None or a * want_sign <= 0

    def gamma_gain(f) -> bool:  # |a| < gamma0 * a0, in integers
        return abs(f[0]) * gain_den < gain_bound and sign_ok(f[0])

    if walk.is_reduced(start):
        seen = {start}
        for f, t in walk.cycle(start, max_extra):
            if f in seen:
                break
            if gamma_gain(f):
                return [(f, t)]
            seen.add(f)
        return []

    # unreduced input: walk to the first reduced form, noting the escape
    path = list(walk.descend())
    f, t = path[-1]
    reduced = walk.is_reduced(f)
    if reduced:
        path.pop()
    escape = next(((g, s) for g, s in path if 2 * abs(g[0]) <= a0 and sign_ok(g[0]) and g != start),
                  None)
    if want_sign is not None and reduced and not sign_ok(f[0]):
        c = f[2]
        if c != 0 and abs(c) * gain_den < gain_bound and 4 * c * c <= walk.disc:
            # the improper swap (a, b, c) -> (c, b, a) exchanges the columns
            f, t = (c, f[1], f[0]), (t[1], t[0], t[3], t[2])
            reduced = walk.is_reduced(f)
    found = [escape] if escape is not None else []
    found.append((f, t))
    if reduced:
        found += walk.cycle(f, max_extra, t)

    first, second, repair = [], [], []
    for f, t in found:
        if gamma_gain(f):
            first.append((f, t))
        elif abs(f[0]) <= a0 and start[2] == 0 and f[2] != 0:
            second.append((f, t))  # clears a zero trailing coefficient
        elif abs(f[0]) <= a0 and walk.is_reduced(f):
            repair.append((f, t))
    repair.sort(key=lambda ft: (abs(ft[0][0]), not sign_ok(ft[0][0])))
    return first + second + repair


def vector_reduce(state: ReducerState, k: int, residual: tuple[int, int]) -> int:
    """Reduce the projected block at 1-based (k-1, k) of the vector at
    k-1, which `cleanup_size_reduce` has size-reduced and whose (s, rho)
    it returned as `residual`.

    Under the sign strategy the new leading star norm is steered toward
    the sign opposite the previous scalar one.
    """
    n1, s, n2, den = state.gso.projected_block(k - 2, *residual)
    disc_alg = s * s - n1 * n2
    if disc_alg < 0:
        return _lovasz_definite(state, k, n1, n2)
    if disc_alg == 0:
        return integrate_adherent(state, k, n1, s, n2)
    want = _sign_target(state.gso, k - 2) if state.params.sign_strategy else None
    gamma0 = state.params.gamma0
    walk = IntegralWalk.over((n1, 2 * s, n2), den)
    candidates = _indefinite_candidates(walk, gamma0, state.params.max_extra, want)
    state.stats.walk_steps += walk.steps
    a0 = abs(walk.start[0])  # the candidates are forms of the walk's scaling
    for f, t in candidates:
        if _place_transformed_pair(state, k, t) == -1:
            if not (abs(f[0]) * gamma0.denominator < gamma0.numerator * a0):
                if walk.start[2] == 0 and f[2] != 0:
                    state.stats.worthwhile_c_zero += 1
                else:
                    state.stats.repairs += 1
            return -1
    return +1


# ---------------------------------------------------------------------------
# hyperbolic plane handling
# ---------------------------------------------------------------------------


def plane_reduce(state: ReducerState, k: int, incoming_pair: bool) -> int:
    """Order hyperbolic planes against neighbors; returns the new k.

    Three configurations: a prefix plane followed by a reported vector,
    a scalar vector followed by a fresh plane, and two adjacent planes.
    On any move k is set to point before the block that moved back.
    """
    # gamma_h * x against y, for the integer Gram entries x and y, as
    # gh_num * x against gh_den * y
    gh_num, gh_den = state.params.gamma_h.numerator, state.params.gamma_h.denominator
    state.stats.plane_moves += 1
    if not incoming_pair:
        # plane at (k-3, k-2) 0-based, reported vector at k-1
        p0, p1, v = k - 3, k - 2, k - 1
        cross = state.gc[p0][p1]
        alpha = state.gc[p0][v]
        beta = state.gc[p1][v]
        norm = state.gc[v][v]
        if alpha == 0 and beta != 0:
            state.col_swap(p0, p1)
            alpha, beta = beta, alpha
        if alpha != 0 or gh_den * abs(norm) < gh_num * abs(cross):
            state.cyclic_shift(p0, v)
            return k - 2
        return k + 1
    prefix_plane = k >= 3 and (k - 3) in state.gso.bad
    if prefix_plane:
        # planes at (k-3, k-2) and (k-1, k) 0-based
        alpha = state.gc[k - 3][k - 2]
        beta = state.gc[k - 1][k]
        if gh_num * abs(alpha) > gh_den * abs(beta):
            state.cyclic_shift(k - 3, k - 1)
            state.cyclic_shift(k - 2, k)
            return k - 2
        return k + 2
    # scalar at k-2, plane at (k-1, k) 0-based
    norm = state.gc[k - 2][k - 2]
    cross = state.gc[k - 1][k]
    if gh_num * abs(norm) <= gh_den * abs(cross):
        return k + 2
    state.cyclic_shift(k - 2, k)
    state.cyclic_shift(k - 1, k)
    return k + 1


# ---------------------------------------------------------------------------
# main loops
# ---------------------------------------------------------------------------


def _max_bits(rows: list[list[int]]) -> int:
    """Largest entry bit length of an integer matrix (0 if it is zero)."""
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _track_potential(state: ReducerState, prefix: int) -> None:
    if prefix < state._pot_max_dim:
        return
    pot = state.gso.potential()
    if prefix > state._pot_max_dim:
        state._pot_max_dim = prefix
        state._pot_last = pot
        return
    (num, den), (last_num, last_den) = pot, state._pot_last
    if num * last_den > last_num * den:
        state.stats.potential_violations += 1
    elif num * last_den < last_num * den:
        state.stats.potential_drops += 1
    state._pot_last = pot


def block_kinds(gso: GsoState) -> list[str]:
    """Kind of each adjacent block (p, p+1) of the prefix held in `gso`:
    hyperbolic-adjacent when either position is in a plane, otherwise
    definite or indefinite by the signs of the two star norms."""
    kinds = []
    for p in range(gso.upto - 1):
        if not (gso.is_scalar(p) and gso.is_scalar(p + 1)):
            kinds.append("hyperbolic-adjacent")
        elif gso.norm_sign(p) == gso.norm_sign(p + 1):
            kinds.append("definite")
        else:
            kinds.append("indefinite")
    return kinds


def first_unreduced_block(gso: GsoState) -> int | None:
    """First position p whose scalar/scalar projected block (p, p+1)
    is not a reduced binary form, or None when every such block is."""
    for p in range(gso.upto - 1):
        if not (gso.is_scalar(p) and gso.is_scalar(p + 1)):
            continue
        # v_p+1 against the prefix through p: lam_{p+1,p}, and rho = dets[p+1];
        # is_reduced is invariant under the positive common denominator
        n1, s, n2, _ = gso.projected_block(p, gso.lam[p + 1][p], gso.dets[p + 1])
        if not qf_is_reduced(BQForm(n1, 2 * s, n2)):
            return p
    return None


def _finalize(state: ReducerState, rank: int) -> ReductionResult:
    gram_out = state.current_gram()
    check = state.g_in.congruence(state.u)
    if check != gram_out:
        raise InternalInvariantError("congruence lost: U^T G U differs from the working Gram")
    if abs(mat_det(state.u)) != 1:
        raise InternalInvariantError("transform is not unimodular")
    for i in range(rank, state.d):
        if any(gram_out.rows[i][j] != 0 for j in range(state.d)):
            raise InternalInvariantError(f"tail row {i} is not exactly zero")
    gso = auto_gso(gram_out, rank, state.gso, state.touched)
    state.stats.u_bits = _max_bits(state.u)
    state.stats.g_bits = _max_bits(gram_out.rows)
    return ReductionResult(
        transform=state.u,
        reduced=gram_out,
        rank=rank,
        block_kinds=block_kinds(gso),
        stats=state.stats,
        params=state.params,
    )


def reduce(gram: GramMatrix, params: ReducerParams | None = None) -> ReductionResult:
    """Run the indefinite reduction on a symmetric integral Gram matrix.

    Output contract: the leading `rank` columns form an admissible
    Gram matrix whose scalar/scalar projected blocks are reduced binary
    forms, hyperbolic planes are exact anti-diagonal blocks orthogonal
    to their prefix, trailing rows and columns are identically zero and
    the congruence U^T G U equals the returned matrix exactly.
    """
    params = params or ReducerParams()
    if not gram.is_integral():
        raise ValueError("reduce expects an integral Gram matrix")
    d = gram.dim
    state = ReducerState(gram, params)
    if d == 0:
        return _finalize(state, 0)
    cap = 1000 + 80 * d * d * max(1, _max_bits(gram.rows))
    k = 1
    rank = d
    while k <= d:
        state.stats.loop_iterations += 1
        if state.stats.loop_iterations > cap:
            raise InternalInvariantError(f"main loop exceeded {cap} iterations")
        prefix = k - 1
        state.refresh_prefix_gso(prefix)
        _track_potential(state, prefix)
        reported_pos = None
        reported_pair = None
        reported_residual = None
        for i in range(prefix, d):
            residual, prefix_zero = cleanup_size_reduce(state, i)
            if not prefix_zero:
                reported_pos = i
                reported_residual = residual
                break
            if i > prefix and state.gc[i - 1][i] != 0:
                reported_pair = (i - 1, i)
                break
        if reported_pos is None and reported_pair is None:
            found = None
            for a in range(prefix, d):
                for b in range(a + 1, d):
                    if state.gc[a][b] != 0:
                        found = (a, b)
                        break
                if found:
                    break
            reported_pair = found
        if reported_pos is None and reported_pair is None:
            rank = prefix
            break
        if reported_pos is not None:
            state.stats.position_reports += 1
            state.cyclic_shift(prefix, reported_pos)
            if k == 1:
                k = 2
                continue
            if k >= 3 and (k - 3) in state.gso.bad:
                k = plane_reduce(state, k, incoming_pair=False)
            else:
                k = k + vector_reduce(state, k, reported_residual)
        else:
            state.stats.pair_reports += 1
            i, j = reported_pair
            state.cyclic_shift(prefix, i)
            state.cyclic_shift(prefix + 1, j)
            if k == 1:
                k = 3
                continue
            k = plane_reduce(state, k, incoming_pair=True)
        k = max(1, k)
    return _finalize(state, rank)


def _strict_gso(state: ReducerState, upto: int) -> GsoState:
    """Plain GSO of the leading `upto` positions (no hyperbolic pairs);
    the first zero star norm aborts with IsotropicVectorError."""
    try:
        return state.refresh_prefix_gso(upto, strict=True)
    except InadmissiblePrefixError as exc:
        raise IsotropicVectorError(exc.index) from None


def reduce_baseline(gram: GramMatrix, gamma0: Rational = Fraction(99, 100)) -> ReductionResult:
    """Classic LLL with absolute values around every squared-norm
    comparison (the Simon-style baseline).

    Standard Gram-Schmidt only: the first isotropic orthogonalized
    vector aborts the run with IsotropicVectorError.
    """
    params = ReducerParams(gamma0=gamma0)
    gamma0 = params.gamma0
    if not gram.is_integral():
        raise ValueError("reduce_baseline expects an integral Gram matrix")
    d = gram.dim
    state = ReducerState(gram, params)
    if d == 0:
        return _finalize(state, 0)
    cap = 1000 + 80 * d * d * max(1, _max_bits(gram.rows))
    k = 2
    while k <= d:
        state.stats.loop_iterations += 1
        if state.stats.loop_iterations > cap:
            raise InternalInvariantError(f"baseline loop exceeded {cap} iterations")
        gso = _strict_gso(state, k - 1)
        pos = k - 1
        w = state.gc[pos]
        row = gso.lambda_row(w)
        rho = gso.scaled_residual(row, w[pos])
        _size_reduce_below(state, pos, row, gso, k - 1)
        gso.hand_over(w, pos, row, rho)
        n_prev, _, proj, _ = gso.projected_block(k - 2, row[k - 2], rho)
        if abs(proj) * gamma0.denominator < gamma0.numerator * abs(n_prev):
            state.col_swap(k - 2, k - 1)
            state.stats.swaps += 1
            k = max(2, k - 1)
        else:
            k += 1
    _strict_gso(state, d)
    return _finalize(state, d)
