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

from dataclasses import dataclass, field
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


# Where a lambda row in `ReducerState.carry` came from: a definite swap
# for the vector it moves back and the one it moves forward, a placement
# for its fresh front, and "kept" for the row a clean-up ended with,
# filed for the vector that stays against that prefix (a kept front, or
# the reported vector of the main loop or the baseline).  Rows moved
# back and kept rows are settled (see `cleanup_size_reduce`).
CARRY_SOURCES = ("back", "forward", "front", "kept")
_SETTLED = ("back", "kept")


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
    rows_built: int = 0  # lambda rows of size reductions built by Cohen's recursion
    # lambda rows of size reductions taken from the carry, by the move that left them
    rows_carried: dict[str, int] = field(default_factory=lambda: dict.fromkeys(CARRY_SOURCES, 0))


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
    """Mutable working state: the transform U and the working Gram.

    The state is the one owner of `u` and `gc`, and keeps `gc` exactly
    U^T G U: after construction both change only through the three basis
    moves `col_addmul`, `col_transform2` and `cyclic_shift`, and neither
    is ever copied.  So `gc` is symmetric: it starts as the rows of a
    validated `GramMatrix`, and each move keeps it so, which lets the two
    column moves multiply out only the moved columns and copy them into
    the moved rows.  They assign those rows in place, so every row list
    of `gc` keeps its identity (a clean-up holds `gc[pos]` across moves),
    and only `cyclic_shift` reorders them.
    `carry` is the one store of known rows: it maps a position p to the
    exact (lambda row, scaled residual, source) of the vector at p
    against the p positions before it, which a move or a clean-up left
    there (see `CARRY_SOURCES`).  The next size reduction of that vector
    against that prefix takes its entry instead of building it, a GSO
    build takes any entry at a position it computes, and the moves that
    follow a clean-up read the cleaned vector's row from it.  `gso` is
    the prefix GSO, held between refreshes, and always exact for the
    leading `gso.upto` positions of the current `gc`.  Both follow one
    rule (see `_forget`): each move drops what it could change, so a row
    is filed after the move.  `col_addmul` drops only its destination's
    carried row, as adding earlier vectors changes no star vector and no
    leading determinant, and the other two every entry from their first
    position on; every move cuts `gso` at that same position.
    """

    def __init__(self, gram: GramMatrix, params: ReducerParams):
        self.g_in = gram
        self.params = params
        self.d = gram.dim
        self.u = mat_identity(self.d)
        self.gc: list[list] = gram.copy_rows()
        self._view = GramMatrix.trusted(self.gc)  # the refreshes' view of gc, never copied
        self.stats = ReductionStats()
        self.gso: GsoState | None = None  # GSO of the current prefix
        self.carry: dict[int, tuple[list[int], int, str]] = {}
        self._pot_max_dim = 0
        self._pot_last = (1, 1)  # potential as (numerator, positive denominator)

    def _forget(self, first: int, alone: bool = False) -> None:
        """Drop what a move of the vectors from `first` on could change:
        the carried rows from `first` on (only the one at `first` when
        `alone`, as the move adds earlier vectors to it) and the held GSO's
        positions from `first` on (see `GsoState.cut`)."""
        if alone:
            self.carry.pop(first, None)
        elif self.carry:
            self.carry = {p: c for p, c in self.carry.items() if p < first}
        if self.gso is not None:
            self.gso.cut(first)

    # -- elementary column operations (kept congruent on gc) --------------

    def col_addmul(self, dst: int, src: int, coef: int) -> None:
        """v_dst += coef * v_src."""
        if coef == 0 or dst == src:
            return
        self._forget(dst, alone=src < dst)
        for row in self.u:
            row[dst] += coef * row[src]
        gc = self.gc
        for row in gc:
            row[dst] += coef * row[src]
        # by symmetry the new row dst is the new column, but for the
        # diagonal, which also takes coef * b(v_src, new v_dst)
        row_dst = gc[dst]
        row_dst[:] = [row[dst] for row in gc]
        row_dst[dst] += coef * gc[src][dst]

    def col_transform2(self, p: int, q: int, t: Mat) -> None:
        """(v_p, v_q) <- (m11 v_p + m21 v_q, m12 v_p + m22 v_q) for the
        entries t = (m11, m12, m21, m22) of a 2x2 transform."""
        self._forget(min(p, q))
        m11, m12, m21, m22 = t
        for row in self.u:
            a, b = row[p], row[q]
            row[p] = m11 * a + m21 * b
            row[q] = m12 * a + m22 * b
        gc = self.gc
        for row in gc:
            a, b = row[p], row[q]
            row[p] = m11 * a + m21 * b
            row[q] = m12 * a + m22 * b
        # rows p and q are the new columns, but for the 2x2 block, which
        # the row rule takes from the column-updated rows
        rp, rq = gc[p], gc[q]
        pp = m11 * rp[p] + m21 * rq[p]
        pq = m11 * rp[q] + m21 * rq[q]
        qq = m12 * rp[q] + m22 * rq[q]
        rp[:] = [row[p] for row in gc]
        rq[:] = [row[q] for row in gc]
        rp[p] = pp
        rp[q] = rq[p] = pq
        rq[q] = qq

    def cyclic_shift(self, dst: int, src: int) -> None:
        """(v_dst, ..., v_src) -> (v_src, v_dst, ..., v_{src-1})."""
        if dst == src:
            return
        self._forget(dst)
        gc = self.gc
        if src == dst + 1:  # an adjacent swap, made in place
            for row in self.u:
                row[dst], row[src] = row[src], row[dst]
            for row in gc:
                row[dst], row[src] = row[src], row[dst]
            gc[dst], gc[src] = gc[src], gc[dst]
            return
        for row in self.u:
            row.insert(dst, row.pop(src))
        for row in gc:
            row.insert(dst, row.pop(src))
        gc.insert(dst, gc.pop(src))

    # -- prefix GSO --------------------------------------------------------

    def refresh_prefix_gso(self, prefix: int) -> GsoState:
        """Hold the GSO of the leading `prefix` positions of the current
        Gram in `self.gso`.

        Star vector i depends only on the leading (i+1)x(i+1) block, and
        every move since the last refresh has cut the held state where it
        changed the Gram, so the build takes that state over as it stands,
        cut to `prefix`, and extends it in place, taking the rows `carry`
        knows; `stats.gso_positions` counts the positions it computes.  No
        row is compared, and the working Gram is not copied.  A refresh
        that raises leaves no state held.
        """
        previous, self.gso = self.gso, None
        self.gso = auto_gso(self._view, prefix, previous, self.carry)
        self.stats.gso_positions += prefix - self.gso.reused
        return self.gso


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


def _add_prefix_vector(state: ReducerState, pos: int, row: list[int], j: int, coef: int) -> None:
    """v_pos += coef * v_j for a prefix position j, keeping the lambda row
    of v_pos exact up to position j: lam_{w,m} += coef * lam_{j,m}."""
    state.col_addmul(pos, j, coef)
    row[: j + 1] = [r + coef * x for r, x in zip(row, state.gso.lam[j])]


def _size_reduce_below(state: ReducerState, pos: int, row: list[int], top: int) -> None:
    """Nearest-integer size reduction of the vector at `pos`, with lambda
    row `row`, against the held prefix positions below `top`, from the
    last down: a scalar position j by lam_{w,j} / dets[j], a plane
    (j-1, j) by the pair rule lam_{w,j} / A and lam_{w,j-1} / A on both
    cross coefficients.  The whole row stays exact."""
    gso = state.gso
    bad, dets = gso.bad, gso.dets
    j = top - 1
    while j >= 0:
        if (j - 1) in bad:  # the plane (j - 1, j)
            a = gso.lam[j][j - 1]
            n_first = nearest_div(row[j], a)
            n_second = nearest_div(row[j - 1], a)
            if n_first:
                _add_prefix_vector(state, pos, row, j - 1, -n_first)
                row[j] -= n_first * a  # b(v_j-1, v*_j) = alpha: lam_{j-1,j} = A
            if n_second:
                _add_prefix_vector(state, pos, row, j, -n_second)
            j -= 2
        else:
            r, d = row[j], dets[j]
            if 2 * abs(r) > abs(d):  # else r / d rounds to 0, ties toward zero
                _add_prefix_vector(state, pos, row, j, -nearest_div(r, d))
            j -= 1


def _take_row(state: ReducerState, pos: int) -> tuple[list[int], int, bool]:
    """(row, rho, settled) of the vector at `pos` against the prefix held
    in `state.gso`: the row a move carried for it, taken out of
    `state.carry`, when that prefix is the positions before it, and
    otherwise built by Cohen's recursion, not settled.  `state.stats`
    counts each row by where it came from."""
    gso = state.gso
    carried = state.carry.pop(pos, None) if gso.upto == pos else None
    if carried is not None:
        row, rho, source = carried
        state.stats.rows_carried[source] += 1
        return row, rho, source in _SETTLED
    state.stats.rows_built += 1
    w = state.gc[pos]
    row = gso.lambda_row(w)
    return row, gso.scaled_residual(row, w[pos]), False


def cleanup_size_reduce(state: ReducerState, pos: int) -> tuple[list[int], int, bool]:
    """Size-reduce the vector at `pos` against the prefix held in `state.gso`.

    The last prefix position, when scalar, is handled by the clean-up
    rule above (anticipating that the vector lands right after it); all
    earlier scalar positions get plain nearest-integer reduction and
    hyperbolic pairs get the pair rule on both cross coefficients.
    Everything runs on the vector's integer lambda row, updated after
    each column operation.  Adding prefix vectors leaves the scaled
    residual rho = D * b(w*, w*) unchanged.  Row and rho are built by
    Cohen's recursion only when no move left them for this vector and
    prefix in `state.carry` (see `_take_row`).  A settled row, moved back
    by a definite swap or kept after a clean-up, came out of a clean-up
    against this prefix or a longer one, so it is nearest-reduced below
    its top, a fixed point of `_size_reduce_below` (ties round toward
    zero), and that scan is skipped unless the last-position rule moves
    the vector; a row carried forward or to a placement's front is
    scanned as a built one.  Returns the row and rho the vector ends
    with, which the caller files in `state.carry` for the vector it
    keeps, and whether the vector is a prefix zero: an integer
    combination of the prefix plus a vector orthogonal to it and
    isotropic.  Rounding from the last position down takes integral
    coefficients off exactly (with rho = 0 the last-position rule is
    plain nearest rounding), so after it a prefix zero is exactly a zero
    residual with a zero lambda row, already orthogonal to the prefix.
    """
    gso = state.gso
    row, rho, settled = _take_row(state, pos)
    top = gso.upto
    if top and gso.is_scalar(top - 1):
        top -= 1
        lam = _cleanup_lambda(*gso.projected_block(top, row[top], rho)[:3])
        if lam:
            _add_prefix_vector(state, pos, row, top, lam)
            settled = False
    if not settled:
        _size_reduce_below(state, pos, row, top)
    return row, rho, rho == 0 and not any(row)


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

    The new front vector is size-reduced against the shorter prefix (the
    held GSO, which the transform cuts at the pair), classified, and the
    pair is kept (front first, or swapped when the front is a prefix
    zero) unless it equals the old pair up to signs.  No other column
    moved and U is nonsingular, so that is exactly when both new columns
    of U are +-the old ones; the sign transform then puts them back, the
    Gram (kept exactly U^T G U) returns bit for bit, and the held GSO and
    `state.carry` are restored from copies (the GSO's shares its rows, as
    nothing edits a row in place).  The new columns are
    m11 v_prev + m21 w plus prefix vectors and m12 v_prev + m22 w, in
    swapped slots for a prefix zero, and the old columns of U are linearly
    independent: so the pair can return only when t is a signed
    permutation, diagonal without the swap and antidiagonal with it.  Only
    then are the columns and the state copied and compared (the clean-up
    may still have added prefix vectors); every other t is kept.  The row
    and rho of w, just size-reduced, are read from `state.carry`, where
    they are filed at pos; the front's, known from the pair's, reach its
    clean-up there too, and a front kept first leaves its reduced row and
    rho there for its next clean-up against the same prefix.
    """
    prev, pos = k - 2, k - 1
    u, gso = state.u, state.gso
    m11, m12, m21, m22 = t
    diagonal, antidiagonal = m12 == m21 == 0, m11 == m22 == 0
    old = held = carry = None
    if diagonal or antidiagonal:
        old = [[row[prev] for row in u], [row[pos] for row in u]]
        held, carry = GsoState(gso.lam[:], gso.dets[:], set(gso.bad), gso.pot[:]), dict(state.carry)
    # the front m11 v_prev + m21 w: its row through prev is m11 lam_prev +
    # m21 lam_w, and its residual there m21^2 times w's, as the v_prev part
    # lies in that prefix
    row, rho, _ = state.carry[pos]
    full = [m11 * x + m21 * y for x, y in zip(gso.lam[prev], row)]
    front = gso.row_before(prev, full, m21 * m21 * rho)
    state.col_transform2(prev, pos, t)
    state.carry[prev] = (*front, "front")
    front_row, front_rho, zero = cleanup_size_reduce(state, prev)
    if zero:
        state.cyclic_shift(prev, pos)
    if (antidiagonal if zero else diagonal):
        signs = []
        for j, was in zip((prev, pos), old):
            col = [row[j] for row in u]
            signs.append(1 if col == was else -1 if col == [-x for x in was] else 0)
        if 0 not in signs:
            state.col_transform2(prev, pos, (signs[0], 0, 0, signs[1]))
            state.gso, state.carry = held, carry
            return +1
    if not zero:
        state.carry[prev] = (front_row, front_rho, "kept")
    state.stats.swaps += 1
    return -1


def _swap_back(state: ReducerState, pos: int) -> None:
    """Swap the vector w at `pos`, just size-reduced against the prefix
    held in `state.gso` (through the scalar position pos - 1) and with its
    row and rho filed in `state.carry`, with the vector v before it, and
    carry both rows to their next clean-ups.
    Moved back, w's row and rho step back past pos - 1.  Moved forward, v
    keeps its row through pos - 2 and gains s = lam_{w,pos-1} against w,
    as D'_{pos-1} b(v, w*) = D'_{pos-1} b(v*_{pos-1}, w); its rho is w's,
    the Gram determinant of the same vectors in another order."""
    gso = state.gso
    row, rho, _ = state.carry[pos]
    prev = pos - 1
    back = gso.row_before(prev, row, rho)
    forward = gso.lam[prev][:prev] + [row[prev]]
    state.cyclic_shift(prev, pos)
    state.carry[prev] = (*back, "back")
    state.carry[pos] = (forward, rho, "forward")


def _lovasz_definite(state: ReducerState, k: int, n1: int, n2: int) -> int:
    """Definite projected block (N1, S, N2): swap on a gamma0 gain.

    The clean-up has already size-reduced the block, |S| <= |N1| / 2, so
    only N1 and N2 matter; they come as integers over a positive common
    denominator, and both comparisons are invariant under it.  A strict
    sub-gamma0 improvement is also taken (counted as a repair) so that
    final definite blocks satisfy |a| <= |c| exactly; each such swap
    still strictly lowers the integer-valued potential, so the loop
    cannot cycle on them.  A swap carries the rows of both vectors it
    moves to their next clean-ups (see `_swap_back`).
    """
    gamma0 = state.params.gamma0
    if abs(n2) < abs(n1):
        if not (abs(n2) * gamma0.denominator < gamma0.numerator * abs(n1)):
            state.stats.repairs += 1
        _swap_back(state, k - 1)
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
    # after size reduction a prefix zero is a zero residual with a zero lambda
    # row, and the clean-up filed that row in the carry
    if not any(state.carry[k - 1][0]):
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
        found = walk.scan(start, max_extra, gamma_gain)
        return [found] if found is not None else []

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


def vector_reduce(state: ReducerState, k: int) -> int:
    """Reduce the projected block at 1-based (k-1, k) of the vector at
    k-1, which `cleanup_size_reduce` has size-reduced against the prefix
    held in `state.gso` and whose row and rho are filed in `state.carry`.

    Under the sign strategy the new leading star norm is steered toward
    the sign opposite the previous scalar one.
    """
    row, rho, _ = state.carry[k - 1]
    n1, s, n2, den = state.gso.projected_block(k - 2, row[k - 2], rho)
    disc_alg = s * s - n1 * n2
    if disc_alg < 0:
        return _lovasz_definite(state, k, n1, n2)
    if disc_alg == 0:
        return integrate_adherent(state, k, n1, s, n2)
    want = _sign_target(state.gso, k - 2) if state.params.sign_strategy else None
    gamma0 = state.params.gamma0
    walk = IntegralWalk((n1, 2 * s, n2), den)
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
            state.cyclic_shift(p0, p1)
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
    return k - 1


# ---------------------------------------------------------------------------
# main loops
# ---------------------------------------------------------------------------


def _max_bits(rows: list[list[int]]) -> int:
    """Largest entry bit length of an integer matrix (0 if it is zero)."""
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _track_potential(state: ReducerState, prefix: int) -> None:
    if prefix < state._pot_max_dim:
        return
    pot = state.gso.running_potential
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
    gram_out = GramMatrix.trusted(state.gc)  # the state ends here
    check = state.g_in.congruence(state.u)
    if check != gram_out:
        raise InternalInvariantError("congruence lost: U^T G U differs from the working Gram")
    for i in range(rank, state.d):
        if any(gram_out.rows[i][j] != 0 for j in range(state.d)):
            raise InternalInvariantError(f"tail row {i} is not exactly zero")
    gso = auto_gso(gram_out, rank, state.gso, state.carry)
    # U^T G U = G' exactly gives det G' = det(U)^2 det G.  At full rank
    # det G' = gso.det is nonzero, so |det U| = 1 exactly when the two
    # Gram determinants agree, and G's costs less than U's large entries.
    if rank == state.d:
        unimodular = gso.det == mat_det(state.g_in.rows)
    else:
        unimodular = abs(mat_det(state.u)) == 1
    if not unimodular:
        raise InternalInvariantError("transform is not unimodular")
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
        for i in range(prefix, d):
            row, rho, prefix_zero = cleanup_size_reduce(state, i)
            if not prefix_zero:
                reported_pos = i
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
            # settled: the row came out of a clean-up against exactly this prefix
            state.carry[prefix] = (row, rho, "kept")
            if k == 1:
                k = 2
                continue
            if k >= 3 and (k - 3) in state.gso.bad:
                k = plane_reduce(state, k, incoming_pair=False)
            else:
                k = k + vector_reduce(state, k)
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
    a zero star norm aborts with IsotropicVectorError.  Each baseline
    refresh computes at most its last position, and a zero star norm
    there has no partner, so the build refuses it at its own index; a
    plane is refused all the same."""
    try:
        gso = state.refresh_prefix_gso(upto)
    except InadmissiblePrefixError as exc:
        raise IsotropicVectorError(exc.index) from None
    if gso.bad:
        raise IsotropicVectorError(min(gso.bad))
    return gso


def reduce_baseline(gram: GramMatrix, gamma0: Rational = Fraction(99, 100)) -> ReductionResult:
    """Classic LLL with absolute values around every squared-norm
    comparison (the Simon-style baseline).

    Standard Gram-Schmidt only: the first isotropic orthogonalized
    vector aborts the run with IsotropicVectorError.  A swap carries the
    rows of the two vectors it moves to their next size reductions, as
    the reducer's definite swap does.
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
        row, rho, _ = _take_row(state, pos)
        _size_reduce_below(state, pos, row, k - 1)
        state.carry[pos] = (row, rho, "kept")
        n_prev, _, proj, _ = gso.projected_block(k - 2, row[k - 2], rho)
        if abs(proj) * gamma0.denominator < gamma0.numerator * abs(n_prev):
            _swap_back(state, pos)
            state.stats.swaps += 1
            k = max(2, k - 1)
        else:
            k += 1
    _strict_gso(state, d)
    return _finalize(state, d)
