import collections
import copy
import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import fraction_walk as ref
from indeflll import reducer as red
from indeflll.analysis import kernel_split, verify_theorem_bound
from indeflll.errors import InadmissiblePrefixError, InternalInvariantError, IsotropicVectorError, LatticeError
from indeflll.generators import gen_hyperbolic_stack, gen_random_symmetric, gen_random_unimodular, gen_worstcase
from indeflll.gram import (
    GramMatrix,
    GsoState,
    auto_gso,
    mat_det,
    mat_transpose,
)
from indeflll.numerics import clear_denominators
from indeflll.qform import BQForm, IntegralWalk, Transform2, apply as qf_apply, is_reduced as qf_is_reduced
from indeflll.reducer import (
    ReducerParams,
    ReducerState,
    cleanup_size_reduce,
    first_unreduced_block,
    integrate_adherent,
    plane_reduce,
    reduce,
    reduce_baseline,
    vector_reduce,
)


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    """The plain matrix product, for building test inputs such as M C M^T."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def reduced_blocks_ok(result) -> bool:
    """All adjacent scalar/scalar projected blocks pass is_reduced."""
    return first_unreduced_block(auto_gso(result.reduced, result.rank)) is None


def random_symmetric(rng, d, bound):
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = rng.randrange(-bound, bound + 1)
    return GramMatrix(rows)


def test_identity_is_fixed():
    r = reduce(GramMatrix.identity(5))
    assert r.reduced == GramMatrix.identity(5)
    assert r.transform == [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert r.rank == 5


def test_single_hyperbolic_plane_is_fixed():
    h = GramMatrix([[0, 7], [7, 0]])
    r = reduce(h)
    assert r.reduced == h and r.rank == 2
    assert r.block_kinds == ["hyperbolic-adjacent"]


def test_params_validation():
    with pytest.raises(ValueError):
        ReducerParams(gamma0=Fraction(1))
    with pytest.raises(ValueError):
        ReducerParams(gamma0=Fraction(99, 100), gamma_h=Fraction(1, 2))
    p = ReducerParams(gamma_h=Fraction(1))
    assert p.gamma_h == 1
    with pytest.raises(ValueError):
        reduce(GramMatrix([[Fraction(1, 2)]]))


def test_rank_deficient_inputs():
    r = reduce(GramMatrix([[1, 1], [1, 1]]))
    assert r.rank == 1
    assert r.reduced.rows[1] == [0, 0] and r.reduced.rows[0][1] == 0
    r = reduce(GramMatrix.zeros(3))
    assert r.rank == 0 and r.reduced == GramMatrix.zeros(3)


def test_finalize_refuses_a_congruent_transform_that_is_not_unimodular():
    # U = 2I with the working Gram 4G passes the congruence check, so
    # only the unimodularity check can refuse it: at full rank through
    # the Gram determinants, below it through det U
    cases = (
        ([[1, 2], [2, -3]], 2),
        ([[0, 1], [1, 0]], 2),
        ([[2, 1, 0], [1, -1, 0], [0, 0, 0]], 2),
        ([[0, 0], [0, 0]], 0),
    )
    for rows, rank in cases:
        d = len(rows)
        state = ReducerState(GramMatrix(rows), ReducerParams())
        state.u = [[2 * (i == j) for j in range(d)] for i in range(d)]
        state.gc = [[4 * x for x in row] for row in rows]
        with pytest.raises(InternalInvariantError, match="transform is not unimodular"):
            red._finalize(state, rank)
        # det U = -1 is unimodular
        flip = [[(-1 if i == 0 else 1) * (i == j) for j in range(d)] for i in range(d)]
        state = ReducerState(GramMatrix(rows), ReducerParams())
        state.u, state.gc = flip, GramMatrix(rows).congruence(flip).copy_rows()
        assert red._finalize(state, rank).transform == flip


def _reference_addmul(u, gc, dst, src, coef):
    """v_dst += coef * v_src, multiplying out U's column, the Gram's column
    and then the Gram's row in full."""
    if coef == 0 or dst == src:
        return
    d = len(u)
    for r in range(d):
        u[r][dst] += coef * u[r][src]
    for i in range(d):
        gc[i][dst] = gc[i][dst] + coef * gc[i][src]
    row_dst, row_src = gc[dst], gc[src]
    for j in range(d):
        row_dst[j] = row_dst[j] + coef * row_src[j]


def _reference_transform2(u, gc, p, q, t):
    """(v_p, v_q) <- (m11 v_p + m21 v_q, m12 v_p + m22 v_q), multiplying out
    U's columns, the Gram's columns and then the Gram's rows in full."""
    m11, m12, m21, m22 = t
    d = len(u)
    for r in range(d):
        a, b = u[r][p], u[r][q]
        u[r][p] = m11 * a + m21 * b
        u[r][q] = m12 * a + m22 * b
    for i in range(d):
        a, b = gc[i][p], gc[i][q]
        gc[i][p] = m11 * a + m21 * b
        gc[i][q] = m12 * a + m22 * b
    rp, rq = gc[p], gc[q]
    for j in range(d):
        a, b = rp[j], rq[j]
        rp[j] = m11 * a + m21 * b
        rq[j] = m12 * a + m22 * b


def _reference_shift(u, gc, dst, src):
    for row in u + gc:
        row.insert(dst, row.pop(src))
    gc.insert(dst, gc.pop(src))


def test_basis_moves_match_the_multiply_add_reference():
    """Seeded random sequences of the three basis moves, on definite,
    indefinite and singular Grams and with 2x2 transforms of determinant
    +1 and -1, keep U and the working Gram equal bit for bit to moves
    that multiply out every moved row, keep the Gram symmetric and equal
    to U^T G U, and the two column moves keep every row list of it."""
    rng = random.Random(909)
    grams = []
    for d in (2, 3, 5, 7):
        b = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        while mat_det(b) == 0:
            b = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        signs = [1] * (d - d // 2) + [-1] * (d // 2)
        grams.append(GramMatrix(mat_mul(mat_transpose(b), b)))
        grams.append(GramMatrix(mat_mul(mat_transpose(b), [[s * x for x in row] for s, row in zip(signs, b)])))
        m = [[rng.randint(-2, 2) for _ in range(d - 1)] for _ in range(d)]
        core = random_symmetric(rng, d - 1, 5).rows
        grams.append(GramMatrix(mat_mul(m, mat_mul(core, mat_transpose(m)))))
    assert [mat_det(g.rows) == 0 for g in grams] == [False, False, True] * 4
    # det B^T diag(+-1) B has the sign (-1)^(d // 2)
    assert [mat_det(g.rows) < 0 for g in grams[1::3]] == [True, True, False, True]
    dets = set()
    for g in grams:
        d = g.dim
        state = ReducerState(g, ReducerParams())
        u, gc = [row[:] for row in state.u], g.copy_rows()
        for _ in range(60):
            kind = rng.randrange(3)
            p, q = rng.sample(range(d), 2)
            ids = [id(row) for row in state.gc]
            if kind == 0:
                coef = rng.randint(-3, 3)
                state.col_addmul(p, q, coef)
                _reference_addmul(u, gc, p, q, coef)
            elif kind == 1:
                t = Transform2(*rng.choice(((1, 0, 0, 1), (0, 1, 1, 0), (-1, 0, 0, 1), (0, -1, 1, 0))))
                for _ in range(rng.randrange(4)):
                    lam = rng.randint(-3, 3)
                    t = t.compose(Transform2(*rng.choice(((1, lam, 0, 1), (1, 0, lam, 1)))))
                t = t.entries()
                dets.add(t[0] * t[3] - t[1] * t[2])
                state.col_transform2(p, q, t)
                _reference_transform2(u, gc, p, q, t)
            else:
                p, q = min(p, q), max(p, q)
                state.cyclic_shift(p, q)
                _reference_shift(u, gc, p, q)
            if kind != 2:
                assert [id(row) for row in state.gc] == ids
            assert state.u == u and state.gc == gc
            assert all(state.gc[i][j] == state.gc[j][i] for i in range(d) for j in range(i))
            assert g.congruence(state.u).rows == state.gc
    assert dets == {1, -1}


def test_cleanup_ordinary_branch():
    # definite neighbor: plain nearest-integer reduction, tie toward zero
    g = GramMatrix([[2, 3], [3, 9]])
    st = ReducerState(g, ReducerParams())
    st.refresh_prefix_gso(1)
    cleanup_size_reduce(st, 1)
    assert abs(st.gc[0][1]) <= 1  # |product| <= N/2 = 1


def test_cleanup_special_case_s_zero():
    # S = 0 and N1 + N2 = 0: no shift at all
    g = GramMatrix([[3, 0], [0, -3]])
    st = ReducerState(g, ReducerParams())
    st.refresh_prefix_gso(1)
    cleanup_size_reduce(st, 1)
    assert st.gc[1][0] == 0 and st.gc[1][1] == -3


def test_cleanup_indefinite_window():
    # the clean-up lands the product inside the reduced window
    g = GramMatrix([[7, 5], [5, -7]])
    st = ReducerState(g, ReducerParams())
    st.refresh_prefix_gso(1)
    cleanup_size_reduce(st, 1)
    n1 = Fraction(st.gc[0][0])
    s = Fraction(st.gc[0][1])
    n2 = Fraction(st.gc[1][1])
    assert qf_is_reduced(BQForm(n1, 2 * s, n2))


def _clean_and_file(st, pos):
    """Size-reduce the vector at `pos` against the held prefix GSO and file
    its row and rho in the carry, as the main loop does for the vector it
    reports; returns the row and rho."""
    row, rho, _ = cleanup_size_reduce(st, pos)
    st.carry[pos] = (row, rho, "kept")
    return row, rho


def test_vector_reduce_trivial_plus_one():
    g = GramMatrix.identity(2)
    st = ReducerState(g, ReducerParams(sign_strategy=False))
    st.refresh_prefix_gso(1)
    _clean_and_file(st, 1)
    assert vector_reduce(st, 2) == +1
    assert st.gc == GramMatrix.identity(2).copy_rows()


def test_vector_reduce_shrinks_front():
    # [[4,0],[0,-1]]: the projected form (4, 0, -1) has square disc 16
    g = GramMatrix([[4, 0], [0, -1]])
    st = ReducerState(g, ReducerParams(sign_strategy=False))
    st.refresh_prefix_gso(1)
    _clean_and_file(st, 1)
    change = vector_reduce(st, 2)
    assert change == -1
    assert abs(st.gc[0][0]) <= 2
    # transform stayed congruent and unimodular
    assert g.congruence(st.u).rows == st.gc
    assert abs(mat_det(st.u)) == 1


def test_vector_reduce_keeps_sign_unreachable_block():
    # block [[1,3],[3,-6]] sits on a 2-cycle exchanging 1 and -6; with a
    # positive scalar in front no sign-correct shorter lead exists
    g = GramMatrix([[1, 0, 0], [0, 1, 3], [0, 3, -6]])
    r = reduce(g)
    assert r.rank == 3
    assert reduced_blocks_ok(r)
    assert abs(r.first_entry()) == 1


def test_integrate_adherent_gcd():
    # prefix diag(4), adherent vector with product 2 and norm 1
    g = GramMatrix([[4, 2], [2, 1]])
    st = ReducerState(g, ReducerParams())
    st.refresh_prefix_gso(1)
    row, rho = _clean_and_file(st, 1)
    change = integrate_adherent(st, 2, *st.gso.projected_block(0, row[0], rho)[:3])
    assert change == -1
    assert st.gc[0][0] == 1  # determinant dropped from 4 to 1
    assert st.stats.adherent_integrations == 1
    full = reduce(g)
    assert full.rank == 1 and abs(full.reduced.rows[0][0]) == 1


def test_integrate_adherent_rejects_prefix_zero():
    g = GramMatrix([[1, 1], [1, 1]])
    st = ReducerState(g, ReducerParams())
    st.refresh_prefix_gso(1)
    row, rho = _clean_and_file(st, 1)
    with pytest.raises(ValueError):
        integrate_adherent(st, 2, *st.gso.projected_block(0, row[0], rho)[:3])


def test_vector_coupled_to_plane_moves_in_front():
    # plane (cross 2) followed by a vector with a nonzero product
    # against the plane's first half: the vector moves in front and the
    # plane is destroyed (det = 0 here, so the rank drops to 2)
    g = GramMatrix([[0, 2, 3], [2, 0, 1], [3, 1, 3]])
    st = ReducerState(g, ReducerParams())
    st.refresh_prefix_gso(2)
    _clean_and_file(st, 2)
    new_k = plane_reduce(st, 3, incoming_pair=False)
    assert new_k == 1  # vector moved in front of the plane
    r = reduce(g)
    assert r.rank == 2
    assert reduced_blocks_ok(r)

    # the nonsingular shape [[0,a,b],[a,0,1],[b,1,0]] scaled to integers
    g2 = GramMatrix([[0, 2, 3], [2, 0, 1], [3, 1, 0]])
    r2 = reduce(g2)
    assert r2.rank == 3
    assert reduced_blocks_ok(r2)
    assert abs(r2.reduced.leading(3).det()) == 12


def test_plane_pair_swap():
    g = GramMatrix([
        [0, 5, 0, 0],
        [5, 0, 0, 0],
        [0, 0, 0, 3],
        [0, 0, 3, 0],
    ])
    r = reduce(g)  # gamma_h = 99/100: 99/100 * 5 > 3, so the planes swap
    assert abs(r.reduced.rows[0][1]) == 3
    assert abs(r.reduced.rows[2][3]) == 5
    # equal crosses stay put
    g2 = GramMatrix([
        [0, 3, 0, 0],
        [3, 0, 0, 0],
        [0, 0, 0, 3],
        [0, 0, 3, 0],
    ])
    assert reduce(g2).reduced == g2


def test_plane_vector_boundary_no_move():
    params = ReducerParams(gamma_h=Fraction(1))
    # plane then vector, alpha = beta = 0, |norm| = |cross| = 1
    g = GramMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    st = ReducerState(g, params)
    st.refresh_prefix_gso(2)
    _clean_and_file(st, 2)
    assert plane_reduce(st, 3, incoming_pair=False) == 4
    # vector then plane, same weights
    g2 = GramMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    st2 = ReducerState(g2, params)
    st2.refresh_prefix_gso(1)
    assert plane_reduce(st2, 2, incoming_pair=True) == 4
    assert reduce(g2, params).reduced == g2


def test_plane_then_vector_with_coupling_destroys_plane():
    # scaled alpha = 1/2 after the pair rule: the vector moves in front
    g = GramMatrix([[0, 2, 1], [2, 0, 0], [1, 0, 3]])
    st = ReducerState(g, ReducerParams())
    st.refresh_prefix_gso(2)
    _clean_and_file(st, 2)
    new_k = plane_reduce(st, 3, incoming_pair=False)
    assert new_k == 1
    assert st.gc[0][0] == 3  # the vector now leads
    r = reduce(g)
    assert reduced_blocks_ok(r) and r.rank == 3


def test_baseline_examples():
    r = reduce_baseline(GramMatrix.identity(5))
    assert r.reduced == GramMatrix.identity(5)
    with pytest.raises(IsotropicVectorError) as exc:
        reduce_baseline(GramMatrix([[0, 1], [1, 0]]))
    assert exc.value.index == 0
    with pytest.raises(ValueError):
        reduce_baseline(GramMatrix.identity(2), Fraction(3, 2))


def test_baseline_agrees_with_classic_lll_on_definite():
    rng = random.Random(55)
    for _ in range(10):
        d = rng.randrange(2, 5)
        m = [[rng.randrange(-4, 5) for _ in range(d)] for _ in range(d)]
        while abs(mat_det(m)) == 0:
            m = [[rng.randrange(-4, 5) for _ in range(d)] for _ in range(d)]
        g = GramMatrix(mat_mul(m, mat_transpose(m)))
        r = reduce_baseline(g)
        # definite: output must be classically size-reduced and ordered
        gso = auto_gso(r.reduced)
        norms = [Fraction(gso.dets[i], gso.before(i)) for i in range(d)]
        for i in range(d - 1):
            assert norms[i + 1] >= (Fraction(99, 100) - Fraction(1, 4)) * norms[i]


def test_baseline_carries_the_swapped_vector_row(monkeypatch):
    """On 20 dense positive definite d = 12 inputs B^T B (B uniform in
    [-2, 2]), building the row of every vector a swap moves took 3 864
    `GsoState.lambda_row` calls over 1 812 swaps; carrying the row of the vector
    it moves back, the baseline took 2 131, and carrying that of the
    vector it moves forward too, 1 550.  The guard is 60 % of the first
    figure."""
    rng = random.Random(12)
    d = 12
    grams = []
    for _ in range(20):
        b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        grams.append(GramMatrix(mat_mul(mat_transpose(b), b)))
    calls = [0]
    build = GsoState.lambda_row

    def counted(*args):
        calls[0] += 1
        return build(*args)

    monkeypatch.setattr(GsoState, "lambda_row", counted)
    swaps = sum(reduce_baseline(g).stats.swaps for g in grams)
    assert swaps == 1812 and 5 * calls[0] <= 3 * 3864, calls


def _baseline_corpus():
    """The Grams B^T diag(1, -1) B of the 625 2x2 matrices B with entries
    in [-2, 2], and small dense random symmetric inputs."""
    for b11, b12, b21, b22 in itertools.product(range(-2, 3), repeat=4):
        p, q, r = b11 * b11 - b21 * b21, b11 * b12 - b21 * b22, b12 * b12 - b22 * b22
        yield GramMatrix([[p, q], [q, r]])
    for d, bound, seed in itertools.product(range(3, 7), (1, 2), range(40)):
        yield gen_random_symmetric(d, bound, seed)


def test_baseline_outputs_are_pinned():
    """The baseline's outputs on `_baseline_corpus`, under gamma0 = 99/100
    and 1/5, and the index of every IsotropicVectorError, as the build
    with a strict mode, which refused any zero star norm, gave them.  A
    zero star norm swaps back to the front unless gamma0 < 1/4, so only
    the small gamma0 meets one past position 0."""
    digest, indices = hashlib.sha256(), collections.Counter()
    for gamma0 in (Fraction(99, 100), Fraction(1, 5)):
        for g in _baseline_corpus():
            try:
                r = reduce_baseline(g, gamma0)
            except IsotropicVectorError as exc:
                indices[exc.index] += 1
                out = exc.index
            else:
                out = (r.reduced.rows, r.transform, r.stats.swaps)
            digest.update(repr(out).encode())
    assert indices == {0: 1089, 1: 8, 2: 1, 3: 1}
    assert digest.hexdigest() == "5c1fdf2d1cb29505a9e583a982fb510672ccc4131a3688b6025cee0cf0647ff4"


def test_baseline_refreshes_compute_at_most_their_last_position(monkeypatch):
    """So a zero star norm the baseline meets has no partner in its build,
    and the ordinary GSO refuses it at the index a build with no planes
    would."""
    refresh = ReducerState.refresh_prefix_gso
    seen = collections.Counter()

    def checked(self, prefix):
        # the moves cut the held state, and a baseline prefix has no plane
        keep = min(self.gso.upto, prefix) if self.gso is not None else 0
        assert keep >= prefix - 1, (prefix, keep)
        seen[prefix - keep] += 1
        try:
            held = refresh(self, prefix)
        except InadmissiblePrefixError as exc:
            assert exc.index == prefix - 1
            seen["refused"] += 1
            raise
        assert held.reused == keep and not held.bad
        return held

    monkeypatch.setattr(ReducerState, "refresh_prefix_gso", checked)
    for gamma0 in (Fraction(99, 100), Fraction(1, 5)):
        for g in itertools.chain(_baseline_corpus(), _exactness_corpus()):
            try:
                reduce_baseline(g, gamma0)
            except IsotropicVectorError:
                pass
    # 1 099 of the refusals are those of `test_baseline_outputs_are_pinned`
    assert seen[0] > 500 and seen[1] > 4000 and seen["refused"] == 1132, seen


def test_idempotence():
    rng = random.Random(71)
    for trial in range(12):
        d = rng.randrange(2, 7)
        g = random_symmetric(rng, d, 30)
        for sign in (False, True):
            r = reduce(g, ReducerParams(sign_strategy=sign))
            again = reduce(r.reduced, ReducerParams(sign_strategy=sign))
            assert again.reduced == r.reduced, (g.rows, sign)


def test_random_invariants_small():
    rng = random.Random(99)
    for trial in range(60):
        d = rng.randrange(2, 7)
        g = random_symmetric(rng, d, 60)
        for sign in (False, True):
            r = reduce(g, ReducerParams(sign_strategy=sign))
            # congruence and unimodularity are checked internally; repeat
            # the congruence here against an independent multiply
            assert g.congruence(r.transform) == r.reduced
            assert abs(mat_det(r.transform)) == 1
            assert reduced_blocks_ok(r), (g.rows, sign)
            assert r.stats.potential_violations == 0
            for i in range(r.rank, d):
                assert all(x == 0 for x in r.reduced.rows[i])


def test_stats_are_populated():
    rng = random.Random(123)
    g = random_symmetric(rng, 6, 50)
    r = reduce(g)
    assert r.stats.loop_iterations > 0
    assert r.stats.position_reports > 0


def test_alternate_parameters_keep_invariants():
    rng = random.Random(321)
    variants = [
        ReducerParams(gamma_h=Fraction(1)),
        ReducerParams(gamma0=Fraction(3, 4)),
        ReducerParams(gamma0=Fraction(3, 4), sign_strategy=False, max_extra=2),
        ReducerParams(max_extra=0),
    ]
    for trial in range(10):
        d = rng.randrange(2, 7)
        g = random_symmetric(rng, d, 40)
        for params in variants:
            r = reduce(g, params)
            assert g.congruence(r.transform) == r.reduced
            assert abs(mat_det(r.transform)) == 1
            for i in range(r.rank, d):
                assert all(x == 0 for x in r.reduced.rows[i])
            assert r.stats.potential_violations == 0


def _exactness_corpus():
    """Criterion 2 inputs, dense B^T diag(+-1) B, scrambled hyperbolic
    stacks and rank-deficient M C M^T."""
    rng = random.Random(2024)
    out = [gen_worstcase(5).congruence(gen_random_unimodular(10, 30, seed)) for seed in range(2)]
    d = 12
    for q in (0, 2, 5):
        b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        signs = [1] * (d - q) + [-1] * q
        out.append(GramMatrix([[sum(signs[k] * b[k][i] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)]))
    for i in range(8):
        n = 1 + i % 3
        alphas = [rng.choice((1, 2, 3, -2)) for _ in range(n)]
        out.append(gen_hyperbolic_stack(n, alphas).congruence(gen_random_unimodular(3 * n, 20, 700 + i)))
    for i in range(8):
        d = rng.randrange(3, 7)
        rk = rng.randrange(1, d)
        m = [[rng.randint(-2, 2) for _ in range(rk)] for _ in range(d)]
        core = [[0] * rk for _ in range(rk)]
        for a in range(rk):
            for c in range(a, rk):
                core[a][c] = core[c][a] = rng.randint(-6, 6)
        out.append(GramMatrix(mat_mul(m, mat_mul(core, mat_transpose(m)))))
    return out


def _criterion_2_inputs():
    return [gen_worstcase(5).congruence(gen_random_unimodular(10, 30, seed)) for seed in range(10)]


def test_outputs_are_pinned():
    """Everything `reduce` (under both strategies) and `reduce_baseline`
    return or raise on the exactness corpus, the 2x2 box in [-3, 3] and
    the first 10 criterion 2 inputs hashes to a committed digest: the
    reduced rows, U, the rank, the block kinds, every stats field but the
    lambda row counters, and an error's type, message and index.  The
    row counters are pinned by their sums."""
    box = [GramMatrix([[a, b], [b, c]]) for a, b, c in itertools.product(range(-3, 4), repeat=3)]
    scrambled = _criterion_2_inputs()
    runs = (reduce, lambda g: reduce(g, ReducerParams(sign_strategy=False)), reduce_baseline)
    digest, rows = hashlib.sha256(), collections.Counter()
    for g in _exactness_corpus() + box + scrambled:
        for run in runs:
            try:
                r = run(g)
            except LatticeError as exc:
                out = (type(exc).__name__, str(exc), getattr(exc, "index", None))
            else:
                stats = dataclasses.asdict(r.stats)
                rows["built"] += stats.pop("rows_built")
                rows.update(stats.pop("rows_carried"))
                out = (r.reduced.rows, r.transform, r.rank, r.block_kinds, tuple(stats.values()))
            digest.update(repr(out).encode())
    assert digest.hexdigest() == "bb674ee44afbd9e369713bc94cca9faa5669e7feca328191b9279597e9f0b350"
    assert rows == {"built": 6734, "front": 3342, "kept": 3250, "back": 1677, "forward": 850}, rows


@pytest.fixture
def checked_refresh(monkeypatch):
    """After every prefix GSO refresh, compare the held state with a GSO
    built from scratch on the same Gram, and an inadmissible prefix with
    the error a fresh build raises."""
    original = ReducerState.refresh_prefix_gso
    seen = {"refreshes": 0, "positions": 0, "computed": 0}

    def fresh(state, prefix):
        return auto_gso(GramMatrix(state.gc), prefix)

    def refresh(self, prefix):
        try:
            held = original(self, prefix)
        except InadmissiblePrefixError as exc:
            with pytest.raises(InadmissiblePrefixError) as again:
                fresh(self, prefix)
            assert (str(again.value), again.value.index) == (str(exc), exc.index)
            raise
        # dataclass equality: the extent, lambda rows, determinants and
        # planes, all but the `reused` count
        assert held == fresh(self, prefix)
        assert held is self.gso
        seen["refreshes"] += 1
        seen["positions"] += prefix
        seen["computed"] += prefix - held.reused
        return held

    monkeypatch.setattr(ReducerState, "refresh_prefix_gso", refresh)
    return seen


def test_incremental_prefix_gso_is_exact(checked_refresh):
    for g in _exactness_corpus():
        for params in (ReducerParams(), ReducerParams(sign_strategy=False)):
            before = checked_refresh["computed"]
            r = reduce(g, params)
            assert g.congruence(r.transform) == r.reduced
            assert r.stats.gso_positions == checked_refresh["computed"] - before
        try:
            reduce_baseline(g)
        except LatticeError:
            pass
    assert checked_refresh["refreshes"] > 1000
    # rebuilding every prefix in full would compute `positions` star vectors
    assert 3 * checked_refresh["computed"] < checked_refresh["positions"]


def test_incremental_prefix_gso_keeps_fault_b(checked_refresh):
    """A refresh over an inadmissible prefix keeps the message and index a
    fresh build gives (see `checked_refresh`).  The refusing build has
    taken the held state over and left it half extended, so the state
    holds no GSO afterwards.  The prefixes are built inadmissible on
    purpose behind an admissible one held first: the adherent vector after
    a plane that fault (b) left unintegrated, and a zero star norm whose
    partner is no hyperbolic pair."""
    for rows, held, prefix, index, message in (
        ([[4, 0, 0, 2], [0, 0, 1, 0], [0, 1, 0, 0], [2, 0, 0, 1]], 3, 4, 3,
         "isolated isotropic star vector at position 3"),
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], 1, 3, 1, "positions 1, 2 do not form a hyperbolic pair"),
    ):
        state = ReducerState(GramMatrix(rows), ReducerParams())
        state.refresh_prefix_gso(held)
        with pytest.raises(InadmissiblePrefixError) as exc:
            state.refresh_prefix_gso(prefix)
        assert (exc.value.index, str(exc.value)) == (index, f"inadmissible prefix: {message}")
        assert state.gso is None
    assert checked_refresh["refreshes"] == 2


def test_gso_and_size_reduction_create_no_fraction(monkeypatch):
    """The prefix GSO of an integral Gram and the size reduction against
    it run on integers alone."""
    g = gen_worstcase(5).congruence(gen_random_unimodular(10, 30, 0))
    st = ReducerState(g, ReducerParams())
    gram = GramMatrix(st.gc)
    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    # v_3 = v_0 + v_1 - v_2 in the rank-deficient M C M^T: a prefix zero
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]
    c = [[2, 1, 0], [1, -3, 1], [0, 1, 1]]
    deficient = ReducerState(GramMatrix(mat_mul(m, mat_mul(c, mat_transpose(m)))), ReducerParams())

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    full = auto_gso(gram)
    st.refresh_prefix_gso(9)
    before = [row[:] for row in st.gc]
    _, rho, prefix_zero = cleanup_size_reduce(st, 9)
    deficient.refresh_prefix_gso(3)
    zero_row, zero_rho, zero = cleanup_size_reduce(deficient, 3)
    monkeypatch.undo()
    assert created == []
    assert full.upto == 10 and rho != 0 and not prefix_zero
    assert st.gc != before  # the clean-up did move the vector
    assert zero and zero_rho == 0 and zero_row == [0] * 3 and deficient.gc[3] == [0] * 4
    assert Fraction(5) == 5  # the counter is gone again


def test_gso_positions_counts_computed_star_vectors():
    g = GramMatrix.identity(4)
    r = reduce(g)
    # prefixes 0..3 of an unchanged Gram: each star vector is computed once
    assert r.stats.loop_iterations == 4 and r.stats.gso_positions == 3


def test_gso_builds_take_exact_rows_from_the_carry(monkeypatch):
    """Every lambda row and scaled residual the reducer's carry offers a
    GSO build, in the prefix refreshes and the final build of both
    strategies and the baseline on the exactness corpus, equals the pair
    Cohen's recursion builds on the same Gram for that vector against the
    positions before it, planes of the prefix included; so does each row
    a build takes, at a position it computes, in place of the recursion."""
    build = red.auto_gso
    seen = collections.Counter()

    def checked(gram, upto, previous, known):
        planes = {}  # position -> whether the prefix before it holds a plane
        for p, (row, rho, _) in known.items():
            prefix, w = build(gram, p), gram.rows[p]
            assert row == prefix.lambda_row(w)
            assert rho == prefix.scaled_residual(row, w[p])
            planes[p] = bool(prefix.bad)
        built = build(gram, upto, previous, known)
        for p, plane in planes.items():
            taken = built.reused <= p < upto  # p - 1 ends a block, so p is no plane's second
            seen["rows"] += 1
            seen["planes"] += plane
            seen["taken"] += taken
            seen["taken_planes"] += taken and plane
        return built

    monkeypatch.setattr(red, "auto_gso", checked)
    for g in _exactness_corpus():
        for params in (ReducerParams(), ReducerParams(sign_strategy=False)):
            reduce(g, params)
        try:
            reduce_baseline(g)
        except LatticeError:
            pass
    assert seen["rows"] > 3000 and seen["planes"] > 500, seen
    assert seen["taken"] > 1500 and seen["taken_planes"] > 200, seen


def test_held_gso_is_exact_after_every_move(monkeypatch):
    """After every basis move, in both strategies and the baseline, on the
    exactness corpus and on scrambled hyperbolic stacks, the held GSO
    equals one built afresh on the current Gram through the same extent
    (every field but `reused`): each move cuts it where it changes the
    Gram, planes whole.  After every build, every cut and every rollback
    of a placement, its lists hold one entry per position."""
    fresh = {}  # leading rows through the diagonal -> the GSO built from them
    seen = collections.Counter()

    def one_entry_per_position(gso):
        assert len(gso.lam) == len(gso.dets) == gso.upto
        assert all(j + 1 < gso.upto for j in gso.bad)

    def checked(move):
        def wrapper(state, *args):
            upto = state.gso.upto
            move(state, *args)
            gso = state.gso
            one_entry_per_position(gso)
            key = tuple(tuple(row[: i + 1]) for i, row in enumerate(state.gc[: gso.upto]))
            if key not in fresh:
                fresh[key] = auto_gso(GramMatrix(state.gc), gso.upto)
            assert gso == fresh[key]
            seen["moves"] += 1
            seen["cuts"] += gso.upto < upto
            seen["planes"] += bool(gso.bad)
        return wrapper

    def checked_refresh(state, prefix):
        held = refresh(state, prefix)
        one_entry_per_position(held)
        seen["builds"] += 1
        return held

    def checked_place(state, k, t):
        change = place(state, k, t)
        if change == +1:
            one_entry_per_position(state.gso)
            seen["rollbacks"] += 1
        return change

    for name in ("col_addmul", "col_transform2", "cyclic_shift"):
        monkeypatch.setattr(ReducerState, name, checked(getattr(ReducerState, name)))
    refresh, place = ReducerState.refresh_prefix_gso, red._place_transformed_pair
    monkeypatch.setattr(ReducerState, "refresh_prefix_gso", checked_refresh)
    monkeypatch.setattr(red, "_place_transformed_pair", checked_place)
    rng = random.Random(5)
    stacks = []
    for seed in range(16):
        alphas = [rng.choice((1, 2, 3, -2, -3)) for _ in range(2 + seed % 3)]
        stacks.append(_scrambled_stack(len(alphas), alphas, 20, 1100 + seed))
    for g in _exactness_corpus() + stacks:
        for params in (ReducerParams(), ReducerParams(sign_strategy=False)):
            reduce(g, params)
        try:
            reduce_baseline(g)
        except LatticeError:
            pass
    # measured: 14 230 moves, 2 205 of them cut the held GSO, 2 743 with planes held
    assert seen["moves"] > 12000 and seen["cuts"] > 1800 and seen["planes"] > 2000, seen
    # and 4 710 builds, 60 placements rolled back
    assert seen["builds"] > 4000 and seen["rollbacks"] > 40, seen


def test_carried_rows_are_exact(monkeypatch):
    """Every lambda row and scaled residual a move carries into a size
    reduction equals the pair Cohen's recursion builds for that vector
    against that prefix, from each source: the vectors a definite swap
    moves back and forward (in the reducer and the baseline), a
    placement's fresh front, and a kept front at its next clean-up."""
    take = red._take_row
    seen = collections.Counter()

    def checked_take(state, pos):
        gso = state.gso
        carried = state.carry.get(pos) if gso.upto == pos else None
        if carried is not None:
            w = state.gc[pos]
            row, rho, source = carried
            assert row == gso.lambda_row(w)
            assert rho == gso.scaled_residual(row, w[pos])
            seen[source] += 1
        return take(state, pos)

    monkeypatch.setattr(red, "_take_row", checked_take)
    for g in _exactness_corpus() + _criterion_2_inputs():
        for params in (ReducerParams(), ReducerParams(sign_strategy=False)):
            reduce(g, params)
        try:
            reduce_baseline(g)
        except LatticeError:
            pass
    # measured: 1 651 back, 733 forward, 3 074 fronts and 3 016 kept fronts
    assert seen["back"] > 1300 and seen["forward"] > 600, seen
    assert seen["front"] > 2500 and seen["kept"] > 2500, seen


def test_carried_rows_halve_the_lambda_row_builds(monkeypatch):
    """On the first 10 criterion 2 inputs under both strategies, building
    every clean-up's row took 8 312 `GsoState.lambda_row` calls (and 26 466
    `nearest_div` calls in the reducer); carrying the rows the moves know
    takes 2 755 (and 17 117, a coefficient that rounds to 0 being no
    longer divided out)."""
    calls = {"rows": 0, "rounding": 0}
    build, nearest = GsoState.lambda_row, red.nearest_div

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(GsoState, "lambda_row", counted("rows", build))
    monkeypatch.setattr(red, "nearest_div", counted("rounding", nearest))
    for g in _criterion_2_inputs():
        for params in (ReducerParams(), ReducerParams(sign_strategy=False)):
            reduce(g, params)
    assert 2 * calls["rows"] <= 8312 and calls["rounding"] < 26466, calls


def _dense_signature_corpus():
    """B^T J B for B uniform in [-2, 2] and J = diag(+1^(d-q), -1^q), at
    d = 12 .. 16 and q = 0, 1, 2 (signature d down to 3d/4)."""
    rng = random.Random(22)
    for d in range(12, 17):
        for q in (0, 1, 2):
            b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            signs = [1] * (d - q) + [-1] * q
            yield GramMatrix([[sum(signs[k] * b[k][i] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)])


def test_forward_rows_cut_the_lambda_row_builds(monkeypatch):
    """On `_dense_signature_corpus`, the sign strategy on every other
    input, the reducer made 1 922 `GsoState.lambda_row` calls when a definite
    swap carried only the row of the vector it moves back; carrying the
    row of the vector it moves forward too, it made 1 311 over 1 631
    swaps, and with the sign strategy's either-sign fallback 1 313 over
    1 622.  The guard asks for 20 % fewer than the first figure."""
    calls = [0]
    build = GsoState.lambda_row

    def counted(*args):
        calls[0] += 1
        return build(*args)

    monkeypatch.setattr(GsoState, "lambda_row", counted)
    swaps = sum(reduce(g, ReducerParams(sign_strategy=i % 2 == 0)).stats.swaps
                for i, g in enumerate(_dense_signature_corpus()))
    assert swaps == 1622 and 5 * calls[0] <= 4 * 1922, calls


def test_zero_dimension_results():
    for run in (reduce, reduce_baseline):
        res = run(GramMatrix([]))
        assert (res.rank, res.block_kinds, res.transform, res.reduced.rows) == (0, [], [], [])
        assert res.first_entry() == 0 and res.sum_definite_exponent() == 0


def test_track_potential_counts_drops_and_rises_at_the_longest_prefix(monkeypatch):
    """A potential is compared only at the longest prefix seen so far:
    the first step there sets it, a fall counts a drop and a rise a
    violation, and a shorter prefix is not read."""
    values = iter([(5, 1), (9, 2), (14, 3), (2, 1)])
    monkeypatch.setattr(GsoState, "potential", lambda gso: next(values))
    state = ReducerState(GramMatrix.identity(3), ReducerParams())
    state.refresh_prefix_gso(2)
    for prefix in (2, 2, 1, 2, 2):
        red._track_potential(state, prefix)
    assert (state.stats.potential_drops, state.stats.potential_violations) == (2, 1)


def test_running_potential_matches_a_fresh_product(monkeypatch):
    """On the exactness corpus and on scrambled hyperbolic stacks, with
    planes held at many potential steps, each input keeps its pinned
    potential drops and no violation."""
    track = red._track_potential
    seen = collections.Counter()

    def checked(state, prefix):
        gso = state.gso
        seen["steps"] += 1
        seen["planes"] += bool(gso.bad)
        return track(state, prefix)

    monkeypatch.setattr(red, "_track_potential", checked)
    stacks = []
    for seed in range(24):
        rng = random.Random(seed)
        n = 2 + seed % 3
        alphas = [rng.choice((1, 2, 3, -2, -3)) for _ in range(n)]
        stacks.append(gen_hyperbolic_stack(n, alphas).congruence(gen_random_unimodular(3 * n, 20, 900 + seed)))
    drops = []
    for g in _exactness_corpus() + stacks:
        for params in (ReducerParams(), ReducerParams(sign_strategy=False)):
            stats = reduce(g, params).stats
            assert stats.potential_violations == 0
            drops.append(stats.potential_drops)
    pinned = [  # the exactness corpus, then the stacks, each under both strategies
        29, 38, 39, 37, 14, 14, 10, 28, 30, 46, 1, 2, 2, 2, 3, 3, 2, 2, 5, 5, 12, 15, 4, 4,
        9, 7, 1, 1, 0, 0, 1, 1, 1, 1, 2, 2, 4, 4, 0, 0, 0, 0,
        6, 6, 14, 6, 10, 11, 5, 5, 8, 11, 16, 16, 8, 6, 9, 10, 11, 13, 7, 7, 8, 8, 4, 5,
        6, 8, 4, 5, 5, 5, 3, 2, 12, 16, 8, 10, 0, 0, 3, 4, 12, 14, 5, 6, 4, 4, 8, 11,
    ]
    assert drops == pinned
    assert seen["steps"] > 3000 and seen["planes"] > 500, seen


def test_clean_up_decides_once(monkeypatch):
    """The clean-up's size reduction is the only one: whole reductions with
    adherent integrations build no coefficient vector theta, and every
    definite block reaches `_lovasz_definite` already size-reduced,
    2 |S| <= |N1|."""
    lovasz = red._lovasz_definite
    seen = {"adherent": 0, "definite": 0}

    def no_theta(self, products, norm):
        raise AssertionError("theta built during a reduction")

    def checked_lovasz(state, k, n1, n2):
        gso, w = state.gso, state.gc[k - 1]
        row = gso.lambda_row(w)
        block = gso.projected_block(k - 2, row[k - 2], gso.scaled_residual(row, w[k - 1]))
        assert block[::2] == (n1, n2) and 2 * abs(block[1]) <= abs(n1)
        seen["definite"] += 1
        return lovasz(state, k, n1, n2)

    monkeypatch.setattr(GsoState, "theta_and_residual_norm", no_theta)
    monkeypatch.setattr(red, "_lovasz_definite", checked_lovasz)
    for g in _exactness_corpus():
        for params in (ReducerParams(), ReducerParams(sign_strategy=False)):
            seen["adherent"] += reduce(g, params).stats.adherent_integrations
    assert seen["adherent"] > 0 and seen["definite"] > 100, seen


def test_rolled_back_placements_restore_the_state(monkeypatch):
    """A placement is rolled back exactly when it returns the old pair up to
    signs, which only a signed-permutation transform can; then it leaves
    U, the Gram, the held GSO and the carry as it found them (equal Grams
    do not pin U when G is singular).  The moves cut the held GSO no
    earlier than they change the Gram: each refresh reuses what a full
    comparison with a copy of the Gram at the last refresh would reuse."""
    place, refresh = red._place_transformed_pair, ReducerState.refresh_prefix_gso
    seen = {"rollbacks": 0, "refreshes": 0}
    refreshed = {}  # state -> its Gram, and the extent and planes of its GSO, at its last refresh

    def checked_place(state, k, t):
        before = ([row[:] for row in state.u], [row[:] for row in state.gc], dict(state.carry),
                  copy.deepcopy(state.gso))
        change = place(state, k, t)
        pair = [([row[j] for row in before[0]], [row[j] for row in state.u]) for j in (k - 2, k - 1)]
        if change == +1:
            assert (state.u, state.gc, state.carry, state.gso) == before
            assert tuple(map(abs, t)) in ((1, 0, 0, 1), (0, 1, 1, 0))  # a signed permutation
            seen["rollbacks"] += 1
        else:  # a kept pair never returns up to signs
            assert not all(new in (old, [-x for x in old]) for old, new in pair)
        return change

    def checked_refresh(self, prefix):
        want = 0
        if self.gso is not None:
            old, upto, bad = refreshed[self]
            keep = min(prefix, upto)
            changed = next((i for i in range(keep) if self.gc[i][: i + 1] != old[i][: i + 1]), keep)
            want = changed - 1 if changed and (changed - 1) in bad else changed  # no split plane
        held = refresh(self, prefix)
        assert held.reused == want
        refreshed[self] = ([row[:] for row in self.gc], held.upto, set(held.bad))
        seen["refreshes"] += 1
        return held

    monkeypatch.setattr(red, "_place_transformed_pair", checked_place)
    monkeypatch.setattr(ReducerState, "refresh_prefix_gso", checked_refresh)
    # 3x3 box inputs with rolled-back placements
    grams = [GramMatrix(rows) for rows in (
        [[-2, -2, -1], [-2, -2, 2], [-1, 2, 0]],
        [[-2, -2, -1], [-2, 0, -1], [-1, -1, 0]],
        [[-2, -2, 0], [-2, -2, -1], [0, -1, 2]],
    )]
    for g in grams + _exactness_corpus():
        for params in (ReducerParams(), ReducerParams(sign_strategy=False)):
            reduce(g, params)
        try:
            reduce_baseline(g)
        except LatticeError:
            pass
    assert seen["rollbacks"] > 10 and seen["refreshes"] > 1000


@pytest.fixture(scope="module")
def recorded_blocks():
    """The projected forms (with the sign target) of every candidate walk
    and the (N1, S, N2) of every clean-up rule met while reducing the
    exactness corpus under both strategies: criterion 2 inputs, dense
    d = 12, scrambled hyperbolic stacks and rank-deficient inputs.  The
    reducer passes the clean-up blocks as integers, times their positive
    common denominator."""
    forms, triples = {}, set()
    candidates, cleanup = red._indefinite_candidates, red._cleanup_lambda

    def record_candidates(walk, gamma0, max_extra, want_sign):
        forms.setdefault(walk.boundary(walk.start, (1, 0, 0, 1))[0], want_sign)
        return candidates(walk, gamma0, max_extra, want_sign)

    def record_cleanup(n1, s, n2):
        triples.add((n1, s, n2))
        return cleanup(n1, s, n2)

    red._indefinite_candidates, red._cleanup_lambda = record_candidates, record_cleanup
    try:
        for g in _exactness_corpus():
            for params in (ReducerParams(), ReducerParams(sign_strategy=False)):
                reduce(g, params)
    finally:
        red._indefinite_candidates, red._cleanup_lambda = candidates, cleanup
    return forms, triples


def _candidate_key(candidates):
    """Reference candidates as the int tuples the reducer's walk returns."""
    return [(f.coeffs(), t.entries()) for f, t in candidates]


def _composing_candidates(walk, gamma0, max_extra, want_sign):
    """The candidate search with the reduced-input scan taking its forms
    from `walk.cycle`, which composes the transform at every step.  An
    unreduced start goes to the reducer's own branch, which walks that
    way already."""
    start = walk.start
    if not walk.is_reduced(start):
        return red._indefinite_candidates(walk, gamma0, max_extra, want_sign)
    a0 = abs(start[0])
    bound = gamma0.numerator * a0
    seen, either = {start}, []
    for f, t in walk.cycle(start, max_extra):
        if f in seen:
            break
        if abs(f[0]) * gamma0.denominator < bound:
            if want_sign is None or f[0] * want_sign <= 0:
                return [(f, t)]
            either = either or [(f, t)]
        seen.add(f)
    # under the sign strategy the first gain of either sign, when disc < 4 gamma0 a0^2
    return either if walk.disc * gamma0.denominator < 4 * bound * a0 else []


def test_candidates_match_fraction_walk(recorded_blocks):
    """The integer candidate walk returns the Fraction walk's list, in its
    order, on recorded and random blocks, for every sign target, walk
    length and two quality factors, and takes the steps of a walk that
    composes every transform it passes."""
    forms, _ = recorded_blocks
    rng = random.Random(4242)
    recorded = list(forms.items())
    rational = sum(1 for f, _ in recorded if any(isinstance(x, Fraction) for x in f.coeffs()))
    assert len(recorded) > 400 and rational > 100
    blocks = [f for f, _ in rng.sample(recorded, 400)] + ref.sample_forms(rng, 400)
    blocks += ref.sample_forms(rng, 40, bound=1 << 40)
    nonempty = scanned = 0
    for f in blocks:
        for want in (None, 1, -1):
            for max_extra in (0, 2, 12):
                for gamma0 in (Fraction(99, 100), Fraction(1, 2)):
                    num = clear_denominators(f.coeffs())
                    walk, composing = IntegralWalk(*num), IntegralWalk(*num)
                    got = red._indefinite_candidates(walk, gamma0, max_extra, want)
                    expected = ref.indefinite_candidates(f, gamma0, max_extra, want)
                    assert got == _candidate_key(expected), (f, want, max_extra, gamma0)
                    assert got == _composing_candidates(composing, gamma0, max_extra, want)
                    assert walk.steps == composing.steps, (f, want, max_extra, gamma0)
                    nonempty += bool(got)
                    scanned += walk.is_reduced(walk.start) and walk.steps > 0
    # reads 8 637 and 4 536 on 840 blocks
    assert nonempty > len(blocks) and scanned > 2 * len(blocks), (nonempty, scanned)


def test_cleanup_lambda_matches_fraction_rule():
    # random blocks, with N2 = 0, N2 = -N1 and disc = 0 among them
    rng = random.Random(8080)
    for _ in range(3000):
        n1 = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 60), rng.randrange(1, 9))
        s = Fraction(rng.randrange(-60, 61), rng.randrange(1, 9))
        n2 = rng.choice((Fraction(0), -n1, s * s / n1, Fraction(rng.randrange(-60, 61), rng.randrange(1, 9))))
        # the reducer's rule takes the block as integers over a positive
        # common denominator; the reference takes the Fractions
        block, _ = clear_denominators((n1, s, n2))
        assert red._cleanup_lambda(*block) == ref.cleanup_lambda(n1, s, n2), (n1, s, n2)


def test_cleanup_lambda_matches_fraction_rule_on_recorded_blocks(recorded_blocks):
    _, triples = recorded_blocks
    assert len(triples) > 1000
    for n1, s, n2 in triples:
        # the reference rule divides, so it takes the block as Fractions
        expected = ref.cleanup_lambda(Fraction(n1), Fraction(s), Fraction(n2))
        assert red._cleanup_lambda(n1, s, n2) == expected, (n1, s, n2)


def test_reduced_walk_stops_at_the_first_repeated_form():
    # (1, 2, -1) and (-1, 2, 1) make up the whole cycle of disc 8: after
    # two moves the reduced-input walk is back at its start
    walk = IntegralWalk((1, 2, -1))
    assert red._indefinite_candidates(walk, Fraction(99, 100), 12, None) == []
    assert walk.steps == 2
    assert ref.indefinite_candidates(BQForm(1, 2, -1), Fraction(99, 100), 12, None) == []


def test_walk_steps_count_binary_form_moves():
    # no indefinite block ever forms on a positive definite input
    g = GramMatrix.identity(6).congruence(gen_random_unimodular(6, 20, 3))
    r = reduce(g)
    assert r.stats.swaps > 0 and r.stats.walk_steps == 0
    # a criterion 2 input walks, and the count repeats exactly
    w = gen_worstcase(5).congruence(gen_random_unimodular(10, 30, 0))
    first, again = reduce(w).stats.walk_steps, reduce(w).stats.walk_steps
    assert first == again > 0


def test_repairs_count_kept_candidates_that_are_no_gain(monkeypatch):
    """An indefinite swap counts as a repair (or a worthwhile c = 0
    clearing) only when the kept candidate's lead is no gamma0 gain over
    the block's own lead; the blocks here have rational coefficients."""
    records, definite = [], [0]
    candidates, place, lovasz = red._indefinite_candidates, red._place_transformed_pair, red._lovasz_definite

    def record_candidates(walk, gamma0, max_extra, want_sign):
        out = candidates(walk, gamma0, max_extra, want_sign)
        records.append((walk.boundary(walk.start, (1, 0, 0, 1))[0], out, []))
        return out

    def record_place(state, k, t):
        change = place(state, k, t)
        if records and any(t is ct for _, ct in records[-1][1]):
            records[-1][2].append(change)
        return change

    def record_lovasz(state, k, n1, n2):
        before = state.stats.repairs
        change = lovasz(state, k, n1, n2)
        definite[0] += state.stats.repairs - before
        return change

    monkeypatch.setattr(red, "_indefinite_candidates", record_candidates)
    monkeypatch.setattr(red, "_place_transformed_pair", record_place)
    monkeypatch.setattr(red, "_lovasz_definite", record_lovasz)
    r = reduce(gen_worstcase(5).congruence(gen_random_unimodular(10, 30, 0)))
    kept = no_gain = rational = 0
    for form, cands, changes in records:
        if -1 in changes:  # placements stop at the first kept candidate
            lead = qf_apply(form, Transform2(*cands[changes.index(-1)][1])).a
            kept += 1
            no_gain += not abs(lead) < Fraction(99, 100) * abs(form.a)
            rational += isinstance(form.a, Fraction)
    assert kept > 50 and rational > 10
    assert r.stats.repairs - definite[0] + r.stats.worthwhile_c_zero == no_gain


def test_transform_and_gram_bits_are_reported():
    # size reduction v2 -= 5 v1 turns [[1, 5], [5, 26]] into the identity
    r = reduce(GramMatrix([[1, 5], [5, 26]]))
    assert r.transform == [[1, -5], [0, 1]] and r.reduced == GramMatrix.identity(2)
    assert (r.stats.u_bits, r.stats.g_bits) == (3, 1)  # |-5| = 0b101
    # the square-disc block (4, 0, -1) walks to the terminal shape
    # (-1, 4, 0): U = [[0, -1], [1, -2]] and G' = [[-1, 2], [2, 0]]
    r = reduce(GramMatrix([[4, 0], [0, -1]]), ReducerParams(sign_strategy=False))
    assert r.transform == [[0, -1], [1, -2]] and r.reduced.rows == [[-1, 2], [2, 0]]
    assert (r.stats.u_bits, r.stats.g_bits) == (2, 2)
    assert reduce(GramMatrix.zeros(2)).stats.g_bits == 0


def test_small_box_certificates():
    """Every certificate on every 2x2 matrix in [-3, 3] and on every 7th
    3x3 matrix in [-2, 2], under both strategies, each with
    gamma_h = gamma0 and gamma_h = 1, and the baseline: congruence,
    |det U| = 1, the input's rank, an exactly zero tail and the bound,
    plus reduced blocks except for the baseline, which does not promise
    them and may only stop at an isotropic vector."""
    two = [[[a, b], [b, c]] for a, b, c in itertools.product(range(-3, 4), repeat=3)]
    three = [
        [[a, b, c], [b, e, f], [c, f, h]]
        for n, (a, b, c, e, f, h) in enumerate(itertools.product(range(-2, 3), repeat=6))
        if n % 7 == 0
    ]
    sign, plain = ReducerParams(), ReducerParams(sign_strategy=False)
    sign_h1, plain_h1 = ReducerParams(gamma_h=1), ReducerParams(gamma_h=1, sign_strategy=False)
    isotropic = []
    for inputs in (two, three):
        stopped = 0
        for rows in inputs:
            g = GramMatrix(rows)
            rank = kernel_split(g).rank
            for params in (sign, plain, sign_h1, plain_h1, None):  # None: the baseline
                try:
                    r = reduce(g, params) if params else reduce_baseline(g)
                except IsotropicVectorError:
                    assert params is None, rows
                    stopped += 1
                    continue
                assert g.congruence(r.transform) == r.reduced, rows
                assert abs(mat_det(r.transform)) == 1, rows
                assert r.rank == rank, rows
                assert all(x == 0 for row in r.reduced.rows[rank:] for x in row), rows
                assert verify_theorem_bound(r, g).holds, rows
                assert params is None or reduced_blocks_ok(r), rows
        isotropic.append(stopped)
    # the baseline stops at an isotropic vector on these many inputs
    assert (len(two), len(three), isotropic) == (343, 2233, [79, 951])


# Former faults of the reducer, kept as regression tests.  Fault (a) was
# the sign gate of the indefinite candidates under the sign strategy: a
# reduced block with no right-sign gain took no gain at all, and now
# takes the first gain of either sign when disc < 4 gamma0 a0^2.  Fault
# (b) hit with the strategy on or off: an adherent vector after a prefix
# plane was never integrated, which left an inadmissible prefix; the plane
# now moves back when the vector's scaled residual is zero.  Fault (c), a
# plane moved in front of a scalar and never compared with the scalar
# before it, is fixed too.


def test_box_68_bound_under_sign_strategy():
    # fault (a): |first|^3 was 8 against a bound near 6.37
    g = GramMatrix([[-2, -2, -2], [-2, 0, 1], [-2, 1, 1]])
    assert verify_theorem_bound(reduce(g), g).holds


def _scrambled_stack(n: int, alphas: list[int], steps: int, seed: int) -> GramMatrix:
    return gen_hyperbolic_stack(n, alphas).congruence(gen_random_unimodular(3 * n, steps, seed))


def _bound_holds(g: GramMatrix, sign_strategy: bool) -> bool:
    return verify_theorem_bound(reduce(g, ReducerParams(sign_strategy=sign_strategy)), g).holds


@pytest.mark.parametrize(
    "stack, sign_strategy",
    [
        ((4, [-3, -3, 5, -3], 20, 6602), True),  # at position 5
        ((4, [-3, -3, 5, -3], 20, 6602), False),  # at position 5
        ((5, [3, 1, -1, -2, 5], 20, 7333), True),  # at position 6
        ((5, [5, -2, 2, -1, -3], 20, 7877), False),  # at position 13
    ],
    ids=["6602-sign", "6602-plain", "7333-sign", "7877-plain"],
)
def test_adherent_vector_after_a_plane_keeps_an_admissible_prefix(stack, sign_strategy):
    # fault (b): each raised "isolated isotropic star vector" at the position noted
    g = _scrambled_stack(*stack)
    r = reduce(g, ReducerParams(sign_strategy=sign_strategy))
    assert verify_theorem_bound(r, g).holds and reduced_blocks_ok(r)


def test_stack_7690_bound_under_sign_strategy():
    # |first|^6 was 64 against a bound near 50.26
    assert _bound_holds(_scrambled_stack(2, [2, 2], 10, 7690), True)


def test_draw_3776_bound_under_sign_strategy():
    # fault (a) in the random draws of `random.Random(12)`: the bound failed
    g = GramMatrix([[-3, 3, 0, 3, 2], [3, 2, -2, 3, -2], [0, -2, 0, -1, -2], [3, 3, -1, 2, 3], [2, -2, -2, 3, 2]])
    assert _bound_holds(g, True)


@pytest.mark.parametrize("sign_strategy", [True, False], ids=["sign", "plain"])
def test_draw_22891_keeps_an_admissible_prefix(sign_strategy):
    # fault (b) in the same draws: it raised "isolated isotropic star vector at position 5"
    g = GramMatrix([
        [-1, -1, 2, -1, -1, -1],
        [-1, -1, 0, 3, 1, 3],
        [2, 0, -3, 0, 1, 3],
        [-1, 3, 0, -1, 2, 0],
        [-1, 1, 1, 2, 0, -1],
        [-1, 3, 3, 0, -1, 1],
    ])
    r = reduce(g, ReducerParams(sign_strategy=sign_strategy))
    assert verify_theorem_bound(r, g).holds and reduced_blocks_ok(r)


def test_adherent_vector_after_a_plane_moves_the_plane_back():
    # v3 = v0 / 2 plus an isotropic vector orthogonal to the plane (v1, v2):
    # the clean-up leaves it adherent (rho = 0, a nonzero row), and the plane
    # moves back although |norm| = |cross| would keep it under gamma_h < 1
    g = GramMatrix([[4, 0, 0, 2], [0, 0, 1, 0], [0, 1, 0, 0], [2, 0, 0, 1]])
    st = ReducerState(g, ReducerParams())
    st.refresh_prefix_gso(3)
    row, rho = _clean_and_file(st, 3)
    assert rho == 0 and any(row)
    assert plane_reduce(st, 4, incoming_pair=False) == 2
    assert st.gc[1][1:3] == [1, 0] and st.gc[2][2:] == [0, 1]  # the vector, then the plane


@pytest.mark.parametrize(
    "stack, sign_strategy",
    [((4, [1, 2, 3, -2], 20, 5000), True), ((3, [2, -1, -1], 6, 7220), False)],
    ids=["5000-sign", "7220-plain"],
)
def test_former_fault_b_stacks_keep_an_admissible_prefix(stack, sign_strategy):
    # both raised "isolated isotropic star vector" (at 10 and at 5) before
    # the plane moved past a scalar was compared with the scalar before it
    g = _scrambled_stack(*stack)
    r = reduce(g, ReducerParams(sign_strategy=sign_strategy))
    assert verify_theorem_bound(r, g).holds and reduced_blocks_ok(r)


@pytest.mark.parametrize("sign_strategy", [True, False], ids=["sign", "plain"])
def test_plane_past_scalar_meets_the_scalar_before_it(sign_strategy):
    # it reduced to diag(-2) + plane(1) + diag(2), |first|^4 = 16 against
    # a bound near 4.51; with the plane in front |first|^4 = 1
    g = GramMatrix([[0, 2, 0, 2], [2, -2, 0, 0], [0, 0, 2, -1], [2, 0, -1, 2]])
    assert _bound_holds(g, sign_strategy)


def test_plane_past_scalar_meets_the_scalar_before_it_under_sign_strategy():
    g = GramMatrix([[-2, -2, -1, -1], [-2, 2, 1, -2], [-1, 1, -2, -1], [-1, -2, -1, 0]])
    assert _bound_holds(g, True)


@pytest.mark.parametrize("sign_strategy", [True, False], ids=["sign", "plain"])
def test_bound_on_scrambled_stack(sign_strategy):
    # |first|^6 was 64 against a bound near 7.16
    assert _bound_holds(_scrambled_stack(2, [-2, 1], 6, 6897), sign_strategy)


def test_scrambled_stack_sample_fails_only_where_pinned():
    """Every 5th seed of the scrambled-stack sample 6000-7999 and the
    seeds of the former failures, under both strategies: none fails, so
    a new failure shows."""
    failures = set()
    for seed in sorted({*range(6000, 8000, 5), 6602, 7333, 7690, 7877}):
        rnd = random.Random(seed)
        n = rnd.randint(1, 5)
        alphas = [rnd.choice([1, 2, 3, -2, -1, 5, -3]) for _ in range(n)]
        g = _scrambled_stack(n, alphas, rnd.choice([6, 10, 20, 40]), seed)
        for sign_strategy in (True, False):
            try:
                r = reduce(g, ReducerParams(sign_strategy=sign_strategy))
            except LatticeError:
                failures.add((seed, sign_strategy, "raise"))
                continue
            if not verify_theorem_bound(r, g).holds:
                failures.add((seed, sign_strategy, "bound"))
    assert failures == set()
