import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import fraction_walk as ref
from indeflll import reducer as red
from indeflll.analysis import kernel_split, verify_theorem_bound
from indeflll.errors import InadmissiblePrefixError, IsotropicVectorError, LatticeError
from indeflll.generators import gen_hyperbolic_stack, gen_random_unimodular, gen_worstcase
from indeflll.gram import (
    GramMatrix,
    GsoState,
    _reusable,
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


def test_vector_reduce_trivial_plus_one():
    g = GramMatrix.identity(2)
    st = ReducerState(g, ReducerParams(sign_strategy=False))
    st.refresh_prefix_gso(1)
    residual, _ = cleanup_size_reduce(st, 1)
    assert vector_reduce(st, 2, residual) == +1
    assert st.gc == GramMatrix.identity(2).copy_rows()


def test_vector_reduce_shrinks_front():
    # [[4,0],[0,-1]]: the projected form (4, 0, -1) has square disc 16
    g = GramMatrix([[4, 0], [0, -1]])
    st = ReducerState(g, ReducerParams(sign_strategy=False))
    st.refresh_prefix_gso(1)
    residual, _ = cleanup_size_reduce(st, 1)
    change = vector_reduce(st, 2, residual)
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
    residual, _ = cleanup_size_reduce(st, 1)
    change = integrate_adherent(st, 2, *st.gso.projected_block(0, *residual)[:3])
    assert change == -1
    assert st.gc[0][0] == 1  # determinant dropped from 4 to 1
    assert st.stats.adherent_integrations == 1
    full = reduce(g)
    assert full.rank == 1 and abs(full.reduced.rows[0][0]) == 1


def test_integrate_adherent_rejects_prefix_zero():
    g = GramMatrix([[1, 1], [1, 1]])
    st = ReducerState(g, ReducerParams())
    st.refresh_prefix_gso(1)
    residual, _ = cleanup_size_reduce(st, 1)
    with pytest.raises(ValueError):
        integrate_adherent(st, 2, *st.gso.projected_block(0, *residual)[:3])


def test_vector_coupled_to_plane_moves_in_front():
    # plane (cross 2) followed by a vector with a nonzero product
    # against the plane's first half: the vector moves in front and the
    # plane is destroyed (det = 0 here, so the rank drops to 2)
    g = GramMatrix([[0, 2, 3], [2, 0, 1], [3, 1, 3]])
    st = ReducerState(g, ReducerParams())
    st.refresh_prefix_gso(2)
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


def test_outputs_are_pinned():
    """Everything `reduce` (under both strategies) and `reduce_baseline`
    return or raise on the exactness corpus, the 2x2 box in [-3, 3] and
    the first 10 criterion 2 inputs hashes to a committed digest: the
    reduced rows, U, the rank, the block kinds, every stats field, and an
    error's type, message and index."""
    box = [GramMatrix([[a, b], [b, c]]) for a, b, c in itertools.product(range(-3, 4), repeat=3)]
    scrambled = [gen_worstcase(5).congruence(gen_random_unimodular(10, 30, seed)) for seed in range(10)]
    runs = (reduce, lambda g: reduce(g, ReducerParams(sign_strategy=False)), reduce_baseline)
    digest = hashlib.sha256()
    for g in _exactness_corpus() + box + scrambled:
        for run in runs:
            try:
                r = run(g)
            except LatticeError as exc:
                out = (type(exc).__name__, str(exc), getattr(exc, "index", None))
            else:
                out = (r.reduced.rows, r.transform, r.rank, r.block_kinds, dataclasses.astuple(r.stats))
            digest.update(repr(out).encode())
    assert digest.hexdigest() == "d40cd8dd71abf36a0596f75a394b00a2c550b8d1e6fd74ba0d07d110927f47ad"


@pytest.fixture
def checked_refresh(monkeypatch):
    """After every prefix GSO refresh, compare the held state with a GSO
    built from scratch on the same Gram (strict for the baseline), and an
    inadmissible prefix with the error a fresh build raises."""
    original = ReducerState.refresh_prefix_gso
    seen = {"refreshes": 0, "positions": 0, "computed": 0}

    def fresh(state, prefix, strict):
        return auto_gso(state.current_gram(), prefix, strict=strict)

    def refresh(self, prefix, strict=False):
        try:
            held = original(self, prefix, strict)
        except InadmissiblePrefixError as exc:
            with pytest.raises(InadmissiblePrefixError) as again:
                fresh(self, prefix, strict)
            assert (str(again.value), again.value.index) == (str(exc), exc.index)
            raise
        # dataclass equality: the extent, lambda rows, determinants and
        # planes, all but the `reused` count
        assert held == fresh(self, prefix, strict)
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
    g = gen_hyperbolic_stack(4, [1, 2, 3, -2]).congruence(gen_random_unimodular(12, 20, 5000))
    with pytest.raises(InadmissiblePrefixError) as exc:
        reduce(g)
    assert exc.value.index == 10
    assert str(exc.value) == "inadmissible prefix: isolated isotropic star vector at position 10"


def test_gso_and_size_reduction_create_no_fraction(monkeypatch):
    """The prefix GSO of an integral Gram and the size reduction against
    it run on integers alone."""
    g = gen_worstcase(5).congruence(gen_random_unimodular(10, 30, 0))
    st = ReducerState(g, ReducerParams())
    gram = st.current_gram()
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
    residual, prefix_zero = cleanup_size_reduce(st, 9)
    deficient.refresh_prefix_gso(3)
    zero_residual, zero = cleanup_size_reduce(deficient, 3)
    monkeypatch.undo()
    assert created == []
    assert full.upto == 10 and residual[1] != 0 and not prefix_zero
    assert st.gc != before  # the clean-up did move the vector
    assert zero and zero_residual[1] == 0 and deficient.gc[3] == [0] * 4
    assert Fraction(5) == 5  # the counter is gone again


def test_gso_positions_counts_computed_star_vectors():
    g = GramMatrix.identity(4)
    r = reduce(g)
    # prefixes 0..3 of an unchanged Gram: each star vector is computed once
    assert r.stats.loop_iterations == 4 and r.stats.gso_positions == 3


def test_size_reduction_hands_over_exact_lambda_rows(monkeypatch):
    """Every size reduction on the exactness corpus (both strategies and
    the baseline) hands over the lambda row and scaled residual of the
    vector it leaves, planes of the prefix included: the next build takes
    them over instead of computing them."""
    original = GsoState.hand_over
    seen = {"rows": 0, "planes": 0}

    def checked(self, w, pos, row, rho):
        assert row == self.lambda_row(w)
        assert rho == self.scaled_residual(row, w[pos])
        seen["rows"] += 1
        seen["planes"] += bool(self.bad)
        original(self, w, pos, row, rho)

    monkeypatch.setattr(GsoState, "hand_over", checked)
    for g in _exactness_corpus():
        for params in (ReducerParams(), ReducerParams(sign_strategy=False)):
            reduce(g, params)
        try:
            reduce_baseline(g)
        except LatticeError:
            pass
    assert seen["rows"] > 3000 and seen["planes"] > 500


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


def test_change_log_survives_rolled_back_placements(monkeypatch):
    """The rows below `touched` are those of the last refresh, also after
    a placement that is rolled back, and each refresh reuses what a full
    comparison with a copy of the Gram at the last refresh would reuse."""
    place, refresh = red._place_transformed_pair, ReducerState.refresh_prefix_gso
    seen = {"rollbacks": 0, "refreshes": 0}
    refreshed = {}  # state -> its Gram at its last refresh

    def checked_place(state, k, t):
        before = (state.touched, [row[:] for row in state.gc])
        change = place(state, k, t)
        if change == +1:
            assert (state.touched, state.gc) == before
            seen["rollbacks"] += 1
        return change

    def checked_refresh(self, prefix, strict=False):
        want = 0
        if self.gso is not None:
            old, keep = refreshed[self], min(prefix, self.gso.upto)
            changed = next((i for i in range(keep) if self.gc[i][: i + 1] != old[i][: i + 1]), keep)
            assert min(self.touched, keep) <= changed
            want = _reusable(self.gso, prefix, changed, strict)
        held = refresh(self, prefix, strict)
        assert held.reused == want and self.touched == self.d
        refreshed[self] = [row[:] for row in self.gc]
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


def test_candidates_match_fraction_walk(recorded_blocks):
    """The integer candidate walk returns the Fraction walk's list, in its
    order, on recorded and random blocks, for every sign target, walk
    length and two quality factors."""
    forms, _ = recorded_blocks
    rng = random.Random(4242)
    recorded = list(forms.items())
    rational = sum(1 for f, _ in recorded if any(isinstance(x, Fraction) for x in f.coeffs()))
    assert len(recorded) > 400 and rational > 100
    blocks = [f for f, _ in rng.sample(recorded, 400)] + ref.sample_forms(rng, 400)
    blocks += ref.sample_forms(rng, 40, bound=1 << 40)
    nonempty = 0
    for f in blocks:
        for want in (None, 1, -1):
            for max_extra in (0, 2, 12):
                for gamma0 in (Fraction(99, 100), Fraction(1, 2)):
                    got = red._indefinite_candidates(IntegralWalk(f), gamma0, max_extra, want)
                    expected = ref.indefinite_candidates(f, gamma0, max_extra, want)
                    assert got == _candidate_key(expected), (f, want, max_extra, gamma0)
                    nonempty += bool(got)
    assert nonempty > len(blocks)


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
    walk = IntegralWalk(BQForm(1, 2, -1))
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
    """Every certificate on every 2x2 matrix in [-3, 3] under both
    strategies and the baseline, and on every 7th 3x3 matrix in [-2, 2]
    without the sign strategy and under the baseline: congruence,
    |det U| = 1, the input's rank, an exactly zero tail and the bound,
    plus reduced blocks except for the baseline, which does not promise
    them and may only stop at an isotropic vector.  The 3x3 stride joins
    the sign strategy when fault (a) is fixed."""
    two = [[[a, b], [b, c]] for a, b, c in itertools.product(range(-3, 4), repeat=3)]
    three = [
        [[a, b, c], [b, e, f], [c, f, h]]
        for n, (a, b, c, e, f, h) in enumerate(itertools.product(range(-2, 3), repeat=6))
        if n % 7 == 0
    ]
    sign, plain = ReducerParams(), ReducerParams(sign_strategy=False)
    isotropic = []
    for inputs, strategies in ((two, (sign, plain)), (three, (plain,))):
        stopped = 0
        for rows in inputs:
            g = GramMatrix(rows)
            rank = kernel_split(g).rank
            for params in (*strategies, None):  # None: the baseline
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
    # the baseline's strict GSO stops on these many inputs
    assert (len(two), len(three), isotropic) == (343, 2233, [79, 951])


# Known faults of the reducer, kept as exact reproducers until they are
# fixed.  Fault (a) is the sign gate of the indefinite candidates and
# needs the sign strategy.  Faults (b) and (c) hit the reducer with the
# strategy on or off: (b) an adherent vector after a prefix plane is
# never integrated, which leaves an inadmissible prefix, and (c) a plane
# moved in front of a scalar is never compared with the scalar before it.


@pytest.mark.xfail(strict=True, reason="fault (a): the sign gate drops the gamma0-gain candidate")
def test_known_fault_bound_under_sign_strategy():
    g = GramMatrix([[-2, -2, -2], [-2, 0, 1], [-2, 1, 1]])
    assert verify_theorem_bound(reduce(g), g).holds


@pytest.mark.xfail(strict=True, reason="fault (b): an adherent vector after a prefix plane")
def test_known_fault_inadmissible_prefix_under_sign_strategy():
    g = gen_hyperbolic_stack(4, [1, 2, 3, -2]).congruence(gen_random_unimodular(12, 20, 5000))
    try:
        reduce(g)
    except InadmissiblePrefixError:
        pytest.fail("InadmissiblePrefixError on a scrambled hyperbolic stack")


@pytest.mark.xfail(strict=True, reason="fault (b): an adherent vector after a prefix plane")
def test_known_fault_inadmissible_prefix_without_sign_strategy():
    # raises "isolated isotropic star vector at position 5"
    g = gen_hyperbolic_stack(3, [2, -1, -1]).congruence(gen_random_unimodular(9, 6, 7220))
    try:
        reduce(g, ReducerParams(sign_strategy=False))
    except InadmissiblePrefixError:
        pytest.fail("InadmissiblePrefixError on a scrambled hyperbolic stack")


def _bound_holds(g: GramMatrix, sign_strategy: bool) -> bool:
    return verify_theorem_bound(reduce(g, ReducerParams(sign_strategy=sign_strategy)), g).holds


@pytest.mark.xfail(strict=True, reason="fault (c): a plane moved past a scalar")
@pytest.mark.parametrize("sign_strategy", [True, False], ids=["sign", "plain"])
def test_known_fault_plane_past_scalar(sign_strategy):
    # |first|^4 = 16 against a bound near 4.51
    g = GramMatrix([[0, 2, 0, 2], [2, -2, 0, 0], [0, 0, 2, -1], [2, 0, -1, 2]])
    assert _bound_holds(g, sign_strategy)


@pytest.mark.xfail(strict=True, reason="fault (c): a plane moved past a scalar")
def test_known_fault_plane_past_scalar_under_sign_strategy():
    g = GramMatrix([[-2, -2, -1, -1], [-2, 2, 1, -2], [-1, 1, -2, -1], [-1, -2, -1, 0]])
    assert _bound_holds(g, True)


@pytest.mark.xfail(strict=True, reason="the bound fails on a scrambled hyperbolic stack")
@pytest.mark.parametrize("sign_strategy", [True, False], ids=["sign", "plain"])
def test_known_fault_bound_on_scrambled_stack(sign_strategy):
    # |first|^4 = 64 against a bound near 7.16
    g = gen_hyperbolic_stack(2, [-2, 1]).congruence(gen_random_unimodular(6, 6, 6897))
    assert _bound_holds(g, sign_strategy)
