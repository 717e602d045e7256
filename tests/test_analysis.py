import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from indeflll import analysis
from indeflll.analysis import (
    LatticeInvariants,
    char_poly,
    hermitian_embed,
    kernel_split,
    remove_hyperbolic_plane,
    signature_via_gso,
    signature_via_sturm,
    verify_theorem_bound,
)
from indeflll.errors import InadmissiblePrefixError, InternalInvariantError
from indeflll.gram import GramMatrix, _congruent_leading_minors, auto_gso, mat_det, mat_identity, mat_transpose
from indeflll.generators import (
    gen_hyperbolic_stack,
    gen_random_symmetric,
    gen_random_unimodular,
    gen_worstcase,
)
from indeflll.reducer import ReducerParams, reduce
from test_gram import count_eliminations, count_products
from test_reducer import mat_mul

# the closing example: diag(1,-1,1,-1) admits a transform of infinite order
AUTOMORPHIC_G = GramMatrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
AUTOMORPHIC_U = [[1, 0, 1, 1], [-1, 1, 0, -1], [1, -1, -1, 0], [0, 1, 1, 1]]


def test_kernel_split_examples():
    ks = kernel_split(GramMatrix([[1, 1], [1, 1]]))
    assert ks.rank == 1
    assert abs(mat_det(ks.transform)) == 1
    g = GramMatrix([[1, 1], [1, 1]]).congruence(ks.transform)
    assert g.rows[1] == [0, 0] and g.rows[0][1] == 0

    ks = kernel_split(GramMatrix.identity(4))
    assert ks.rank == 4 and ks.nondegenerate == GramMatrix.identity(4)

    ks = kernel_split(GramMatrix.zeros(0))
    assert ks.rank == 0 and ks.transform == []

    ks = kernel_split(GramMatrix.zeros(3))
    assert ks.rank == 0 and ks.transform == [[1 if i == j else 0 for j in range(3)] for i in range(3)]

    with pytest.raises(ValueError):
        kernel_split(GramMatrix([[Fraction(1, 2)]]))


def test_kernel_split_random():
    rng = random.Random(8)
    for _ in range(30):
        d = rng.randrange(2, 7)
        rk = rng.randrange(0, d + 1)
        m = [[rng.randrange(-3, 4) for _ in range(rk)] for _ in range(d)]
        core = [[0] * rk for _ in range(rk)]
        for i in range(rk):
            for j in range(i, rk):
                core[i][j] = core[j][i] = rng.randrange(-9, 10)
        g = GramMatrix(mat_mul(m, mat_mul(core, mat_transpose(m)))) if rk else GramMatrix.zeros(d)
        ks = kernel_split(g)
        assert abs(mat_det(ks.transform)) == 1
        moved = g.congruence(ks.transform)
        for i in range(ks.rank, d):
            assert all(x == 0 for x in moved.rows[i])
        if ks.rank:
            assert ks.nondegenerate.det() != 0


def test_char_poly():
    # det(xI - G) for diag(2, -3) is (x-2)(x+3) = x^2 + x - 6
    assert char_poly(GramMatrix([[2, 0], [0, -3]])) == [-6, 1, 1]
    assert char_poly(GramMatrix.zeros(0)) == [1]
    assert char_poly(GramMatrix([[0, 4], [4, 0]])) == [-16, 0, 1]


def test_signature_examples():
    inv = signature_via_sturm(GramMatrix([[2, 0], [0, -3]]))
    assert (inv.n_plus, inv.n_minus) == (1, 1)
    inv = signature_via_sturm(GramMatrix([[0, 4], [4, 0]]))
    assert (inv.n_plus, inv.n_minus) == (1, 1)
    inv = signature_via_sturm(GramMatrix.identity(4))
    assert (inv.n_plus, inv.n_minus) == (4, 0)
    # multiple eigenvalues are counted with multiplicity
    inv = signature_via_sturm(GramMatrix([[2, 0, 0], [0, 2, 0], [0, 0, -5]]))
    assert (inv.n_plus, inv.n_minus) == (2, 1)
    inv = signature_via_sturm(GramMatrix.zeros(0))
    assert (inv.dim, inv.rank, inv.n_plus, inv.n_minus, inv.nondeg_det) == (0, 0, 0, 0, 0)
    # degenerate input
    inv = signature_via_sturm(GramMatrix([[1, 1], [1, 1]]))
    assert inv.rank == 1 and inv.n_plus == 1 and inv.nondeg_det == 1

    inv = signature_via_gso(GramMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))
    assert (inv.n_plus, inv.n_minus) == (2, 1) and inv.signature == 1
    inv = signature_via_gso(GramMatrix([[0, 1], [1, 0]]))
    assert (inv.n_plus, inv.n_minus) == (1, 1) and inv.signature == 0


def test_signature_oracles_agree():
    rng = random.Random(15)
    for _ in range(40):
        d = rng.randrange(2, 7)
        g = gen_random_symmetric(d, 40, rng.randrange(10**6))
        a = signature_via_sturm(g)
        b = signature_via_gso(g)
        assert (a.n_plus, a.n_minus, a.rank) == (b.n_plus, b.n_minus, b.rank)
        assert a.nondeg_det != 0 or a.rank == 0
        if a.rank:
            assert (a.nondeg_det < 0) == (a.n_minus % 2 == 1)


def _descartes_inertia(g: GramMatrix) -> tuple[int, int, int]:
    """(n_plus, n_minus, rank) from the characteristic polynomial.

    Descartes' rule of signs is exact for a polynomial with only real
    roots, as a symmetric matrix's characteristic polynomial has: the
    sign changes of p(x) count the positive roots, those of p(-x) the
    negative ones, and the zero root's multiplicity is the number of
    vanishing low-order coefficients.
    """

    def changes(coeffs):
        seq = [c for c in coeffs if c != 0]
        return sum(1 for x, y in zip(seq, seq[1:]) if (x < 0) != (y < 0))

    p = char_poly(g)
    zeros = next(i for i, c in enumerate(p) if c != 0)
    n_plus = changes(p)
    n_minus = changes([c if i % 2 == 0 else -c for i, c in enumerate(p)])
    return n_plus, n_minus, g.dim - zeros


def _cross_check_inputs():
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                yield GramMatrix([[a, b], [b, c]])
    for index in range(0, 5**6, 47):
        a11, a12, a13, a22, a23, a33 = (index // 5**k % 5 - 2 for k in range(5, -1, -1))
        yield GramMatrix([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])
    rng = random.Random(29)
    for _ in range(30):
        yield gen_random_symmetric(rng.randrange(2, 9), 30, rng.randrange(10**6))
    # zero diagonals: only the e_i += e_j step finds a pivot in the planes
    yield gen_hyperbolic_stack(2, [1, -2])
    yield GramMatrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, -1], [1, 0, -1, 0]])
    for _ in range(20):
        d = rng.randrange(3, 7)
        a = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                a[i][j] = a[j][i] = rng.randrange(-3, 4)
        yield GramMatrix(a)
    for n, alphas, useed in ((1, [2], 11), (2, [1, 3], 12), (3, [1, 2, -2], 13)):
        u = gen_random_unimodular(3 * n, 10, useed)
        yield gen_hyperbolic_stack(n, alphas).congruence(u)
    for _ in range(20):
        d = rng.randrange(2, 7)
        rk = rng.randrange(0, d)
        m = [[rng.randrange(-3, 4) for _ in range(rk)] for _ in range(d)]
        core = [[0] * rk for _ in range(rk)]
        for i in range(rk):
            for j in range(i, rk):
                core[i][j] = core[j][i] = rng.randrange(-5, 6)
        yield GramMatrix(mat_mul(m, mat_mul(core, mat_transpose(m)))) if rk else GramMatrix.zeros(d)
    half, third = Fraction(1, 2), Fraction(1, 3)
    yield GramMatrix([[half, 1, 0], [1, third, -half], [0, -half, 0]])


def test_signature_matches_descartes_on_char_poly():
    seen = 0
    for g in _cross_check_inputs():
        inv = signature_via_sturm(g)
        assert (inv.n_plus, inv.n_minus, inv.rank) == _descartes_inertia(g), g
        assert inv.dim == g.dim
        scale = lcm(*[Fraction(x).denominator for row in g.rows for x in row])
        scaled = GramMatrix([[x * scale for x in row] for row in g.rows])
        split_det = kernel_split(scaled).nondegenerate.det() / Fraction(scale) ** inv.rank
        assert inv.nondeg_det == (split_det if inv.rank else 0), g
        seen += 1
    assert seen > 700


def test_signature_invariant_under_conjugation():
    rng = random.Random(44)
    g = gen_random_symmetric(5, 20, 7)
    base = signature_via_sturm(g)
    for i in range(100):
        w = gen_random_unimodular(5, 10, 1000 + i)
        moved = signature_via_sturm(g.congruence(w))
        assert (moved.n_plus, moved.n_minus) == (base.n_plus, base.n_minus)


def _split_route(g: GramMatrix) -> LatticeInvariants:
    """The oracle by its earlier route: the integer kernel split on every
    input, then the leading minors of its nonsingular block."""
    scale = lcm(*[Fraction(x).denominator for row in g.rows for x in row])
    split = kernel_split(GramMatrix([[x * scale for x in row] for row in g.rows]))
    minors = _congruent_leading_minors(split.nondegenerate.copy_rows())
    assert len(minors) == split.rank
    n_minus = sum((x < 0) != (y < 0) for x, y in zip([1] + minors, minors))
    det = Fraction(minors[-1], scale**split.rank) if split.rank else Fraction(0)
    return LatticeInvariants(g.dim, split.rank, split.rank - n_minus, n_minus, det)


def _rank_deficient(rng, d, rk, bound):
    """M C M^T for a random d x rk matrix M and symmetric rk x rk core C."""
    if not rk:
        return GramMatrix.zeros(d)
    m = [[rng.randrange(-bound, bound + 1) for _ in range(rk)] for _ in range(d)]
    core = [[0] * rk for _ in range(rk)]
    for i in range(rk):
        for j in range(i, rk):
            core[i][j] = core[j][i] = rng.randrange(-bound, bound + 1)
    return GramMatrix(mat_mul(m, mat_mul(core, mat_transpose(m))))


def test_sturm_oracle_matches_the_split_route():
    singular = 0
    for index in range(5**6):
        a11, a12, a13, a22, a23, a33 = (index // 5**k % 5 - 2 for k in range(5, -1, -1))
        g = GramMatrix([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])
        inv = signature_via_sturm(g)
        assert inv == _split_route(g), g
        singular += inv.rank < 3
    assert singular == 1513
    rng = random.Random(71)
    for _ in range(60):
        d = rng.randrange(2, 9)
        g = _rank_deficient(rng, d, rng.randrange(0, d), 4)
        inv = signature_via_sturm(g)
        assert inv.rank < d and inv == _split_route(g), g
        half = GramMatrix([[Fraction(x, 6) for x in row] for row in g.rows])
        assert signature_via_sturm(half) == _split_route(half), g


def test_minors_stop_at_the_rank():
    assert _congruent_leading_minors([[1, 1], [1, 1]]) == [1]
    assert _congruent_leading_minors([[0, 0], [0, 0]]) == []
    assert len(_congruent_leading_minors([[0, 2, 0], [2, 0, 0], [0, 0, 0]])) == 2
    rng = random.Random(72)
    for _ in range(30):
        d = rng.randrange(1, 8)
        rk = rng.randrange(0, d + 1)
        g = _rank_deficient(rng, d, rk, 3)
        assert len(_congruent_leading_minors(g.copy_rows())) == kernel_split(g).rank


def test_full_rank_input_takes_no_kernel_split(monkeypatch):
    def refuse(rows):
        raise AssertionError("the oracle's kernel split ran on full-rank input")

    split = analysis._nondegenerate_block
    monkeypatch.setattr(analysis, "_nondegenerate_block", refuse)
    full = [
        GramMatrix.zeros(0),
        GramMatrix([[0, 4], [4, 0]]),
        gen_hyperbolic_stack(3, [1, 2, -2]),
        gen_worstcase(5).congruence(gen_random_unimodular(10, 30, 0)),
        GramMatrix([[Fraction(1, 2), 1, 0], [1, Fraction(1, 3), Fraction(-1, 2)], [0, Fraction(-1, 2), 0]]),
    ]
    rng = random.Random(73)
    while len(full) < 25:
        g = gen_random_symmetric(rng.randrange(2, 9), 30, rng.randrange(10**6))
        if g.det():
            full.append(g)
    for g in full:
        assert signature_via_sturm(g).rank == g.dim
    calls = []
    monkeypatch.setattr(analysis, "_nondegenerate_block", lambda rows: calls.append(rows) or split(rows))
    inv = signature_via_sturm(GramMatrix([[1, 1, 0], [1, 1, 0], [0, 0, -2]]))
    assert (inv.rank, inv.n_plus, inv.n_minus, inv.nondeg_det, len(calls)) == (2, 1, 1, -2, 1)


def test_sturm_oracle_after_reduce_runs_no_elimination(monkeypatch):
    """After `reduce` on full-rank input the reducer's determinant check
    has formed G's leading minors, and the certificate and the oracle read
    them: no elimination runs after the reduction.  Below full rank the
    reducer checks det U and the oracle eliminates G and the leading
    block of its kernel split, once each."""
    calls = count_eliminations(monkeypatch)
    full = [
        gen_worstcase(5).congruence(gen_random_unimodular(10, 30, 0)),
        gen_hyperbolic_stack(3, [1, 2, -2]).congruence(gen_random_unimodular(9, 20, 5)),
        gen_random_symmetric(7, 30, 11),
    ]
    for g in full:
        res = reduce(g)
        assert (res.rank, calls) == (g.dim, [1])
        verify_theorem_bound(res, g)
        inv = signature_via_sturm(g)
        assert calls == [1]
        assert inv == signature_via_sturm(GramMatrix(g.copy_rows())) and calls == [2]
        calls[0] = 0
    g = _rank_deficient(random.Random(74), 6, 4, 3)
    res = reduce(g)
    assert res.rank < g.dim and calls == [0]
    assert signature_via_sturm(g).rank == res.rank and calls == [2]


def test_singular_split_block_still_raises(monkeypatch):
    # a split whose leading block is itself singular is a bug in the split,
    # which the oracle and `kernel_split` both refuse
    for g, lead in ((GramMatrix([[1, 1], [1, 1]]), [[0]]),
                    (GramMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]]), [[1, 1], [1, 1]])):
        monkeypatch.setattr(analysis, "_nondegenerate_block",
                            lambda rows: (mat_identity(len(rows)), [list(r) for r in lead]))
        with pytest.raises(InternalInvariantError, match="singular block in the inertia count"):
            signature_via_sturm(g)
        with pytest.raises(InternalInvariantError, match="leading block is singular after the kernel split"):
            kernel_split(g)


def test_split_checks_catch_a_wrong_elimination(monkeypatch):
    # an elimination that miscounts its pivots leaves a nonzero kernel
    # column (one too few) or a zero row in the leading block (one too many)
    eliminate = analysis._eliminate_columns
    g = GramMatrix([[1, 1, 0], [1, 1, 0], [0, 0, -2]])
    monkeypatch.setattr(analysis, "_eliminate_columns", lambda at, vt: eliminate(at, vt) - 1)
    with pytest.raises(InternalInvariantError, match="kernel columns did not clear"):
        kernel_split(g)
    with pytest.raises(InternalInvariantError, match="kernel columns did not clear"):
        signature_via_sturm(g)
    monkeypatch.setattr(analysis, "_eliminate_columns", lambda at, vt: eliminate(at, vt) + 1)
    with pytest.raises(InternalInvariantError, match="leading block is singular after the kernel split"):
        kernel_split(g)
    with pytest.raises(InternalInvariantError, match="singular block in the inertia count"):
        signature_via_sturm(g)


def test_verify_theorem_bound():
    rng = random.Random(61)
    for _ in range(15):
        d = rng.randrange(2, 7)
        g = gen_random_symmetric(d, 50, rng.randrange(10**6))
        res = reduce(g)
        rep = verify_theorem_bound(res, g)
        assert rep.holds
        assert rep.slack is None or rep.slack >= 1
        assert rep.rank == res.rank
        assert rep.signature == signature_via_sturm(g).signature
    with pytest.raises(ValueError):
        other = gen_random_symmetric(3, 10, 5)
        res = reduce(other)
        verify_theorem_bound(res, gen_random_symmetric(3, 10, 6))


def test_verify_theorem_bound_sees_a_transform_edited_in_place():
    g = gen_random_symmetric(5, 50, 17)
    res = reduce(g)
    assert verify_theorem_bound(res, g).holds
    res.transform[0][0] += 1
    with pytest.raises(ValueError, match="does not belong"):
        verify_theorem_bound(res, g)
    res.transform[0][0] -= 1
    assert verify_theorem_bound(res, g).holds


def test_verify_theorem_bound_refuses_a_result_of_another_dimension():
    """A 3x3 result checked against a 4x4 input whose leading block is the
    3x3 one used to hold, with rank 3: the product U^T G U stopped at the
    shorter side of the 3x3 U."""
    g3 = GramMatrix([[0, 2, 3], [2, 0, 1], [3, 1, 0]])
    g4 = GramMatrix([[0, 2, 3, 1], [2, 0, 1, 0], [3, 1, 0, 2], [1, 0, 2, 5]])
    with pytest.raises(ValueError, match="must be 4x4"):
        verify_theorem_bound(reduce(g3), g4)
    with pytest.raises(ValueError, match="must be 4x4"):
        g4.congruence([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="must be 4x4"):
        g4.congruence([[1, 0, 0, 0]] * 3 + [[0, 0, 1]])


def test_reduce_and_verify_form_one_product(monkeypatch):
    """`verify_theorem_bound` takes over the U^T G U that `reduce`'s own
    check formed from the same Gram and transform: one product, not two."""
    calls = count_products(monkeypatch)
    for seed in range(3):
        g = gen_worstcase(4).congruence(gen_random_unimodular(8, 20, seed))
        for run in (reduce, lambda gram: reduce(gram, ReducerParams(sign_strategy=False))):
            calls[0] = 0
            assert verify_theorem_bound(run(g), g).holds
            assert calls[0] == 1


def _reference_bound(result, gram):
    """lhs, rhs, slack, heuristic_rhs, holds, heuristic_holds, nondeg_det
    and signature of the quality bound, evaluated over Fraction powers."""
    gamma0 = result.params.gamma0
    ell = result.rank
    if ell == 0:
        return Fraction(0), Fraction(1), None, Fraction(1), True, True, Fraction(1), 0
    gso = auto_gso(result.reduced, ell)
    det = Fraction(gso.det)
    first = abs(result.first_entry())
    sum_n = result.sum_definite_exponent()
    d_const = gamma0 * gamma0 / (gamma0 - Fraction(1, 4))
    lhs = first**ell
    rhs = (1 / gamma0) ** (ell * (ell - 1)) * d_const**sum_n * abs(det)
    n_pos, n_neg = gso.sign_counts()
    sig = abs(n_pos - n_neg)
    heur_rhs = Fraction(4, 3) ** (sig * (sig - 1)) * abs(det)
    slack = rhs / lhs if lhs else None
    return lhs, rhs, slack, heur_rhs, lhs <= rhs, lhs <= heur_rhs, det, sig


def _bound_corpus():
    rng = random.Random(64)
    yield GramMatrix.zeros(0)
    yield GramMatrix.zeros(3)  # rank 0
    yield GramMatrix([[-3]])
    yield GramMatrix([[1, 2], [2, 4]])  # rank 1
    yield GramMatrix([[0, 4], [4, 0]])  # isotropic front vector
    yield gen_hyperbolic_stack(2, [3, -2])
    yield GramMatrix([[-2, -2, -2], [-2, 0, 1], [-2, 1, 1]])  # box/68, the bound failed under fault (a)
    yield gen_worstcase(5).congruence(gen_random_unimodular(10, 30, 0))
    for n, alphas, useed in ((1, [2], 21), (2, [1, -3], 22), (3, [2, 1, -2], 23)):
        yield gen_hyperbolic_stack(n, alphas).congruence(gen_random_unimodular(3 * n, 10, useed))
    for _ in range(40):
        d = rng.randrange(1, 7)
        yield gen_random_symmetric(d, 40, rng.randrange(10**6))
        yield _rank_deficient(rng, d + 1, rng.randrange(0, min(d, 3) + 1), 3)


def test_bound_report_matches_the_fraction_formula():
    fields = ("lhs", "rhs", "slack", "heuristic_rhs", "holds", "heuristic_holds", "nondeg_det", "signature")
    seen = {"rank 0": 0, "rank 1": 0, "isotropic front": 0, "singular": 0, "fails": 0}
    for g in _bound_corpus():
        for gamma0 in (Fraction(99, 100), Fraction(3, 4), Fraction(26, 100)):
            for sign_strategy in (True, False):
                res = reduce(g, ReducerParams(gamma0=gamma0, sign_strategy=sign_strategy))
                rep = verify_theorem_bound(res, g)
                got = tuple(getattr(rep, f) for f in fields)
                assert got == _reference_bound(res, g), (g, gamma0, sign_strategy)
                assert all(isinstance(x, Fraction) for x in (rep.lhs, rep.rhs, rep.heuristic_rhs, rep.nondeg_det))
                seen["rank 0"] += res.rank == 0
                seen["rank 1"] += res.rank == 1
                seen["isotropic front"] += res.rank >= 2 and res.reduced.rows[0][0] == 0
                seen["singular"] += 0 < res.rank < g.dim
                seen["fails"] += not rep.holds
    # no reduction fails the bound, so a congruent but unreduced result
    # keeps the failing path covered: box/68 as its own result, U = I
    g = GramMatrix([[-2, -2, -2], [-2, 0, 1], [-2, 1, 1]])
    res = replace(reduce(g), transform=mat_identity(3), reduced=g)
    rep = verify_theorem_bound(res, g)
    assert tuple(getattr(rep, f) for f in fields) == _reference_bound(res, g)
    seen["fails"] += not rep.holds
    assert all(seen.values()), seen
    res = reduce(GramMatrix([[2, 1], [1, -3]]))
    for gamma0 in (Fraction(1, 4), Fraction(1, 5)):
        with pytest.raises(ValueError, match="gamma0 > 1/4"):
            verify_theorem_bound(replace(res, params=ReducerParams(gamma0=gamma0)), GramMatrix([[2, 1], [1, -3]]))


def test_bound_report_counts_excess_definite_blocks():
    # definite blocks less max(sigma - 1, 0)
    cases = [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], True, 0),  # two definite blocks, sigma 3
        ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], False, 1),  # one definite block, sigma 1
        # a plane between two scalars: no definite block, sigma 2
        ([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], True, -1),
    ]
    for rows, sign, excess in cases:
        g = GramMatrix(rows)
        res = reduce(g, ReducerParams(sign_strategy=sign))
        assert res.reduced == g
        rep = verify_theorem_bound(res, g)
        assert (rep.excess_definite, rep.signature) == (excess, signature_via_sturm(g).signature)


def test_verify_theorem_bound_reads_the_blocks_off_the_gram():
    """On box/68 taken as its own result (U = I, congruent but not
    reduced) the bound fails (lhs 8 against about 6.37), and no edit of
    the result's block kinds or rank makes it hold: the definite blocks
    come from the reduced Gram, and a rank with nonzero rows past it is
    refused.  Both edits used to read holds=True, with Sigma N_i = 3, and
    with lhs = rhs = 2."""
    g = GramMatrix([[-2, -2, -2], [-2, 0, 1], [-2, 1, 1]])
    res = replace(reduce(g), transform=mat_identity(3), reduced=g)
    rep = verify_theorem_bound(res, g)
    assert (rep.holds, rep.lhs, rep.sum_definite, rep.rhs) == (False, 8, 0, 6 / Fraction(99, 100) ** 6)
    assert verify_theorem_bound(replace(res, block_kinds=["definite", "definite"]), g) == rep
    with pytest.raises(ValueError, match="nonzero row past its rank 1"):
        verify_theorem_bound(replace(res, rank=1, block_kinds=[]), g)


def test_verify_theorem_bound_refuses_a_singular_leading_block():
    # a result that claims rank 2 for a rank-1 input: the leading block
    # [[1, 0], [0, 0]] is singular, so its GSO is inadmissible
    g = GramMatrix([[1, 1], [1, 1]])
    res = replace(reduce(g), rank=2)
    with pytest.raises(InternalInvariantError, match="nondegenerate determinant vanished"):
        verify_theorem_bound(res, g)
    # a nonsingular but inadmissible leading block keeps the GSO's error
    h = GramMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    fake = replace(reduce(h), transform=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], reduced=h)
    with pytest.raises(InadmissiblePrefixError) as exc:
        verify_theorem_bound(fake, h)
    assert exc.value.index == 0


def test_hermitian_embed():
    assert hermitian_embed([[(2, 0)]]).rows == [[2, 0], [0, 2]]
    h = hermitian_embed([[(0, 0), (0, 1)], [(0, -1), (0, 0)]])
    assert h.rows == [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ]
    assert hermitian_embed([[(1, 0), (0, 0)], [(0, 0), (1, 0)]]) == GramMatrix.identity(4)
    with pytest.raises(ValueError):
        hermitian_embed([[(0, 1)]])  # imaginary diagonal
    with pytest.raises(ValueError):
        hermitian_embed([[(0, 0), (1, 1)], [(1, 1), (0, 0)]])  # not Hermitian


def test_hermitian_embed_doubles_signature():
    # eigenvalue signs double under the embedding
    rng = random.Random(3)
    for _ in range(10):
        d = rng.randrange(1, 4)
        re = [[0] * d for _ in range(d)]
        im = [[0] * d for _ in range(d)]
        for i in range(d):
            re[i][i] = rng.randrange(-5, 6)
            for j in range(i + 1, d):
                re[i][j] = re[j][i] = rng.randrange(-5, 6)
                im[i][j] = rng.randrange(-5, 6)
                im[j][i] = -im[i][j]
        entries = [[(re[i][j], im[i][j]) for j in range(d)] for i in range(d)]
        emb = hermitian_embed(entries)
        inv = signature_via_sturm(emb)
        # each complex eigenvalue appears twice
        assert inv.n_plus % 2 == 0 and inv.n_minus % 2 == 0
        if all(x == 0 for row in im for x in row):
            real_inv = signature_via_sturm(GramMatrix(re))
            assert inv.n_plus == 2 * real_inv.n_plus
            assert inv.n_minus == 2 * real_inv.n_minus


def test_remove_hyperbolic_plane():
    g3 = GramMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    out, u = remove_hyperbolic_plane(g3)
    assert out == GramMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert abs(mat_det(u)) == 1
    # editing what one call returned leaves the next call's result alone
    out.rows[0][0] = 7
    u[0][0] = 5
    assert remove_hyperbolic_plane(g3) == (GramMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                           [[1, 1, 1], [1, 1, 0], [-1, 0, -1]])
    half = Fraction(1, 2)
    out, _ = remove_hyperbolic_plane(
        GramMatrix([[1, 0, 0], [0, 0, half], [0, half, 0]])
    )
    assert out.rows == [
        [0, half, half],
        [half, 1, half],
        [half, half, 1],
    ]
    with pytest.raises(ValueError):
        remove_hyperbolic_plane(GramMatrix([[1, 0, 0], [0, 0, -1], [0, -1, 0]]))
    with pytest.raises(ValueError):
        remove_hyperbolic_plane(GramMatrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]]))


def test_automorphy_infinite_order():
    uk = AUTOMORPHIC_U
    for k in range(1, 7):
        assert AUTOMORPHIC_G.congruence(uk) == AUTOMORPHIC_G
        assert uk[0][0] == Fraction((-1) ** k + 7 + 2 * k * k, 8)
        uk = mat_mul(uk, AUTOMORPHIC_U)
    identity = GramMatrix.identity(2)
    assert identity.congruence([[1, 0], [0, 1]]) == identity
    assert identity.congruence([[1, 1], [0, 1]]) != identity
