import copy
import random
from fractions import Fraction

import pytest

import fraction_gso as ref
from indeflll import analysis, gram as gram_module
from indeflll.errors import InadmissiblePrefixError, LatticeError
from indeflll.generators import gen_hyperbolic_stack, gen_random_unimodular, gen_worstcase
from indeflll.gram import (
    GramMatrix,
    auto_gso,
    mat_det,
    mat_transpose,
)
from indeflll.reducer import ReducerState, cleanup_size_reduce, reduce, reduce_baseline
from test_reducer import _criterion_2_inputs, _exactness_corpus, mat_mul


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        GramMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        GramMatrix([[1, 2]])
    g = GramMatrix([[Fraction(4, 2), 1], [1, 0]])
    assert g.rows[0][0] == 2 and isinstance(g.rows[0][0], int)


def test_gram_matrix_is_unhashable():
    # its rows are lists that the congruence and the reducer edit in place
    with pytest.raises(TypeError):
        hash(GramMatrix([[1]]))


def test_mat_det_oracle():
    assert mat_det([[1, 2], [3, 4]]) == -2
    assert mat_det([[Fraction(1, 2), 0], [0, 4]]) == 2
    assert mat_det([[0, 1], [1, 0]]) == -1
    rng = random.Random(9)
    for _ in range(50):
        d = rng.randrange(1, 6)
        m = [[rng.randrange(-6, 7) for _ in range(d)] for _ in range(d)]
        # expansion oracle by permutations
        import itertools

        def perm_det(mm):
            total = 0
            for perm in itertools.permutations(range(len(mm))):
                sgn = 1
                seen = list(perm)
                for i in range(len(seen)):
                    for j in range(i + 1, len(seen)):
                        if seen[i] > seen[j]:
                            sgn = -sgn
                prod = 1
                for i, p in enumerate(perm):
                    prod *= mm[i][p]
                total += sgn * prod
            return total

        assert mat_det(m) == perm_det(m)


def _cut_copy(st, upto):
    """The GSO of the leading `upto` positions that `st` holds, one fewer
    when that would split a plane: `cut` applied to a copy."""
    out = copy.deepcopy(st)
    out.cut(upto)
    return out


def _stars_from_theta(st, rows):
    """Each star vector of `st` and its star norm, from the library's one
    rational view: v*_i is v_i less theta against the blocks before its
    own, and its norm is the residual norm there."""
    out = []
    for i in range(st.upto):
        start = i - 1 if (i - 1) in st.bad else i
        theta, norm = _cut_copy(st, start).theta_and_residual_norm(rows[i][:start], rows[i][i])
        vec = [-t for t in theta] + [Fraction(0)] * (st.upto - start)
        vec[i] = Fraction(1)
        out.append((vec, norm))
    return out


def test_basic_gso_examples():
    st = auto_gso(GramMatrix([[1, 0], [0, -1]]))
    assert (st.dets, st.lam) == ([1, -1], [[1], [0, -1]]) and not st.bad

    rows = [[1, 1], [1, 2]]
    st = auto_gso(GramMatrix(rows))
    assert _stars_from_theta(st, rows)[1] == ([-1, 1], 1)
    assert (st.dets, st.lam) == ([1, 1], [[1], [1, 1]])

    # a plane: both positions hold -alpha^2, and A = lam[1][0] = alpha
    st = auto_gso(GramMatrix([[0, 5], [5, 0]]))
    assert (st.dets, st.lam, st.bad) == ([-25, -25], [[0], [5, 0]], {0})


def test_gso_orthogonality_invariant():
    rng = random.Random(13)
    done = 0
    while done < 40:
        d = rng.randrange(2, 6)
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = rng.randrange(-8, 9)
        g = GramMatrix(rows)
        try:
            st = auto_gso(g)
        except InadmissiblePrefixError:
            continue
        done += 1
        stars, norms = zip(*_stars_from_theta(st, rows))

        def b(x, y):
            return sum(
                x[i] * sum(y[j] * rows[i][j] for j in range(d) if y[j])
                for i in range(d)
                if x[i]
            )

        for i in range(d):
            # companion identity: b(v*_i, v*_i) = b(v*_i, v_i)
            ei = [Fraction(1) if m == i else Fraction(0) for m in range(d)]
            assert b(stars[i], stars[i]) == norms[i]
            assert b(stars[i], ei) == norms[i]
            # dets[i] / D'_i at a scalar position, 0 inside a plane
            assert norms[i] == (Fraction(st.dets[i], st.before(i)) if st.is_scalar(i) else 0)
            for j in range(i):
                expect_zero = not (j in st.bad and i == j + 1)
                if expect_zero:
                    assert b(stars[i], stars[j]) == 0
                else:  # alpha_j = A_j / D'_j
                    assert b(stars[i], stars[j]) == Fraction(st.lam[i][j], st.before(j)) != 0


def test_inadmissible_detection():
    with pytest.raises(InadmissiblePrefixError):
        auto_gso(GramMatrix([[0, 0], [0, 1]]))
    with pytest.raises(InadmissiblePrefixError):
        auto_gso(GramMatrix([[0]]))


def test_prefix_determinant():
    assert auto_gso(GramMatrix([[1, 0], [0, -1]])).det == -1
    st = auto_gso(GramMatrix([[0, 3], [3, 0]]))
    # a cut inside the plane drops it whole
    assert st.det == -9 and _cut_copy(st, 0).det == _cut_copy(st, 1).det == 1
    assert auto_gso(GramMatrix([[1, 1], [1, 2]])).det == 1

    # agreement with the fraction-free determinant on random admissibles
    rng = random.Random(21)
    done = 0
    while done < 30:
        d = rng.randrange(2, 6)
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = rng.randrange(-7, 8)
        g = GramMatrix(rows)
        try:
            st = auto_gso(g)
        except InadmissiblePrefixError:
            continue
        for upto in range(d + 1):
            if upto > 0 and (upto - 1) in st.bad:
                continue
            assert _cut_copy(st, upto).det == mat_det([r[:upto] for r in rows[:upto]])
            if upto < d and upto not in st.bad:
                # a scalar extension multiplies the determinant by the
                # residual norm of the new vector against the prefix
                _, residual = _cut_copy(st, upto).theta_and_residual_norm(rows[upto][:upto], rows[upto][upto])
                assert _cut_copy(st, upto + 1).det == _cut_copy(st, upto).det * residual != 0
        done += 1


def test_truncation_matches_fresh_gso():
    """A GSO of a longer prefix, cut to `upto` on a copy, equals the GSO
    built afresh for the leading `upto` positions, planes included; a cut
    inside a plane drops the whole plane."""
    rng = random.Random(2)
    grams, planes, split = [], 0, 0
    while len(grams) < 30:
        d = rng.randrange(3, 7)
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = rng.randrange(-6, 7)
        grams.append(GramMatrix(rows))
    grams += [_flagged_prefix(rng, rng.randrange(2, 7)) for _ in range(30)]
    for g in grams:
        try:
            full = auto_gso(g)
        except InadmissiblePrefixError:
            continue
        for longer in range(g.dim + 1):
            if _unsplit(full.bad, longer) < longer:
                continue
            held = auto_gso(g, longer)
            for upto in range(longer + 1):
                keep = _unsplit(held.bad, upto)
                cut = _cut_copy(held, upto)
                assert cut == auto_gso(g, keep) and len(cut.lam) == cut.upto == keep
                planes += len(cut.bad)
                split += keep < upto
    assert planes > 50 and split > 20, (planes, split)  # measured: 110 and 57


def test_local_potential_examples():
    def potential(st):
        return Fraction(*st.potential())

    assert potential(auto_gso(GramMatrix.zeros(0))) == 1
    assert potential(auto_gso(GramMatrix([[-7]]))) == 7
    assert potential(auto_gso(GramMatrix([[0, 5], [5, 0]]))) == 125
    # scalar then plane: |n| * (|alpha|^3 * n^2)
    assert potential(auto_gso(GramMatrix([[3, 0, 0], [0, 0, 2], [0, 2, 0]]))) == 3 * 8 * 9
    # a plane not orthogonal to the scalar before it: alpha = 3, D' = 2
    assert potential(auto_gso(GramMatrix([[2, 2, 0], [2, 2, 3], [0, 3, 0]]))) == 2 * 27 * 4


def _theta(gram, products):
    """theta with gram * theta = products, from the GSO of `gram` (the
    norm only enters the residual, so any placeholder works)."""
    return auto_gso(gram).theta_and_residual_norm(products, 0)[0]


def test_theta_vector_examples():
    assert _theta(GramMatrix([[2]]), [1]) == [Fraction(1, 2)]
    assert _theta(GramMatrix([[0, 1], [1, 0]]), [3, 5]) == [5, 3]
    assert _theta(GramMatrix([[1, 1], [1, 2]]), [0, 1]) == [-1, 1]


def test_theta_vector_solves_system():
    rng = random.Random(41)
    done = 0
    while done < 40:
        d = rng.randrange(1, 5)
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = rng.randrange(-5, 6)
        g = GramMatrix(rows)
        try:
            auto_gso(g)
        except InadmissiblePrefixError:
            continue
        products = [Fraction(rng.randrange(-9, 10)) for _ in range(d)]
        theta = _theta(g, products)
        for i in range(d):
            assert sum(Fraction(rows[i][j]) * theta[j] for j in range(d)) == products[i]
        done += 1


def test_classify_examples():
    # the three kinds of an extra vector, from its raw products and norm:
    # a nonzero residual, a zero residual with a non-integral theta
    # (adherent), and a zero residual with an integral theta (a prefix zero)
    one, two = auto_gso(GramMatrix([[1]])), auto_gso(GramMatrix([[2]]))
    assert one.theta_and_residual_norm([0], 5) == ([0], 5)
    assert one.theta_and_residual_norm([1], 1) == ([1], 0)
    assert two.theta_and_residual_norm([1], Fraction(1, 2)) == ([Fraction(1, 2)], 0)
    # all-zero vector is a prefix zero against anything
    assert two.theta_and_residual_norm([0], 0) == ([0], 0)


def test_classify_invariances():
    prefix = GramMatrix([[2, 1], [1, 3]])
    st = auto_gso(prefix)
    rng = random.Random(6)
    zeros = integral = 0
    for _ in range(60):
        p = [Fraction(rng.randrange(-6, 7)) for _ in range(2)]
        norm = Fraction(rng.randrange(-9, 10))
        if rng.random() < 0.5:  # a rational multiple of a prefix vector: residual 0
            c = [Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 5))) for _ in range(2)]
            p = [sum(c[j] * prefix.rows[j][i] for j in range(2)) for i in range(2)]
            norm = sum(c[i] * p[i] for i in range(2))
        theta, residual = st.theta_and_residual_norm(p, norm)
        zeros += residual == 0
        integral += residual == 0 and all(t.denominator == 1 for t in theta)
        # integer scaling of the vector scales theta and the residual
        # norm, so a zero residual stays zero
        lam = rng.choice((-3, -2, 2, 3))
        scaled = st.theta_and_residual_norm([lam * x for x in p], lam * lam * norm)
        assert scaled == ([lam * t for t in theta], lam * lam * residual)
        # adding basis vectors shifts theta by the integer coefficients and
        # keeps the residual norm, so an integral theta stays integral
        shift = [rng.randrange(-2, 3) for _ in range(2)]
        p2 = [
            p[i] + sum(shift[j] * prefix.rows[j][i] for j in range(2))
            for i in range(2)
        ]
        norm2 = (
            norm
            + 2 * sum(shift[i] * p[i] for i in range(2))
            + sum(
                shift[i] * shift[j] * prefix.rows[i][j]
                for i in range(2)
                for j in range(2)
            )
        )
        assert st.theta_and_residual_norm(p2, norm2) == ([t + c for t, c in zip(theta, shift)], residual)
    assert zeros > 20 and 0 < integral < zeros


def test_extend_admissible():
    # a scalar extension of an admissible prefix multiplies its
    # determinant by the residual norm of the new vector
    empty = auto_gso(GramMatrix.zeros(0))
    assert empty.theta_and_residual_norm([], 3)[1] == 3
    assert auto_gso(GramMatrix([[3]])).det == 3

    one = auto_gso(GramMatrix([[1]]))
    assert one.theta_and_residual_norm([0], -2)[1] == -2
    assert auto_gso(GramMatrix([[1, 0], [0, -2]])).det == -2

    # adherent vector: product 1 against diag(1) with norm 1 has a zero
    # residual, so it cannot extend the prefix as a scalar
    assert one.theta_and_residual_norm([1], 1)[1] == 0
    with pytest.raises(InadmissiblePrefixError):
        auto_gso(GramMatrix([[1, 1], [1, 1]]))


def test_congruence_helper():
    g = GramMatrix([[2, 1], [1, 2]])
    u = [[1, 1], [0, 1]]
    out = g.congruence(u)
    ut = mat_transpose(u)
    assert out.rows == mat_mul(ut, mat_mul(g.rows, u))


def test_congruence_matches_plain_product():
    def plain(g, u):
        return mat_mul(mat_transpose(u), mat_mul(g.rows, u))

    assert GramMatrix.zeros(0).congruence([]).rows == []
    rng = random.Random(23)
    for _ in range(40):
        d = rng.randrange(1, 7)
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 4, 6)))
        g = GramMatrix(rows)
        u = [[rng.randrange(-5, 6) for _ in range(d)] for _ in range(d)]
        # the second call takes the first's product over, and equals it
        for out in (g.congruence(u), g.congruence(u)):
            assert out.rows == plain(g, u)
            # entries with denominator 1 come back as ints, as GramMatrix keeps them
            assert all(type(x) is int or x.denominator > 1 for row in out.rows for x in row)
    for seed in range(4):
        g = gen_worstcase(5).congruence(gen_random_unimodular(10, 30, seed))
        r = reduce(g)
        assert max(abs(x).bit_length() for row in r.transform for x in row) > 500
        for _ in range(2):
            assert g.congruence(r.transform).rows == plain(g, r.transform) == r.reduced.rows


def count_products(monkeypatch) -> list[int]:
    """A one-item counter of the products `GramMatrix.congruence`
    multiplies out, counted at `gram._symmetric_product`."""
    calls = [0]
    product = gram_module._symmetric_product

    def counted(xs, ys):
        calls[0] += 1
        return product(xs, ys)

    monkeypatch.setattr(gram_module, "_symmetric_product", counted)
    return calls


def test_congruence_forms_each_product_once(monkeypatch):
    calls = count_products(monkeypatch)
    g = GramMatrix([[2, 1, 0], [1, -3, 4], [0, 4, 5]])
    u = [[1, 2, 0], [0, 1, 0], [1, -1, 1]]
    first = g.congruence(u)
    assert g.congruence(u) == first and calls[0] == 1
    # a distinct matrix with equal entries, or a view of the same rows,
    # keeps no product of the first
    assert GramMatrix(g.copy_rows()).congruence(u) == first and calls[0] == 2
    assert GramMatrix.trusted(g.rows).congruence(u) == first and calls[0] == 3
    # another transform replaces the one product kept
    v = mat_transpose(u)
    assert g.congruence(v).rows == mat_mul(u, mat_mul(g.rows, v)) and calls[0] == 4
    assert g.congruence(u) == first and calls[0] == 5


def test_congruence_sees_entries_edited_in_place(monkeypatch):
    calls = count_products(monkeypatch)
    g = GramMatrix([[2, 1], [1, -3]])
    u = [[1, 1], [0, 1]]
    g.congruence(u)
    g.rows[0][1] = g.rows[1][0] = 5
    assert g.congruence(u).rows == mat_mul(mat_transpose(u), mat_mul(g.rows, u)) and calls[0] == 2
    u[1][0] = -2
    assert g.congruence(u).rows == mat_mul(mat_transpose(u), mat_mul(g.rows, u)) and calls[0] == 3


def test_congruence_returns_a_fresh_matrix():
    g = GramMatrix([[2, 1], [1, -3]])
    u = [[1, 1], [0, 1]]
    first = g.congruence(u)
    want = first.copy_rows()
    first.rows[0][0] = 99
    first.rows[1] = [0, 0]
    again = g.congruence(u)
    assert again.rows == want and again is not first


def count_eliminations(monkeypatch) -> list[int]:
    """A one-item counter of the symmetric eliminations run, counted at
    `gram._congruent_leading_minors` (the signature oracle's binding of
    it included)."""
    calls = [0]
    eliminate = gram_module._congruent_leading_minors

    def counted(a):
        calls[0] += 1
        return eliminate(a)

    monkeypatch.setattr(gram_module, "_congruent_leading_minors", counted)
    monkeypatch.setattr(analysis, "_congruent_leading_minors", counted)
    return calls


def test_leading_minors_are_formed_once_per_entries(monkeypatch):
    eliminations, products = count_eliminations(monkeypatch), count_products(monkeypatch)
    g = GramMatrix([[2, 1, 0], [1, -3, 4], [0, 4, 5]])
    u = [[1, 2, 0], [0, 1, 0], [1, -1, 1]]
    minors = g.leading_minors()
    assert minors == (2, -7, -67) and minors[-1] == mat_det(g.rows)
    g.congruence(u)
    assert g.leading_minors() == minors and g.congruence(u) and (eliminations, products) == ([1], [1])
    # a distinct matrix with equal entries keeps no minors of the first
    assert GramMatrix(g.copy_rows()).leading_minors() == minors and eliminations == [2]
    # an entry edited in place misses both results kept under the one snapshot
    g.rows[2][2] = -5
    assert g.leading_minors() == (2, -7, 3) == (2, -7, mat_det(g.rows)) and eliminations == [3]
    assert g.congruence(u).rows == mat_mul(mat_transpose(u), mat_mul(g.rows, u)) and products == [2]
    assert g.leading_minors() == (2, -7, 3) and eliminations == [3]
    with pytest.raises(ValueError, match="integral"):
        GramMatrix([[Fraction(1, 2), 0], [0, 1]]).leading_minors()


def test_last_leading_minor_is_the_determinant():
    """D_dim of the shared elimination is det G, with `mat_det`'s Bareiss
    elimination as the independent reference, and a singular G has fewer
    minors than its dimension."""
    singular = 0
    for g in _exactness_corpus() + _criterion_2_inputs():
        minors, det = g.leading_minors(), mat_det(g.rows)
        if det:
            assert len(minors) == g.dim and minors[-1] == det, g
        else:
            assert len(minors) < g.dim, g
            singular += 1
    assert singular == 8


def _flagged_prefix(rng, d):
    """Block diagonal of hyperbolic planes and nonzero scalars, congruent
    by a unit upper-triangular integer matrix that adds no plane vector
    to its partner: each position keeps its star vector, so the prefix
    stays admissible with the same planes."""
    rows = [[0] * d for _ in range(d)]
    u = [[1 if r == c else (rng.randrange(-2, 3) if r < c else 0) for c in range(d)] for r in range(d)]
    i = 0
    while i < d:
        if i + 1 < d and rng.random() < 0.4:
            rows[i][i + 1] = rows[i + 1][i] = rng.choice((-3, -2, -1, 1, 2, 3))
            u[i][i + 1] = 0
            i += 2
        else:
            rows[i][i] = rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
            i += 1
    return GramMatrix(rows).congruence(u)


def test_residual_norm_matches_fraction_reference():
    # theta and the residual norm of rational products and norms, over
    # prefixes with planes
    rng = random.Random(17)
    planes = 0
    for _ in range(80):
        d = rng.randrange(1, 7)
        g = _flagged_prefix(rng, d)
        st, old = auto_gso(g), ref._build_gso(g, d)
        planes += len(st.bad)
        for _ in range(5):
            raw = [Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 2, 3))) for _ in range(d)]
            norm = rng.choice((rng.randrange(-20, 21), Fraction(rng.randrange(-20, 21), 3)))
            assert st.theta_and_residual_norm(raw, norm) == old.theta_and_residual_norm(raw, norm)
        # a combination of prefix vectors has residual 0
        coeffs = [rng.randrange(-3, 4) for _ in range(d)]
        rows = g.rows
        raw = [sum(coeffs[j] * rows[j][i] for j in range(d)) for i in range(d)]
        norm = sum(coeffs[i] * raw[i] for i in range(d))
        assert st.theta_and_residual_norm(raw, norm)[1] == 0 == old.residual_norm(raw, norm)
    assert planes > 20


def _unsplit(bad, n: int) -> int:
    """`n`, one less when it would split the hyperbolic plane at n - 1."""
    return n - 1 if n and (n - 1) in bad else n


def test_gso_cut_drops_whole_planes():
    """`GsoState.cut(first)` keeps, in place, the GSO of the leading
    `first` positions, one fewer when that would split a plane; a cut at
    or past `upto` changes nothing."""
    rng = random.Random(29)
    split = 0
    for _ in range(60):
        d = rng.randrange(1, 8)
        g = _flagged_prefix(rng, d)
        full = auto_gso(g)
        for first in range(d + 2):
            st = copy.deepcopy(full)
            lam = st.lam
            st.cut(first)
            keep = _unsplit(full.bad, min(first, d))
            assert st == auto_gso(g, keep) and st.lam is lam
            split += keep < first <= d
    assert split > 20


def test_refused_build_leaves_previous_as_it_was():
    """A build that meets a non-integral row raises before it changes the
    state it was given."""
    rng = random.Random(37)
    for _ in range(20):
        g = _flagged_prefix(rng, 6)
        previous = auto_gso(g, _unsplit(auto_gso(g).bad, rng.randrange(0, 5)))
        lists = (previous.lam, previous.dets)
        before = copy.deepcopy(previous)
        rows = g.copy_rows()
        i = rng.randrange(previous.upto, 6)
        j = rng.randrange(0, i + 1)
        rows[i][j] = rows[j][i] = rows[i][j] + Fraction(1, 2)
        for upto in range(i + 1, 7):
            with pytest.raises(ValueError):
                auto_gso(GramMatrix(rows), upto, previous)
            assert previous == before and previous.reused == before.reused
            assert all(a is b for a, b in zip((previous.lam, previous.dets), lists))


def test_gso_from_previous_state_matches_fresh():
    rng = random.Random(23)
    reused = 0
    for _ in range(150):
        d = rng.randrange(2, 8)
        g = _flagged_prefix(rng, d)
        # change the rows from `start` on, keeping the matrix symmetric
        start = rng.randrange(0, d + 1)
        rows = g.copy_rows()
        for i in range(start, d):
            for j in range(d):
                if rng.random() < 0.5:
                    rows[i][j] = rows[j][i] = rows[i][j] + rng.randrange(-2, 3)
        g2 = GramMatrix(rows)
        full = auto_gso(g)
        cuts = [u for u in range(d + 1) if not (u > 0 and (u - 1) in full.bad)]
        previous = auto_gso(g, rng.choice(cuts))
        # the rows from `start` on changed, so a copy cut there is a GSO of
        # the new Gram; a build takes the state it is given over
        want = _unsplit(previous.bad, min(previous.upto, start))
        for upto in range(d + 1):
            taken = copy.deepcopy(previous)
            taken.cut(start)
            try:
                fresh = auto_gso(g2, upto)
            except InadmissiblePrefixError as exc:
                with pytest.raises(InadmissiblePrefixError) as again:
                    auto_gso(g2, upto, taken)
                assert (str(again.value), again.value.index) == (str(exc), exc.index)
                continue
            built = auto_gso(g2, upto, taken)
            assert built is taken and built == fresh  # every field but `reused`
            assert built.reused == _unsplit(previous.bad, min(upto, want))
            reused += built.reused
    assert reused > 100


def _assert_same_gso(new, old, tails=()):
    """The integral GSO `new` and the Fraction reference `old` describe the
    same prefix: the same dets and lambda rows, read off the reference's
    star vectors, and the same residual norm and theta for every
    (raw products, norm) in `tails`."""
    assert (new.upto, new.bad) == (old.upto, old.bad)
    assert (new.dets, new.lam) == ref.dets_and_lam(old)
    for upto in range(new.upto + 1):
        if not (upto and (upto - 1) in new.bad):
            assert _cut_copy(new, upto).det == ref.prefix_determinant(old, upto)
    assert Fraction(*new.potential()) == ref.local_potential(old)
    for raw, norm in tails:
        assert new.theta_and_residual_norm(raw, norm) == old.theta_and_residual_norm(raw, norm)


def _tails(gram, upto):
    return [(gram.rows[t][:upto], gram.rows[t][t]) for t in range(upto, gram.dim)]


def _compare_build(gram, upto, previous=(None, None), tails=(), first=0):
    """Build the integral GSO and the reference from the same previous
    states, or check that both refuse the prefix with the same message
    and index.  The integral build takes over a copy of its previous
    state, cut at `first`, the first row of `gram` that changed since,
    and the reference as many rows as it finds unchanged by comparing
    them.  Returns the two states, or None."""
    def build():
        taken = copy.deepcopy(previous[0])
        if taken is not None:
            taken.cut(first)
        return auto_gso(gram, upto, taken)

    try:
        old = ref._build_gso(gram, upto, previous[1])
    except InadmissiblePrefixError as exc:
        with pytest.raises(InadmissiblePrefixError) as again:
            build()
        assert (str(again.value), again.value.index) == (str(exc), exc.index)
        return None
    new = build()
    assert new.reused == old.reused
    _assert_same_gso(new, old, tails)
    return new, old


def _twin(state):
    twin = copy.copy(state)
    twin.u = [row[:] for row in state.u]
    twin.gc = [row[:] for row in state.gc]
    twin.carry = {}  # a carried row belongs to the state's own next clean-up
    return twin


def _check_refreshes(monkeypatch):
    """Compare every prefix refresh of the reducer and the baseline on the
    exactness corpus with the reference, with the residual and theta of
    every tail vector, and size-reduce each tail vector on two copies of
    the state, through the reducer and through the reference."""
    original = ReducerState.refresh_prefix_gso
    seen = {"refreshes": 0, "planes": 0, "moved": 0}

    def refresh(self, prefix):
        gram = GramMatrix(self.gc)
        try:
            old = ref._build_gso(gram, prefix)
        except InadmissiblePrefixError as exc:
            with pytest.raises(InadmissiblePrefixError) as again:
                original(self, prefix)
            assert (str(again.value), again.value.index) == (str(exc), exc.index)
            raise
        new = original(self, prefix)
        _assert_same_gso(new, old, _tails(gram, prefix))
        for pos in range(prefix, self.d):
            a, b = _twin(self), _twin(self)
            row, rho, zero = cleanup_size_reduce(a, pos)
            rnorm, old_zero = ref.cleanup_size_reduce(b, pos, old)
            assert (a.u, a.gc, zero) == (b.u, b.gc, old_zero)
            assert rho == rnorm * new.det
            # lam_{w,m} = D'_m b(w, v*_m) of the reduced vector
            assert row == [old.star_product(b.gc[pos], m) * new.before(m) for m in range(prefix)]
            seen["moved"] += a.u != self.u
        seen["refreshes"] += 1
        seen["planes"] += len(new.bad)
        return new

    monkeypatch.setattr(ReducerState, "refresh_prefix_gso", refresh)
    for g in _exactness_corpus():
        reduce(g)
        try:
            reduce_baseline(g)
        except LatticeError:
            pass
    monkeypatch.undo()
    assert seen["refreshes"] > 1500 and seen["planes"] > 200 and seen["moved"] > 5000


def _rational(rng, rows, dens):
    return GramMatrix([[Fraction(x, rng.choice(dens)) if i == j else Fraction(x, dens[-1])
                        for j, x in enumerate(row)] for i, row in enumerate(rows)])


def _changed(rng, gram):
    """`gram` with some entries changed from a random row on, symmetrically,
    and the first row that changed through the diagonal, where a move
    would cut the GSO."""
    rows = gram.copy_rows()
    for i in range(rng.randrange(0, gram.dim + 1), gram.dim):
        for j in range(gram.dim):
            if rng.random() < 0.5:
                rows[i][j] = rows[j][i] = rows[i][j] + rng.randrange(-2, 3)
    first = next((i for i, (a, b) in enumerate(zip(rows, gram.rows)) if a[: i + 1] != b[: i + 1]), gram.dim)
    return GramMatrix(rows), first


def test_integral_gso_matches_fraction_gso(monkeypatch):
    _check_refreshes(monkeypatch)
    rng = random.Random(31)
    # plain and scrambled hyperbolic stacks, planes under a unit
    # triangular congruence and a scrambled worst case
    stacks = [gen_hyperbolic_stack(n, [rng.choice((1, 2, 3, -2)) for _ in range(n)]) for n in (1, 2, 3)]
    grams = stacks + [g.congruence(gen_random_unimodular(g.dim, 20, 40 + i)) for i, g in enumerate(stacks)]
    grams += [_flagged_prefix(rng, rng.randrange(2, 8)) for _ in range(60)]
    grams.append(gen_worstcase(3).congruence(gen_random_unimodular(6, 10, 7)))
    # the GSO takes integral Grams only
    for _ in range(20):
        g = _rational(rng, _flagged_prefix(rng, 5).rows, (1, 2, 3, 6))
        with pytest.raises(ValueError):
            auto_gso(g)
    planes = 0
    for g in grams:
        full = _compare_build(g, g.dim, tails=[(row, rng.randrange(-9, 10)) for row in g.rows])
        for upto in range(g.dim + 1):
            pair = _compare_build(g, upto, tails=_tails(g, upto))
            if pair is None:
                continue
            new, old = pair
            planes += len(new.bad)
            if full is not None:
                _assert_same_gso(_cut_copy(full[0], upto), ref.GsoState.truncated(full[1], upto))
            # reuse from this state on a changed Gram
            for _ in range(2):
                changed, first = _changed(rng, g)
                _compare_build(changed, rng.randrange(0, g.dim + 1), pair, first=first)
    assert planes > 150
