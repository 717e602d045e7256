"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact (integer or rational comparison) and the
stated wall-clock budgets are asserted.
"""

import random
import time
from fractions import Fraction
from math import gcd

from indeflll.analysis import signature_via_sturm, verify_theorem_bound
from indeflll.cli import _int_nth_root
from indeflll.gram import GramMatrix, auto_gso, mat_det, mat_transpose
from indeflll.generators import (
    SAMPLE_LARGE_SIGNATURE_10,
    SAMPLE_RANDOM_10,
    gen_hyperbolic_stack,
    gen_random_symmetric,
    gen_random_unimodular,
    gen_worstcase,
)
from indeflll.qform import (
    BQForm,
    IntegralWalk,
    apply as qf_apply,
    reduce_definite,
    reduce_indefinite,
    reduce_square_disc,
)
from indeflll.analysis import remove_hyperbolic_plane
from indeflll.numerics import is_rational_square
from indeflll.reducer import ReducerParams, first_unreduced_block, reduce, reduce_baseline
from test_reducer import mat_mul

WORSTCASE_10_VERBATIM = GramMatrix([
    [32768, 16384, 0, 0, 0, 0, 0, 0, 0, 0],
    [16384, 32768, 12288, 0, 0, 0, 0, 0, 0, 0],
    [0, 12288, 24576, 9216, 0, 0, 0, 0, 0, 0],
    [0, 0, 9216, 18432, 6912, 0, 0, 0, 0, 0],
    [0, 0, 0, 6912, 13824, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -10368, -5184, 0, 0, 0],
    [0, 0, 0, 0, 0, -5184, -10368, -3888, 0, 0],
    [0, 0, 0, 0, 0, 0, -3888, -7776, -2916, 0],
    [0, 0, 0, 0, 0, 0, 0, -2916, -5832, -2187],
    [0, 0, 0, 0, 0, 0, 0, 0, -2187, -4374],
])


def blocks_all_reduced(result) -> bool:
    return first_unreduced_block(auto_gso(result.reduced, result.rank)) is None


def test_criterion_1_worstcase_fixed_point():
    t0 = time.perf_counter()
    w = gen_worstcase(5)
    assert w == WORSTCASE_10_VERBATIM, "generator does not reproduce the matrix bit-exactly"
    for sign in (True, False):
        r = reduce(w, ReducerParams(sign_strategy=sign))
        assert r.reduced == w, f"reduction modified the worst case (sign={sign})"
        assert abs(mat_det(r.transform)) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS - worst case d=5 exact and fixed under both strategies ({elapsed:.2f}s)")


def test_criterion_2_worstcase_scrambled():
    t0 = time.perf_counter()
    w = gen_worstcase(5)
    small = 0
    for seed in range(50):
        u = gen_random_unimodular(10, 30, seed)
        assert abs(mat_det(u)) == 1  # the scramble is unimodular
        g = w.congruence(u)
        r = reduce(g)  # sign strategy on by default
        if abs(r.first_entry()) <= 100:
            small += 1
        rep = verify_theorem_bound(r, g)
        assert rep.holds, f"quality bound failed on seed {seed}"
    elapsed = time.perf_counter() - t0
    assert small >= 45, f"only {small}/50 runs reached first norm <= 100"
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2: PASS - scrambled worst case: {small}/50 short, bound exact on all ({elapsed:.1f}s)")


def test_criterion_3_large_signature():
    t0 = time.perf_counter()
    inv = signature_via_sturm(SAMPLE_LARGE_SIGNATURE_10)
    assert inv.signature == 8, f"signature {inv.signature} != 8"
    det = inv.nondeg_det
    root = _int_nth_root(abs(det.numerator), 10)
    assert abs(root - 224) <= 1, f"tenth root {root} not adjacent to 224 (det = {det})"
    firsts = {}
    for sign in (True, False):
        r = reduce(SAMPLE_LARGE_SIGNATURE_10, ReducerParams(sign_strategy=sign))
        firsts[sign] = r.first_entry()
        assert abs(r.first_entry()) <= 4, f"first norm {r.first_entry()} above 4 (sign={sign})"
    base = reduce_baseline(SAMPLE_LARGE_SIGNATURE_10)
    base_first = abs(base.reduced.rows[0][0])
    assert base_first >= 121, f"baseline first norm {base_first} below 121"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 3: PASS - sigma 8, det^(1/10) ~ {root}, exact det {det}, "
        f"firsts {firsts[True]}/{firsts[False]}, baseline {base_first} ({elapsed:.1f}s)"
    )


def test_criterion_4_random_ten():
    t0 = time.perf_counter()
    base = reduce_baseline(SAMPLE_RANDOM_10)
    base_first = abs(base.reduced.rows[0][0])
    # the reference absolute-value implementation attains 9 here; ours
    # must not beat it either (the point is that the indefinite
    # reduction does)
    assert base_first >= 9, f"baseline unexpectedly reached {base_first} < 9"
    units = {}
    for sign in (True, False):
        r = reduce(SAMPLE_RANDOM_10, ReducerParams(sign_strategy=sign))
        assert abs(r.first_entry()) <= 2, f"first norm {r.first_entry()} above 2 (sign={sign})"
        assert abs(r.first_entry()) < base_first
        units[sign] = r.unit_diagonal_count()
    assert units[True] >= 5, f"sign strategy produced {units[True]} unit diagonal entries"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 4: PASS - baseline {base_first} beaten (new <= 2); "
        f"unit diagonals sign/no-sign = {units[True]}/{units[False]} ({elapsed:.1f}s)"
    )


def _corpus():
    """500 deterministic instances: dims 2..12, entries <= 100, with
    degenerate and hyperbolic-stack members."""
    rng = random.Random(20260808)
    out = []
    for i in range(420):
        d = 2 + (i % 11)
        out.append(gen_random_symmetric(d, 100, 7000 + i))
    for i in range(40):  # rank-deficient: M * C * M^T
        d = rng.randrange(2, 9)
        rk = rng.randrange(1, d)
        m = [[rng.randrange(-3, 4) for _ in range(rk)] for _ in range(d)]
        core = [[0] * rk for _ in range(rk)]
        for a in range(rk):
            for b in range(a, rk):
                core[a][b] = core[b][a] = rng.randrange(-10, 11)
        g = GramMatrix(mat_mul(m, mat_mul(core, mat_transpose(m))))
        if all(abs(x) <= 100 for row in g.rows for x in row):
            out.append(g)
        else:
            out.append(gen_random_symmetric(d, 100, 90000 + i))
    for i in range(40):  # scrambled hyperbolic stacks
        n = 1 + (i % 4)
        alphas = [rng.choice((1, 2, 3, -2)) for _ in range(n)]
        g = gen_hyperbolic_stack(n, alphas)
        u = gen_random_unimodular(3 * n, 6, 5000 + i)
        g = g.congruence(u)
        if all(abs(x) <= 100 for row in g.rows for x in row):
            out.append(g)
        else:
            out.append(gen_hyperbolic_stack(n, alphas))
    assert len(out) == 500
    return out


def test_criterion_5_property_corpus():
    t0 = time.perf_counter()
    corpus = _corpus()
    for idx, g in enumerate(corpus):
        params = ReducerParams(sign_strategy=(idx % 2 == 0))
        r = reduce(g, params)
        assert g.congruence(r.transform) == r.reduced, f"congruence failed at {idx}"
        assert abs(mat_det(r.transform)) == 1, f"transform not unimodular at {idx}"
        a = signature_via_sturm(g)
        b = signature_via_sturm(r.reduced)
        assert (a.n_plus, a.n_minus, a.rank) == (b.n_plus, b.n_minus, b.rank), f"signature moved at {idx}"
        assert b.rank == r.rank, f"rank mismatch at {idx}"
        assert blocks_all_reduced(r), f"unreduced block at {idx}"
        for i in range(r.rank, g.dim):
            assert all(x == 0 for x in r.reduced.rows[i]), f"tail not zero at {idx}"
        assert verify_theorem_bound(r, g).holds, f"quality bound failed at {idx}"
        assert r.stats.potential_violations == 0, f"potential increased at {idx}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"criterion 5 took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 5: PASS - 500-instance corpus, all exact properties hold ({elapsed:.0f}s)")


def test_criterion_6_quadratic_form_suite():
    t0 = time.perf_counter()
    rng = random.Random(606)

    # discriminant preservation and transform soundness, 10^4 forms
    checked = 0
    while checked < 10_000:
        f = BQForm(rng.randrange(-100, 101), rng.randrange(-100, 101), rng.randrange(-100, 101))
        d = f.disc
        if d <= 0:
            if d == 0 and not (f.a or f.b or f.c):
                continue
            g, t = reduce_definite(f)
        elif is_rational_square(d) is not None:
            g, t = reduce_square_disc(f)
        else:
            g, t = reduce_indefinite(f, rng.randrange(0, 4))[-1]
        assert g.disc == d
        assert t.det == 1
        assert qf_apply(f, t).coeffs() == g.coeffs()
        checked += 1

    # the 19-digit pathological form reaches reducedness within 200 steps
    f = BQForm(5133516356526721720, -2 * 5133515988396719824, 5133515620266744327)
    walk = IntegralWalk(f)
    *_, (g, _) = walk.descend()
    assert walk.is_reduced(g), "the walk stopped short of a reduced form"
    assert walk.steps <= 200, "two-regime rule exceeded 200 steps"

    # definite reduction reaches the brute-force minimum |a|
    done = 0
    while done < 60:
        a = rng.randrange(1, 21)
        b = rng.randrange(-20, 21)
        c = rng.randrange(1, 21)
        sign = rng.choice((1, -1))
        f = BQForm(sign * a, sign * b, sign * c)
        if f.disc >= 0:
            continue
        g, _ = reduce_definite(f)
        best = None
        for x in range(-50, 51):
            for y in range(-50, 51):
                if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                    continue
                v = abs(f.a * x * x + f.b * x * y + f.c * y * y)
                if best is None or v < best:
                    best = v
        assert abs(g.a) == best
        done += 1

    # cycles with disc <= 10^4 close and alternate leading signs
    cycles = 0
    while cycles < 60:
        f = BQForm(rng.randrange(-20, 21), rng.randrange(-20, 21), rng.randrange(-20, 21))
        d = f.disc
        if not (0 < d <= 10_000) or is_rational_square(d) is not None:
            continue
        g = reduce_indefinite(f, 0)[-1][0]
        start = g.coeffs()
        sign_prev = 1 if g.a > 0 else -1
        length = 0
        while True:
            g, _ = reduce_indefinite(g, 1)[1]  # one cycle move
            s = 1 if g.a > 0 else -1
            assert s == -sign_prev, "leading signs failed to alternate"
            sign_prev = s
            length += 1
            assert length <= 10_000, "cycle did not close"
            if g.coeffs() == start:
                break
        cycles += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 6: PASS - form suite exact over 10^4 samples ({elapsed:.0f}s)")


def test_criterion_7_appendix_checks():
    t0 = time.perf_counter()
    out, u = remove_hyperbolic_plane(GramMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    assert out == GramMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    g = GramMatrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    base = [[1, 0, 1, 1], [-1, 1, 0, -1], [1, -1, -1, 0], [0, 1, 1, 1]]
    uk = base
    for k in range(1, 7):
        if k <= 3:
            assert g.congruence(uk) == g, f"automorphy failed for power {k}"
        assert uk[0][0] == Fraction((-1) ** k + 7 + 2 * k * k, 8), f"entry formula failed at {k}"
        uk = mat_mul(uk, base)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 7: PASS - plane removal and automorphy identities exact ({elapsed:.2f}s)")


def test_criterion_8_heuristic_slack_report():
    # informational monitoring: distribution of sum(N_i) against the
    # signature reference sigma(sigma-1)/2 + dim; not a hard gate
    rng = random.Random(88)
    within = 0
    total = 0
    distribution = []
    for i in range(60):
        d = 2 + (i % 9)
        g = gen_random_symmetric(d, 100, 31000 + i)
        r = reduce(g)  # sign strategy
        inv = signature_via_sturm(g)
        sigma = inv.signature
        bound = sigma * (sigma - 1) // 2 + d
        sum_n = r.sum_definite_exponent()
        distribution.append((d, sigma, sum_n, bound))
        total += 1
        if sum_n <= bound:
            within += 1
    buckets = {}
    for d, sigma, sum_n, bound in distribution:
        buckets.setdefault(sum_n - bound, 0)
        buckets[sum_n - bound] += 1
    print(f"\nACCEPTANCE 8: INFO - sum(N_i) <= sigma(sigma-1)/2 + dim on {within}/{total} runs")
    print(f"  slack distribution (sum_N - bound: count): {dict(sorted(buckets.items()))}")
