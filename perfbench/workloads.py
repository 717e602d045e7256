"""Seeded inputs of the three workloads.

Every instance carries what its construction says about it (rank,
signature, nondegenerate determinant), so the certificate checks never
need the library to tell them what the answer should be.
"""

import random
from dataclasses import dataclass

import exact
from certify import Known

WORSTCASE_PER_ROUND = 36
DENSE_DIM = 16
DENSE_NEG = (0, 1, 2)  # q per instance, cycled: signature d - 2q from d down to 3d/4
DENSE_PER_ROUND = 24
DENSE_ENTRY = 2
BOX_STRIDE = 61
BOX_REPRODUCER = [[-2, -2, -2], [-2, 0, 1], [-2, 1, 1]]
HYPERBOLIC_FIXED = 16
HYPERBOLIC_REPRODUCER = (4, [1, 2, 3, -2], 20, 5000)  # n, alphas, steps, unimodular seed
RANK_DEFICIENT_PER_ROUND = 392  # 28 of each (d, rank) shape

WORKLOADS = ("worstcase_scrambled", "dense_signature", "small_degenerate")


@dataclass
class Instance:
    label: str
    gram: list
    sign_strategy: bool
    known: Known


def worstcase_scrambled(gen, seed):
    """gen_worstcase(5) (d = 10, signature 0) scrambled by
    gen_random_unimodular(10, 30, s), s = n*seed + i for the n inputs of a
    round; seed 0 gives the inputs of the library's acceptance criterion 2."""
    w = gen.gen_worstcase(5).rows
    known = Known(rank=10, n_plus=5, n_minus=5, det=exact.det(w))
    out = []
    for i in range(WORSTCASE_PER_ROUND):
        s = WORSTCASE_PER_ROUND * seed + i
        u = gen.gen_random_unimodular(10, 30, s)
        out.append(Instance(f"worstcase/u{s}", exact.congruent(w, u), True, known))
    return out


def dense_signature(gen, seed):
    """B^T diag(+1^p, -1^q) B for random nonsingular integer B, d = 16.

    q cycles through DENSE_NEG; the sign strategy alternates."""
    rng = random.Random(1_000_003 * seed + 17)
    d = DENSE_DIM
    out = []
    for i in range(DENSE_PER_ROUND):
        q = DENSE_NEG[i % len(DENSE_NEG)]
        while True:
            b = [[rng.randint(-DENSE_ENTRY, DENSE_ENTRY) for _ in range(d)] for _ in range(d)]
            det_b = exact.det(b)
            if det_b:
                break
        signs = [1] * (d - q) + [-1] * q
        gram = [
            [sum(signs[k] * b[k][i_] * b[k][j] for k in range(d)) for j in range(d)]
            for i_ in range(d)
        ]
        known = Known(rank=d, n_plus=d - q, n_minus=q, det=(-1) ** q * det_b * det_b)
        out.append(Instance(f"dense/{i}/q{q}", gram, i % 2 == 0, known))
    return out


def _box_matrix(index):
    digits = []
    for _ in range(6):
        index, r = divmod(index, 5)
        digits.append(r - 2)
    a, b, c, e, f, h = reversed(digits)
    return [[a, b, c], [b, e, f], [c, f, h]]


def _own_known(gram):
    rank, det = exact.nondegenerate_part(gram)
    pos, neg, _ = exact.inertia(gram)
    return Known(rank=rank, n_plus=pos, n_minus=neg, det=det)


def _hyperbolic(gen, n, alphas, steps, useed):
    g = gen.gen_hyperbolic_stack(n, alphas).rows
    u = gen.gen_random_unimodular(3 * n, steps, useed)
    det = 1
    for a in alphas:
        det *= -a * a
    known = Known(rank=3 * n, n_plus=2 * n, n_minus=n, det=det)
    return Instance(f"hyperbolic/n{n}/{alphas}/u{useed}", exact.congruent(g, u), True, known)


def small_degenerate(gen, seed):
    """Many small inputs.

    The 3x3 box sample and the scrambled hyperbolic stacks do not depend
    on the seed: both hold instances that the sign strategy gets wrong
    (the box reproducer fails the first-vector bound, the stack
    reproducer raises), and keeping them fixed makes the share of failed
    operations the same on every seed.  The rank-deficient M*C*M^T
    inputs are drawn from the seed.
    """
    out = []
    box = list(range(0, 5**6, BOX_STRIDE))
    reproducer = next(i for i in range(5**6) if _box_matrix(i) == BOX_REPRODUCER)
    if reproducer not in box:
        box.append(reproducer)
    for index in box:
        g = _box_matrix(index)
        out.append(Instance(f"box/{index}", g, True, _own_known(g)))

    fixed = random.Random(5000)
    for i in range(HYPERBOLIC_FIXED):
        n = 1 + i % 4
        alphas = [fixed.choice((1, 2, 3, -2)) for _ in range(n)]
        out.append(_hyperbolic(gen, n, alphas, fixed.choice((6, 10, 20)), 5001 + i))
    out.append(_hyperbolic(gen, *HYPERBOLIC_REPRODUCER))

    # (d, rank) cycles through every shape with 3 <= d <= 6, so only the
    # entries of M and C depend on the seed
    shapes = [(d, rk) for d in range(3, 7) for rk in range(1, d)]
    rng = random.Random(2_000_003 * seed + 29)
    for i in range(RANK_DEFICIENT_PER_ROUND):
        d, rk = shapes[i % len(shapes)]
        while True:
            m = [[rng.randint(-2, 2) for _ in range(rk)] for _ in range(d)]
            core = [[0] * rk for _ in range(rk)]
            for a in range(rk):
                for b in range(a, rk):
                    core[a][b] = core[b][a] = rng.randint(-6, 6)
            # full column rank of M and a nonsingular core give rank rk
            if exact.det(core) and exact.det(exact.matmul(exact.transpose(m), m)):
                break
        g = exact.matmul(m, exact.matmul(core, exact.transpose(m)))
        known = _own_known(g)
        pos, neg, _ = exact.inertia(core)
        if (known.rank, known.n_plus, known.n_minus) != (rk, pos, neg):
            raise RuntimeError(f"rank-deficient input {i} does not match its construction")
        out.append(Instance(f"rankdef/{i}/d{d}r{rk}", g, i % 2 == 0, known))
    return out


def build(name, gen, seed):
    return {
        "worstcase_scrambled": worstcase_scrambled,
        "dense_signature": dense_signature,
        "small_degenerate": small_degenerate,
    }[name](gen, seed)
