"""The benchmark's own exact arithmetic.

Nothing here imports the library: these routines are the independent
side of every certificate check, so a fault in the library's matrix
helpers cannot hide a fault in its reductions.
"""

from fractions import Fraction


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    cols = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def congruent(g, u):
    """U^T * G * U over the integers."""
    return matmul(transpose(u), matmul(g, u))


def det(m):
    """Exact determinant of a square integer matrix (fraction-free
    elimination with row pivoting)."""
    n = len(m)
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return sign * prev if n else 1


def leading_minors(m, r):
    """[det of the leading k x k block for k = 0..r]."""
    return [det([row[:k] for row in m[:k]]) for k in range(r + 1)]


def inertia(m):
    """(positive, negative, zero) counts of a symmetric integer matrix,
    by exact congruence diagonalisation over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    rest = list(range(len(a)))
    pos = neg = 0
    while rest:
        piv = next((i for i in rest if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in rest for j in rest if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            # e_i += e_j: the new diagonal entry is 2 * a[i][j] != 0
            for t in range(len(a)):
                a[i][t] += a[j][t]
            for t in range(len(a)):
                a[t][i] += a[t][j]
            piv = i
        p = a[piv][piv]
        if p > 0:
            pos += 1
        else:
            neg += 1
        rest.remove(piv)
        for i in rest:
            f = a[i][piv] / p
            if f:
                for j in rest:
                    a[i][j] -= f * a[piv][j]
    return pos, neg, len(rest)


def _xgcd(x, y):
    """(g, s, t) with s*x + t*y = g = gcd(x, y) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if x < 0:
        x, s0, t0 = -x, -s0, -t0
    return x, s0, t0


def nondegenerate_part(m):
    """(rank, nondegenerate determinant) of a symmetric integer matrix.

    Unimodular column operations (extended-gcd pairs) push the integer
    kernel into the trailing columns of V; the Gram matrix of the
    leading `rank` columns of V is then the nondegenerate part.
    """
    n = len(m)
    a = [list(row) for row in m]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    rank = 0
    for row in range(n):
        if rank == n:
            break
        for c in range(rank + 1, n):
            x, y = a[row][rank], a[row][c]
            if not y:
                continue
            g, s, t = _xgcd(x, y)
            xg, yg = x // g, y // g
            for mat in (a, v):
                for r in mat:
                    p, q = r[rank], r[c]
                    r[rank], r[c] = s * p + t * q, xg * q - yg * p
        if a[row][rank]:
            rank += 1
    lead = [row[:rank] for row in congruent(m, v)[:rank]]
    return rank, det(lead)


def bound_terms(reduced, rank, gamma0):
    """Own evaluation of the paper's first-vector bound.

    Star-norm signs come from ratios of leading principal minors; a zero
    minor opens a hyperbolic pair, whose second member must restore a
    nonzero minor.  Returns (lhs, rhs, sum of definite exponents).
    """
    if rank == 0:
        return Fraction(0), Fraction(1), 0
    minors = leading_minors(reduced, rank)
    members = set()
    p = 0
    while p < rank:
        if minors[p + 1] == 0:
            if p + 2 > rank or minors[p + 2] == 0:
                raise ValueError(f"inadmissible reduced prefix at position {p}")
            members.update((p, p + 1))
            p += 2
        else:
            p += 1

    def star_sign(i):
        return (1 if minors[i + 1] > 0 else -1) * (1 if minors[i] > 0 else -1)

    sum_n = sum(
        rank - 1 - p
        for p in range(rank - 1)
        if p not in members and p + 1 not in members and star_sign(p) == star_sign(p + 1)
    )
    first = reduced[0][0] if reduced[0][0] or len(reduced) < 2 else reduced[0][1]
    d_const = gamma0 * gamma0 / (gamma0 - Fraction(1, 4))
    lhs = Fraction(abs(first)) ** rank
    rhs = (1 / gamma0) ** (rank * (rank - 1)) * d_const**sum_n * abs(minors[rank])
    return lhs, rhs, sum_n
