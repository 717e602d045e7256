"""The reference clock: a fixed exact-arithmetic loop run between operations.

Whole processes on a small shared machine run at different speeds, so
raw seconds do not repeat from one process to the next.  The benchmark
therefore pays out slices of a fixed loop of the same kind of work as
the library's hot path (Fraction Gram-Schmidt and integer form steps),
interleaved with the operations it measures, and reports program time
in units of one slice ("ref").
"""

import time
from fractions import Fraction

_GRAM = [
    [7, 3, -2, 5, 1, -4],
    [3, -6, 4, 0, 2, 3],
    [-2, 4, 9, -3, 5, 1],
    [5, 0, -3, -8, 2, 6],
    [1, 2, 5, 2, 4, -5],
    [-4, 3, 1, 6, -5, -7],
]
_FORM = (1_234_567, 2 * 1_111_111 + 1, -987_654)


def _gram_schmidt():
    n = len(_GRAM)
    star = []
    norms = []
    for i in range(n):
        vec = [Fraction(int(i == j)) for j in range(n)]
        for j, (s, nj) in enumerate(zip(star, norms)):
            p = sum(c * _GRAM[i][m] for m, c in enumerate(s) if c)
            mu = p / nj
            for m in range(j + 1):
                vec[m] -= mu * s[m]
        norm = sum(vec[a] * sum(vec[b] * _GRAM[a][b] for b in range(n)) for a in range(n))
        star.append(vec)
        norms.append(norm)
    return norms


def _form_walk(steps=40):
    a, b, c = _FORM
    for _ in range(steps):
        # one integer reduction step (a, b, c) -> (c, -b + 2c*t, a - bt + ct^2)
        t = (b + abs(c)) // (2 * c) if c > 0 else -((-(b + abs(c))) // (2 * c))
        a, b, c = c, -b + 2 * c * t, a - b * t + c * t * t
        if c == 0:
            a, b, c = _FORM
    return a, b, c


def ref_slice():
    """One unit of reference work: 1.2 to 2.4 ms on a shared 2-vCPU Xeon VM
    under Python 3.11, depending on the load of the host."""
    return _gram_schmidt(), _form_walk()


class RefClock:
    """Pays out reference slices in proportion to the program time seen.

    After every operation `pay` runs slices until their total reaches
    `share` of the program seconds reported so far, so the reference
    samples the process at the same moments as the program does.
    """

    share = 0.1

    def __init__(self):
        self.debt = 0.0
        self.seconds = 0.0
        self.slices = 0

    def tick(self):
        t0 = time.perf_counter()
        ref_slice()
        dt = time.perf_counter() - t0
        self.seconds += dt
        self.slices += 1
        return dt

    def pay(self, program_seconds):
        self.debt += program_seconds * self.share
        while self.debt > 0:
            self.debt -= self.tick()

    @property
    def unit(self):
        """Seconds per reference slice."""
        return self.seconds / self.slices
