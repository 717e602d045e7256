"""Certificate checks on one reduction, with the benchmark's own arithmetic.

Each check has a name; `refusals` returns the names of the checks a
result fails, so the self-test can tell that each broken result is
refused by the check meant to catch it.
"""

from dataclasses import dataclass
from fractions import Fraction

import exact


@dataclass(frozen=True)
class Known:
    """What the construction of an input tells about it."""

    rank: int
    n_plus: int
    n_minus: int
    det: int  # nondegenerate determinant


def refusals(gram, transform, reduced, rank, known, gamma0, report=None, oracle=None):
    """Names of the checks that the given reduction output fails.

    gram, transform and reduced are row lists; report is the library's
    BoundReport and oracle its signature_via_sturm result, either of
    which may be None when the library did not produce it.
    """
    out = []
    d = len(gram)
    if exact.congruent(gram, transform) != reduced:
        out.append("congruence")
    if abs(exact.det(transform)) != 1:
        out.append("unimodular")
    if any(reduced[i][j] for i in range(rank, d) for j in range(d)):
        out.append("zero_tail")
    lead_det = exact.det([row[:rank] for row in reduced[:rank]])
    if lead_det == 0:
        out.append("nonsingular_lead")
    if rank != known.rank:
        out.append("rank")
    if lead_det != known.det:
        out.append("nondeg_det")
    if oracle is not None and (
        (oracle.n_plus, oracle.n_minus, oracle.rank) != (known.n_plus, known.n_minus, known.rank)
        or oracle.nondeg_det != known.det
    ):
        out.append("oracle_signature")
    if report is not None:
        try:
            lhs, rhs, sum_n = exact.bound_terms(reduced, rank, Fraction(gamma0))
        except ValueError:
            out.append("bound_agrees")
        else:
            if (report.lhs, report.rhs, report.sum_definite, report.holds) != (lhs, rhs, sum_n, lhs <= rhs):
                out.append("bound_agrees")
    return out
