"""Self-test of the certificate checks: every broken result must be refused.

Run as `python3 perfbench/selftest.py` from the repository root; the
benchmark also runs it during set-up, so a check that stopped refusing
would make every run report correct = false.
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import exact
from certify import Known, refusals

# rank 2 in dimension 3
_M = [[1, 0], [2, 1], [1, -1]]
_INPUT = exact.matmul(_M, exact.matmul([[2, 1], [1, -3]], exact.transpose(_M)))
_GAMMA0 = "99/100"


def _broken_cases(gram, u, reduced, rank):
    d = len(gram)
    changed = [row[:] for row in u]
    changed[0][0] += 1
    yield "one changed entry of U", "congruence", changed, reduced, rank

    doubled = [[2 * x if j == 0 else x for j, x in enumerate(row)] for row in u]
    yield "non-unimodular U", "unimodular", doubled, exact.congruent(gram, doubled), rank

    # adding a nondegenerate column to a kernel column keeps U unimodular
    # but leaves a nonzero tail row
    tail = [row[:] for row in u]
    for r in range(d):
        tail[r][d - 1] += tail[r][0]
    yield "nonzero tail row", "zero_tail", tail, exact.congruent(gram, tail), rank


def run(lib):
    """Return a list of messages, empty when every check behaves."""
    gamma0 = Fraction(_GAMMA0)
    g = lib.GramMatrix(_INPUT)
    res = lib.reduce(g, lib.ReducerParams(gamma0=gamma0))
    report = lib.verify_theorem_bound(res, g)
    oracle = lib.signature_via_sturm(g)
    rank, det = exact.nondegenerate_part(_INPUT)
    pos, neg, _ = exact.inertia(_INPUT)
    known = Known(rank=rank, n_plus=pos, n_minus=neg, det=det)
    problems = []
    base = refusals(_INPUT, res.transform, res.reduced.rows, res.rank, known, gamma0, report, oracle)
    if base:
        problems.append(f"a correct result was refused by {base}")
    if res.rank != 2:
        problems.append(f"self-test input should have rank 2, reduced to rank {res.rank}")
    for what, check, u, reduced, r in _broken_cases(_INPUT, res.transform, res.reduced.rows, res.rank):
        got = refusals(_INPUT, u, reduced, r, known, gamma0)
        if check not in got:
            problems.append(f"{what}: not refused by {check} (refused by {got})")
    wrong = replace(oracle, n_plus=oracle.n_plus + 1, n_minus=oracle.n_minus - 1)
    got = refusals(_INPUT, res.transform, res.reduced.rows, res.rank, known, gamma0, report, wrong)
    if "oracle_signature" not in got:
        problems.append(f"wrong oracle signature: not refused (refused by {got})")
    return problems


def _library():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import indeflll

    return indeflll


if __name__ == "__main__":
    found = run(_library())
    for line in found:
        print("FAIL:", line)
    if not found:
        print("selftest: all broken results refused")
    sys.exit(1 if found else 0)
