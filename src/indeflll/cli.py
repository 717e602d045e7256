"""Command-line front end.

Subcommands: reduce, analyze, compare, gen, verify, and qform reduce.
Matrix files are either plain text (first line the dimension, then that
many whitespace-separated integer rows) or JSON ({"dim": d, "rows":
[[...], ...]}); Gram inputs must be symmetric and parse errors carry
row/column positions.  Exit codes: 0 ok, 1 verification failed, 2 bad
input, 3 internal invariant violation.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from .analysis import signature_via_sturm, verify_theorem_bound
from .errors import InternalInvariantError, IsotropicVectorError, LatticeError, ParseError
from .gram import GramMatrix, auto_gso, mat_det
from .generators import (
    gen_hyperbolic_stack,
    gen_large_signature,
    gen_random_symmetric,
    gen_random_unimodular,
    gen_worstcase,
)
from .numerics import format_rational, parse_int, parse_rational
from .qform import BQForm, reduce_definite, reduce_indefinite
from .reducer import (
    ReducerParams,
    ReductionResult,
    ReductionStats,
    block_kinds,
    first_unreduced_block,
    reduce,
    reduce_baseline,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

REPORT_ENV = "INDEFLLL_REPORT"


# ---------------------------------------------------------------------------
# matrix I/O
# ---------------------------------------------------------------------------


def parse_matrix_text(text: str, require_symmetric: bool = True) -> list[list[int]]:
    """Rows in errors are the file's own 1-based lines; blank lines are
    skipped but counted."""
    lines = [(n, ln.split()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    n, head = lines[0]
    if len(head) != 1:
        raise ParseError(f"row {n}: expected a single dimension value")
    try:
        dim = parse_int(head[0])
    except ValueError as exc:
        raise ParseError(f"row {n}: bad dimension {head[0]!r}") from exc
    if dim < 0:
        raise ParseError(f"row {n}: dimension must be non-negative")
    if len(lines) - 1 < dim:
        raise ParseError(f"expected {dim} rows, found {len(lines) - 1}")
    if len(lines) - 1 > dim:
        raise ParseError(f"row {lines[dim + 1][0]}: extra row past the declared dimension {dim}")
    rows = []
    for n, parts in lines[1:]:
        if len(parts) != dim:
            raise ParseError(f"row {n}: expected {dim} entries, found {len(parts)}")
        row = []
        for j, tok in enumerate(parts):
            try:
                row.append(parse_int(tok))
            except ValueError as exc:
                raise ParseError(f"row {n}, column {j + 1}: bad integer {tok!r}") from exc
        rows.append(row)
    if require_symmetric:
        _check_symmetric(rows)
    return rows


def parse_matrix_json(text: str, require_symmetric: bool = True) -> list[list[int]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc or "rows" not in doc:
        raise ParseError('expected an object with "dim" and "rows"')
    dim = doc["dim"]
    rows = doc["rows"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError('"dim" must be a non-negative integer')
    if not isinstance(rows, list) or len(rows) != dim:
        raise ParseError(f'"rows" must hold exactly {dim} rows')
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"row {i + 1}: expected {dim} entries")
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ParseError(f"row {i + 1}, column {j + 1}: bad integer {x!r}")
        out.append(list(row))
    if require_symmetric:
        _check_symmetric(out)
    return out


def _check_symmetric(rows: list[list[int]]) -> None:
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ParseError(
                    f"matrix is not symmetric: entry ({i + 1}, {j + 1}) is "
                    f"{rows[i][j]} but ({j + 1}, {i + 1}) is {rows[j][i]}"
                )


def load_matrix(path: str, require_symmetric: bool = True) -> list[list[int]]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        return parse_matrix_json(text, require_symmetric)
    return parse_matrix_text(text, require_symmetric)


def format_matrix_text(rows: list[list[int]]) -> str:
    out = [str(len(rows))]
    for row in rows:
        out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"


def format_matrix_json(rows: list[list[int]]) -> str:
    return json.dumps({"dim": len(rows), "rows": rows}) + "\n"


def write_matrix(path: str | None, rows: list[list[int]], fmt: str = "text") -> None:
    text = format_matrix_json(rows) if fmt == "json" else format_matrix_text(rows)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _digest(rows: list[list[int]]) -> str:
    return hashlib.sha256(format_matrix_text(rows).encode()).hexdigest()[:16]


def _int_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton steps down
    from a power of two at or above the root."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------


def build_report(name: str, gram: GramMatrix, result: ReductionResult, wall: float) -> dict:
    """The run's report: its parameters, certificate and every counter of
    `ReductionStats`, the carried rows flattened by source."""
    bound = verify_theorem_bound(result, gram)
    sigma = bound.signature
    counters = dataclasses.asdict(result.stats)
    carried = counters.pop("rows_carried")
    return {
        "name": name,
        "input_digest": _digest([[int(x) for x in row] for row in gram.rows]),
        "gamma0": format_rational(result.params.gamma0),
        "gamma_h": format_rational(result.params.gamma_h),
        "max_extra": result.params.max_extra,
        "sign_strategy": result.params.sign_strategy,
        "rank": result.rank,
        "signature": sigma,
        "nondeg_det": format_rational(bound.nondeg_det),
        "first_entry": format_rational(result.first_entry()),
        "sum_definite_blocks": result.sum_definite_exponent(),
        "excess_definite_blocks": bound.excess_definite,
        "sigma_reference": sigma * (sigma - 1) // 2,
        "unit_diagonal_entries": result.unit_diagonal_count(),
        "bound_holds": bound.holds,
        "heuristic_holds": bound.heuristic_holds,
        **counters,
        **{f"rows_carried_{source}": n for source, n in carried.items()},
        "wall_time_s": round(wall, 4),
    }


def print_report(report: dict, fmt: str) -> None:
    if fmt == "structured":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return
    width = max(len(k) for k in report)
    for k, v in report.items():
        sys.stdout.write(f"{k:<{width}}  {v}\n")


def _report_format(args) -> str:
    fmt = getattr(args, "report", None)
    if fmt:
        return fmt
    env = os.environ.get(REPORT_ENV, "text")
    return "structured" if env in ("structured", "json") else "text"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _params_from_args(args) -> ReducerParams:
    gamma0 = parse_rational(args.gamma0)
    gamma_h = Fraction(1) if args.gamma_h == "one" else None
    return ReducerParams(
        gamma0=gamma0,
        gamma_h=gamma_h,
        max_extra=args.max_extra,
        sign_strategy=(args.sign == "on"),
    )


def cmd_reduce(args) -> int:
    rows = load_matrix(args.file)
    gram = GramMatrix(rows)
    params = _params_from_args(args)
    t0 = time.perf_counter()
    result = reduce(gram, params)
    wall = time.perf_counter() - t0
    out_rows = [[int(x) for x in row] for row in result.reduced.rows]
    write_matrix(args.out, out_rows, args.format)
    if args.emit_unimodular:
        write_matrix(args.emit_unimodular, result.transform, args.format)
    report = build_report("reduce", gram, result, wall)
    print_report(report, _report_format(args))
    return EXIT_OK


def cmd_analyze(args) -> int:
    rows = load_matrix(args.file)
    gram = GramMatrix(rows)
    inv = signature_via_sturm(gram)
    lines = {
        "dim": inv.dim,
        "rank": inv.rank,
        "n_plus": inv.n_plus,
        "n_minus": inv.n_minus,
        "signature": inv.signature,
        "nondeg_det": format_rational(inv.nondeg_det),
        "kernel_dim": inv.dim - inv.rank,
    }
    if inv.rank:
        mag, k = abs(inv.nondeg_det), inv.rank
        lines["det_root_floor"] = _int_nth_root(mag.numerator // mag.denominator, k)
        # the root to two decimals, rounded half up: (floor(200 r) + 1) // 2 hundredths
        hundredths = (_int_nth_root(mag.numerator * 200**k // mag.denominator, k) + 1) // 2
        lines["det_root_approx"] = f"{hundredths // 100}.{hundredths % 100:02d}"
    print_report(lines, _report_format(args))
    return EXIT_OK


def cmd_compare(args) -> int:
    rows = load_matrix(args.file)
    gram = GramMatrix(rows)
    gamma0 = parse_rational(args.gamma0)
    reports = []
    t0 = time.perf_counter()
    try:
        base = reduce_baseline(gram, gamma0)
        reports.append(build_report("baseline", gram, base, time.perf_counter() - t0))
    except IsotropicVectorError as exc:
        reports.append({"name": "baseline", "failed": str(exc)})
    for name, sign_on in (("no-sign", False), ("sign", True)):
        t0 = time.perf_counter()
        res = reduce(gram, ReducerParams(gamma0=gamma0, max_extra=args.max_extra, sign_strategy=sign_on))
        reports.append(build_report(name, gram, res, time.perf_counter() - t0))
    fmt = _report_format(args)
    if fmt == "structured":
        sys.stdout.write(json.dumps(reports, indent=2) + "\n")
        return EXIT_OK
    cols = ["name", "first_entry", "unit_diagonal_entries", "sum_definite_blocks",
            "sigma_reference", "bound_holds", "rank", "wall_time_s"]
    header = {c: c for c in cols}
    table = [header] + [{c: str(r.get(c, "-")) for c in cols} for r in reports]
    widths = {c: max(len(str(row[c])) for row in table) for c in cols}
    for row in table:
        sys.stdout.write("  ".join(f"{str(row[c]):<{widths[c]}}" for c in cols) + "\n")
    for r in reports:
        if "failed" in r:
            sys.stdout.write(f"{r['name']} failed: {r['failed']}\n")
    return EXIT_OK


def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "worstcase":
        gram = gen_worstcase(args.d)
    elif kind == "random":
        gram = gen_random_symmetric(args.dim, args.bound, args.seed)
    elif kind == "large-signature":
        gram = gen_large_signature()
    elif kind == "hyperbolic-stack":
        alphas = args.alpha or [1] * args.n
        if len(alphas) == 1 and args.n > 1:
            alphas = alphas * args.n
        gram = gen_hyperbolic_stack(args.n, alphas)
    elif kind == "unimodular":
        steps = args.steps if args.steps is not None else 3 * args.dim
        write_matrix(args.out, gen_random_unimodular(args.dim, steps, args.seed), args.format)
        return EXIT_OK
    write_matrix(args.out, [[int(x) for x in row] for row in gram.rows], args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    g_rows = load_matrix(args.gram_file)
    u_rows = load_matrix(args.u_file, require_symmetric=False)
    r_rows = load_matrix(args.reduced_file)
    gram = GramMatrix(g_rows)
    reduced = GramMatrix(r_rows)
    gamma0 = parse_rational(args.gamma0)
    if len(u_rows) != gram.dim or any(len(r) != gram.dim for r in u_rows):
        raise ParseError("transform dimensions do not match the Gram matrix")
    checks: list[tuple[str, bool | None, str]] = []  # ok None: not checked

    congruent = gram.congruence(u_rows) == reduced
    checks.append(("congruence U^T G U = G'", congruent, ""))
    # the rank of the input, so a nonzero row past it fails the tail
    inv = signature_via_sturm(gram) if congruent else None
    if inv is not None and 0 < inv.rank == gram.dim:
        # U^T G U = G' gives det G' = det(U)^2 det G, and det G != 0
        square = reduced.det() / inv.nondeg_det
        unimodular, note = square == 1, f"det(U)^2 = {format_rational(square)}"
    else:
        det = mat_det(u_rows)
        unimodular, note = abs(det) == 1, f"det = {format_rational(det)}"
    checks.append(("unimodular |det U| = 1", unimodular, note))

    later = ("adjacent blocks reduced", "tail rows exactly zero", "quality bound")
    if not (congruent and unimodular):
        reason = "unimodularity" if congruent else "congruence"
        checks += [(name, None, f"not checked: {reason} failed") for name in later]
    else:
        rank = inv.rank
        tail_ok = all(x == 0 for row in reduced.rows[rank:] for x in row)
        blocks_ok, bound_ok, detail = True, True, ""
        try:
            gso = auto_gso(reduced, rank)
            p = first_unreduced_block(gso)
            if p is not None:
                blocks_ok = False
                detail = f"block at positions {p + 1}, {p + 2}"
            result = ReductionResult(
                transform=u_rows,
                reduced=reduced,
                rank=rank,
                block_kinds=block_kinds(gso.norm_signs()),
                stats=ReductionStats(),
                params=ReducerParams(gamma0=gamma0),
            )
            bound_ok = tail_ok and verify_theorem_bound(result, gram).holds
        except LatticeError as exc:
            blocks_ok, bound_ok, detail = False, False, str(exc)
        checks += zip(later, (blocks_ok, tail_ok, bound_ok), (detail, "", ""))

    for name, ok, note in checks:
        mark = "skip" if ok is None else "ok" if ok else "FAIL"
        suffix = f"  ({note})" if note else ""
        sys.stdout.write(f"{mark:4} {name}{suffix}\n")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_VERIFY_FAILED


def cmd_qform_reduce(args) -> int:
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    c = parse_rational(args.c)
    f = BQForm(a, b, c)
    d = f.disc
    sys.stdout.write(f"form ({format_rational(a)}, {format_rational(b)}, {format_rational(c)})"
                     f"  disc {format_rational(d)}\n")
    if d <= 0:
        trajectory = [reduce_definite(f)]
    else:
        trajectory = reduce_indefinite(f, args.max_extra)
    for g, t in trajectory:
        ga, gb, gc = g.coeffs()
        sys.stdout.write(
            f"-> ({format_rational(ga)}, {format_rational(gb)}, {format_rational(gc)})"
            f"  T = {t.rows()}\n"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_reduce_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma0", default="99/100", help="quality factor as a rational p/q")
    p.add_argument("--gamma-h", dest="gamma_h", choices=("same", "one"), default="same")
    p.add_argument("--sign", choices=("on", "off"), default="on")
    p.add_argument("--max-extra", dest="max_extra", type=parse_int, default=ReducerParams().max_extra)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="indeflll",
                                 description="Exact reduction of indefinite integral Gram matrices")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a Gram matrix file")
    p.add_argument("file")
    _add_reduce_flags(p)
    p.add_argument("--out", default=None, help="write the reduced Gram here (default stdout)")
    p.add_argument("--emit-unimodular", default=None, help="write the transform here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--report", choices=("text", "structured"), default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("analyze", help="rank, signature and determinant of a Gram matrix")
    p.add_argument("file")
    p.add_argument("--report", choices=("text", "structured"), default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="baseline vs no-sign vs sign reduction")
    p.add_argument("file")
    p.add_argument("--gamma0", default="99/100")
    p.add_argument("--max-extra", dest="max_extra", type=parse_int, default=ReducerParams().max_extra)
    p.add_argument("--report", choices=("text", "structured"), default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="write a generated instance")
    p.add_argument("--kind", required=True,
                   choices=("random", "worstcase", "large-signature", "hyperbolic-stack", "unimodular"))
    p.add_argument("--dim", type=parse_int, default=10)
    p.add_argument("--bound", type=parse_int, default=100)
    p.add_argument("--seed", type=parse_int, default=1)
    p.add_argument("--d", type=parse_int, default=5, help="half-dimension of the worst-case family")
    p.add_argument("--n", type=parse_int, default=1, help="number of hyperbolic-stack copies")
    p.add_argument("--alpha", type=parse_int, action="append", help="cross term(s) for the stack")
    p.add_argument("--steps", type=parse_int, default=None, help="elementary moves for kind=unimodular")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a (gram, transform, reduced) triple")
    p.add_argument("gram_file")
    p.add_argument("u_file")
    p.add_argument("reduced_file")
    p.add_argument("--gamma0", default="99/100")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("qform", help="binary quadratic form tools")
    qsub = p.add_subparsers(dest="qform_command", required=True)
    q = qsub.add_parser("reduce", help="reduce a form a b c")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("c")
    q.add_argument("--max-extra", dest="max_extra", type=parse_int, default=0)
    q.set_defaults(func=cmd_qform_reduce)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (InternalInvariantError, LatticeError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
