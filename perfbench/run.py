"""Reduction benchmark for indeflll.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`
of that checkout.  A run builds the workload's inputs from the seed,
then attempts whole rounds of the same operations (one operation is one
`reduce` together with `verify_theorem_bound` and `signature_via_sturm`
on its input) until S seconds have passed.  The first round's outputs
go through the benchmark's own certificate checks; later rounds must
reproduce them bit for bit.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1.  Times are in "ref",
units of the reference slice of refclock.py, except set-up seconds.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

_T0 = time.perf_counter()  # fallback origin for setup_s when /proc is unavailable

import certify
import refclock
import selftest
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
GAMMA0 = Fraction(99, 100)


def _process_age():
    """Seconds since this process started (clock-tick resolution)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, IndexError, ValueError, AttributeError):
        return time.perf_counter() - _T0


def _load_library():
    src = ROOT / "src"
    if not (src / "indeflll" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {src / 'indeflll'}")
    sys.path.insert(0, str(src))
    import indeflll
    import indeflll.analysis
    import indeflll.generators
    import indeflll.reducer

    if Path(indeflll.__file__).resolve().parent != (src / "indeflll").resolve():
        raise SystemExit(f"error: imported indeflll from {indeflll.__file__}, not {src}")
    return indeflll


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Op:
    """Measurements of one operation."""

    __slots__ = ("reduce_s", "certify_s", "failed", "result", "report", "oracle", "error")

    def __init__(self):
        self.reduce_s = self.certify_s = 0.0
        self.failed = False
        self.result = self.report = self.oracle = self.error = None


def run_op(lib, inst, clock):
    op = Op()
    gram = lib.GramMatrix(inst.gram)
    params = lib.reducer.ReducerParams(gamma0=GAMMA0, sign_strategy=inst.sign_strategy)
    t0 = time.perf_counter()
    try:
        op.result = lib.reducer.reduce(gram, params)
    except lib.LatticeError as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    op.reduce_s = time.perf_counter() - t0
    if op.result is not None:
        t0 = time.perf_counter()
        op.report = lib.analysis.verify_theorem_bound(op.result, gram)
        op.oracle = lib.analysis.signature_via_sturm(gram)
        op.certify_s = time.perf_counter() - t0
    op.failed = op.result is None or not op.report.holds
    clock.pay(op.reduce_s + op.certify_s)
    return op


def _digest_update(h, op):
    if op.result is None:
        h.update(op.error.encode())
    else:
        h.update(repr((op.result.reduced.rows, op.result.transform)).encode())


def run_round(lib, instances, clock, on_op=None):
    ops = []
    h = hashlib.sha256()
    for inst in instances:
        op = run_op(lib, inst, clock)
        if on_op is not None:
            on_op(inst, op)
        _digest_update(h, op)
        ops.append(op)
    return ops, h.hexdigest()


def certify_round(instances, ops):
    """Own checks on the first round; returns a list of problems."""
    problems = []
    for inst, op in zip(instances, ops):
        if op.result is None:
            continue
        res = op.result
        bad = certify.refusals(
            inst.gram, res.transform, res.reduced.rows, res.rank, inst.known, GAMMA0, op.report, op.oracle
        )
        if bad:
            problems.append(f"{inst.label}: refused by {bad}")
    return problems


def outcome_metrics(ops):
    """End-to-end counts of one round; they repeat exactly for a seed."""
    done = [op.result for op in ops if op.result is not None]
    firsts = [abs(r.first_entry()) for r in done if r.rank >= 1]
    return {
        "loop_iterations": (sum(r.stats.loop_iterations for r in done), "count"),
        "first_abs_gm": (math.exp(math.fsum(math.log(x) for x in firsts) / len(firsts)), "value"),
    }


def layer_metrics(tracer, rounds, unit, gen_self_s, ops):
    """Per-layer metrics of one traced round, times in ref."""
    sp = tracer.spans
    out = {}

    def calls(name):
        out[f"{name}.calls"] = (sp[name].calls / rounds, "count")

    def self_time(name):
        out[f"{name}.self_time"] = (sp[name].self / rounds / unit, "ref")

    for name in ("numerics.cmp_with_sqrt", "qform.step_toward_reduced", "qform.cycle_move",
                 "qform.reduce_definite", "gram.auto_gso", "gram.theta_and_residual_norm",
                 "reducer.cleanup_size_reduce", "reducer.indefinite_candidates"):
        calls(name)
        self_time(name)
    for name in ("numerics.floor_mixed", "numerics.ceil_mixed", "numerics.nearest_int",
                 "qform.apply", "qform.is_reduced", "reducer.place_pair",
                 "reducer.lovasz_definite", "reducer.plane_reduce", "reducer.integrate_adherent"):
        calls(name)
    for name in ("gram.mat_det", "gram.congruence", "reducer.finalize", "reducer.track_potential",
                 "analysis.verify_theorem_bound", "analysis.signature_via_sturm",
                 "analysis.char_poly", "analysis.kernel_split"):
        self_time(name)
    out["gram.gso_positions"] = (sp["gram.auto_gso"].items / rounds, "count")
    out["reducer.candidates_built"] = (sp["reducer.indefinite_candidates"].items / rounds, "count")
    pp = sp["reducer.place_pair"]
    out["reducer.place_pair.kept"] = (pp.kept / rounds, "count")
    out["reducer.place_pair.kept_ratio"] = (pp.kept / pp.calls if pp.calls else 0.0, "ratio")
    done = [op.result for op in ops if op.result is not None]
    stats = {k: sum(getattr(r.stats, k) for r in done)
             for k in ("swaps", "repairs", "position_reports", "pair_reports", "potential_drops")}
    for k, v in stats.items():
        out[f"reducer.{k}"] = (v, "count")
    out["reducer.repair_ratio"] = (stats["repairs"] / stats["swaps"] if stats["swaps"] else 0.0, "ratio")
    out["reducer.definite_exponent_sum"] = (sum(r.sum_definite_exponent() for r in done), "count")
    out["reducer.u_bits_max"] = (max(_bits(r.transform) for r in done), "bits")
    out["reducer.g_bits_max"] = (max(_bits(r.reduced.rows) for r in done), "bits")
    out["generators.self_time"] = (gen_self_s / unit, "ref")
    return out


def _cross_check(tracer):
    """Compare trace counters with ReductionStats, operation by operation:
    prefix GSO rebuilds against loop iterations, adherent integrations,
    plane moves, and kept pairs plus definite swaps against swaps."""
    problems = []
    names = ("reducer.refresh_prefix_gso", "reducer.integrate_adherent", "reducer.plane_reduce")

    def snapshot():
        kept = tracer.spans["reducer.place_pair"].kept + tracer.spans["reducer.lovasz_definite"].kept
        return (*tracer.counts(*names), kept)

    last = [snapshot()]

    def after(inst, op):
        now = snapshot()
        if op.result is not None:
            s = op.result.stats
            want = (s.loop_iterations, s.adherent_integrations, s.plane_moves, s.swaps)
            got = tuple(b - a for a, b in zip(last[0], now))
            if got != want:
                problems.append(f"{inst.label}: trace counts {got} != ReductionStats {want}")
        last[0] = now

    return after, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = _load_library()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    problems = [f"selftest: {p}" for p in selftest.run(lib)]
    clock = refclock.RefClock()
    # untimed warm-up on a fixed input: the workload's first input for seed 0
    run_op(lib, workloads.build(args.workload, lib.generators, 0)[0], clock)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    instances = workloads.build(args.workload, lib.generators, args.seed)
    setup_s = _process_age()
    on_op, mismatches = None, []
    if tracer is not None:
        gen_self_s = sum(s.self for n, s in tracer.spans.items() if n.startswith("generators."))
        tracer.reset()
        on_op, mismatches = _cross_check(tracer)

    # whole rounds of the same operations until --seconds have passed
    rounds = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        ops, d = run_round(lib, instances, clock, on_op)
        if not rounds:
            digest = d
            problems += certify_round(instances, ops)
        else:
            if d != digest:
                problems.append(f"round {len(rounds) + 1} differs from the first")
            for op in ops:  # keep memory use independent of the round count
                op.result = op.report = op.oracle = None
        rounds.append(ops)
    if tracer is not None:
        tracer.uninstall()
        problems += mismatches
        untraced = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file() and json.loads(untraced.read_text())["digest"] != digest:
            problems.append(f"traced outputs differ from those recorded in {untraced.name}")

    n = len(rounds)
    unit = clock.unit
    ops_all = [op for ops in rounds for op in ops]
    attempted = len(ops_all)
    failed = sum(op.failed for op in ops_all)
    first_ops = rounds[0]
    reduce_s = sum(op.reduce_s for op in ops_all) / n
    certify_s = sum(op.certify_s for op in ops_all) / n
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "reduce_time": (reduce_s / unit, "ref"),
            "certify_time": (certify_s / unit, "ref"),
            **outcome_metrics(first_ops),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, n, unit, gen_self_s, first_ops)

    for p in problems:
        print("problem:", p, file=sys.stderr)
    for inst, op in zip(instances, first_ops):
        if op.failed:
            why = op.error or "first-vector bound does not hold"
            print(f"failed operation: {inst.label}: {why}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": n,
        "instances": len(instances),
        "digest": digest,
        "raw_seconds": {"setup": setup_s, "reduce": reduce_s, "certify": certify_s,
                        "ref_unit": unit, "ref_slices": clock.slices, "ref_total": clock.seconds},
        "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if tracer is not None:
        record["spans"] = {name: {"calls": s.calls, "total_s": s.total, "self_s": s.self}
                           for name, s in tracer.spans.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
