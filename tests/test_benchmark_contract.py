"""The names the benchmark under perfbench/ relies on.

perfbench/tracing.py wraps library functions by name and
perfbench/selftest.py runs the certificate self-test against the
package; a rename in the library would break both silently.  The
benchmark files are only imported here, never changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

import indeflll

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("selftest")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_trace_targets_resolve(perfbench):
    tracing, _ = perfbench
    missing = []
    for name, mod, owner, attr in tracing.TARGETS:
        home = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        if owner is None:
            found = callable(getattr(home, attr, None))
        else:
            found = attr in vars(getattr(home, owner, object))
        if not found:
            missing.append(name)
    assert missing == []


def test_benchmark_selftest_passes(perfbench):
    _, selftest = perfbench
    assert selftest.run(indeflll) == []


def test_traced_reduce_attributes_gso_work(perfbench):
    """The traced run cross-checks one prefix GSO refresh per loop
    iteration and attributes GSO time to gram.auto_gso; uninstalling
    puts every original back."""
    tracing, _ = perfbench
    from indeflll import gram, reducer
    from indeflll.generators import gen_hyperbolic_stack, gen_random_unimodular

    g = gen_hyperbolic_stack(3, [2, -2, 3]).congruence(gen_random_unimodular(9, 20, 31))
    originals = (reducer.ReducerState.__dict__["refresh_prefix_gso"], gram.auto_gso, reducer.auto_gso)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert reducer.auto_gso is not originals[2]
        r = reducer.reduce(g)
    finally:
        tracer.uninstall()
    refreshes, builds = tracer.counts("reducer.refresh_prefix_gso", "gram.auto_gso")
    assert refreshes == r.stats.loop_iterations > 0
    assert builds >= refreshes
    assert (reducer.ReducerState.__dict__["refresh_prefix_gso"], gram.auto_gso, reducer.auto_gso) == originals


def test_traced_reduce_counts_candidate_lists(perfbench):
    """The benchmark's reducer.candidates_built sums len() of every
    _indefinite_candidates result, so the result must stay a list; a
    criterion 2 input builds candidates in some of its walks."""
    tracing, _ = perfbench
    from indeflll import reducer
    from indeflll.generators import gen_random_unimodular, gen_worstcase

    g = gen_worstcase(5).congruence(gen_random_unimodular(10, 30, 0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        r = reducer.reduce(g)
    finally:
        tracer.uninstall()
    span = tracer.spans["reducer.indefinite_candidates"]
    assert span.calls > 0 and span.items > 0
    # every counted walk step is one traced move; a cycle move may also
    # find a terminal shape and take no step
    assert 0 < r.stats.walk_steps <= sum(tracer.counts("qform.step_toward_reduced", "qform.cycle_move"))
