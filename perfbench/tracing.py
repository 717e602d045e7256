"""Per-layer spans measured from outside the library.

`Tracer.install` replaces each traced function with a wrapper in every
namespace of the package that binds it (module globals for functions,
the class for methods), which is where the library's own callers look
the name up.  A wrapper records calls, total time and self time (the
span minus the spans of traced calls made inside it).  `uninstall`
puts the originals back; the untraced run never installs anything.
"""

import sys
import time
from functools import wraps

PACKAGE = "indeflll"

# (metric prefix, module, owner inside the module or None, attribute)
TARGETS = [
    ("numerics.cmp_with_sqrt", "numerics", None, "cmp_with_sqrt"),
    ("numerics.floor_mixed", "numerics", None, "floor_mixed"),
    ("numerics.ceil_mixed", "numerics", None, "ceil_mixed"),
    ("numerics.nearest_int", "numerics", None, "nearest_int"),
    ("qform.step_toward_reduced", "qform", None, "step_toward_reduced"),
    ("qform.cycle_move", "qform", None, "_cycle_move"),
    ("qform.apply", "qform", None, "apply"),
    ("qform.is_reduced", "qform", None, "is_reduced"),
    ("qform.reduce_definite", "qform", None, "reduce_definite"),
    ("gram.auto_gso", "gram", None, "auto_gso"),
    ("gram.theta_and_residual_norm", "gram", "GsoState", "theta_and_residual_norm"),
    ("gram.mat_det", "gram", None, "mat_det"),
    ("gram.congruence", "gram", "GramMatrix", "congruence"),
    ("reducer.reduce", "reducer", None, "reduce"),
    ("reducer.refresh_prefix_gso", "reducer", "ReducerState", "refresh_prefix_gso"),
    ("reducer.cleanup_size_reduce", "reducer", None, "cleanup_size_reduce"),
    ("reducer.indefinite_candidates", "reducer", None, "_indefinite_candidates"),
    ("reducer.place_pair", "reducer", None, "_place_transformed_pair"),
    ("reducer.lovasz_definite", "reducer", None, "_lovasz_definite"),
    ("reducer.plane_reduce", "reducer", None, "plane_reduce"),
    ("reducer.integrate_adherent", "reducer", None, "integrate_adherent"),
    ("reducer.finalize", "reducer", None, "_finalize"),
    ("reducer.track_potential", "reducer", None, "_track_potential"),
    ("analysis.verify_theorem_bound", "analysis", None, "verify_theorem_bound"),
    ("analysis.signature_via_sturm", "analysis", None, "signature_via_sturm"),
    ("analysis.char_poly", "analysis", None, "char_poly"),
    ("analysis.kernel_split", "analysis", None, "kernel_split"),
    ("generators.gen_worstcase", "generators", None, "gen_worstcase"),
    ("generators.gen_random_unimodular", "generators", None, "gen_random_unimodular"),
    ("generators.gen_hyperbolic_stack", "generators", None, "gen_hyperbolic_stack"),
]


class Span:
    __slots__ = ("calls", "total", "self", "kept", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.kept = 0  # results equal to -1 (a pair or swap that was kept)
        self.items = 0  # summed sizes: candidate list length, GSO extent


def _measure(name, span, result):
    if name in ("reducer.place_pair", "reducer.lovasz_definite") and result == -1:
        span.kept += 1
    elif name == "reducer.indefinite_candidates":
        span.items += len(result)
    elif name == "gram.auto_gso":
        span.items += result.upto


class Tracer:
    def __init__(self):
        self.spans = {name: Span() for name, *_ in TARGETS}
        self._stack = [0.0]
        self._patched = []  # (namespace object, attribute, original)

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                span.calls += 1
                span.total += dt
                span.self += dt - child
            _measure(name, span, result)
            return result

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, mod, owner, attr in TARGETS:
            home = sys.modules[f"{PACKAGE}.{mod}"]
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched = []

    def counts(self, *names):
        return tuple(self.spans[n].calls for n in names)

    def reset(self):
        for span in self.spans.values():
            span.__init__()
