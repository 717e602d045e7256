"""Exact-arithmetic lattice reduction for indefinite integral Gram matrices.

The reduction keeps hyperbolic planes (isotropic pairs with nonzero
cross product) as first-class blocks instead of perturbing them, drives
projected 2x2 blocks with binary-quadratic-form reduction in all three
discriminant regimes, and certifies its output by exact congruence and
quality-bound checks.  Everything runs over arbitrary-precision
integers and rationals.
"""

from .analysis import (
    BoundReport,
    KernelSplit,
    LatticeInvariants,
    hermitian_embed,
    kernel_split,
    remove_hyperbolic_plane,
    signature_via_gso,
    signature_via_sturm,
    verify_theorem_bound,
)
from .errors import (
    InadmissiblePrefixError,
    InternalInvariantError,
    IsotropicVectorError,
    LatticeError,
    ParseError,
)
from .gram import GramMatrix
from .generators import (
    SAMPLE_LARGE_SIGNATURE_10,
    SAMPLE_RANDOM_10,
    gen_hyperbolic_stack,
    gen_random_symmetric,
    gen_random_unimodular,
    gen_worstcase,
)
from .qform import (
    BQForm,
    Transform2,
    apply,
    is_reduced,
    reduce_definite,
    reduce_indefinite,
    reduce_square_disc,
)
from .reducer import (
    ReducerParams,
    ReductionResult,
    ReductionStats,
    reduce,
    reduce_baseline,
)

# the entry points of the README and the demos; everything else stays
# importable from its module
__all__ = [
    "BQForm",
    "BoundReport",
    "GramMatrix",
    "InadmissiblePrefixError",
    "InternalInvariantError",
    "IsotropicVectorError",
    "KernelSplit",
    "LatticeError",
    "LatticeInvariants",
    "ParseError",
    "ReducerParams",
    "ReductionResult",
    "ReductionStats",
    "SAMPLE_LARGE_SIGNATURE_10",
    "SAMPLE_RANDOM_10",
    "Transform2",
    "apply",
    "gen_hyperbolic_stack",
    "gen_random_symmetric",
    "gen_random_unimodular",
    "gen_worstcase",
    "hermitian_embed",
    "is_reduced",
    "kernel_split",
    "reduce",
    "reduce_baseline",
    "reduce_definite",
    "reduce_indefinite",
    "reduce_square_disc",
    "remove_hyperbolic_plane",
    "signature_via_gso",
    "signature_via_sturm",
    "verify_theorem_bound",
]
