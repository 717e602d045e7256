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
    automorphy_check,
    char_poly,
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
from .gram import (
    AdmissibleTrace,
    Classification,
    GramMatrix,
    GsoState,
    auto_gso,
    classify,
    extend_admissible,
    generalized_gso,
    local_potential,
    prefix_determinant,
    theta_vector,
)
from .generators import (
    SAMPLE_LARGE_SIGNATURE_10,
    SAMPLE_RANDOM_10,
    SplitMix64,
    gen_hyperbolic_stack,
    gen_random_symmetric,
    gen_random_unimodular,
    gen_worstcase,
)
from .numerics import (
    cmp_with_sqrt,
    is_rational_square,
    nearest_int,
)
from .qform import (
    BQForm,
    Transform2,
    apply,
    discriminant,
    is_reduced,
    reduce_definite,
    reduce_indefinite,
    reduce_indefinite_step,
    reduce_square_disc,
)
from .reducer import (
    ReducerParams,
    ReductionResult,
    ReductionStats,
    ReducerState,
    cleanup_size_reduce,
    integrate_adherent,
    plane_reduce,
    reduce,
    reduce_baseline,
    vector_reduce,
)

__all__ = [
    "AdmissibleTrace",
    "BQForm",
    "BoundReport",
    "Classification",
    "GramMatrix",
    "GsoState",
    "InadmissiblePrefixError",
    "InternalInvariantError",
    "IsotropicVectorError",
    "KernelSplit",
    "LatticeError",
    "LatticeInvariants",
    "ParseError",
    "ReducerParams",
    "ReducerState",
    "ReductionResult",
    "ReductionStats",
    "SAMPLE_LARGE_SIGNATURE_10",
    "SAMPLE_RANDOM_10",
    "SplitMix64",
    "Transform2",
    "apply",
    "automorphy_check",
    "auto_gso",
    "char_poly",
    "classify",
    "cleanup_size_reduce",
    "cmp_with_sqrt",
    "discriminant",
    "extend_admissible",
    "gen_hyperbolic_stack",
    "gen_random_symmetric",
    "gen_random_unimodular",
    "gen_worstcase",
    "generalized_gso",
    "hermitian_embed",
    "integrate_adherent",
    "is_rational_square",
    "is_reduced",
    "kernel_split",
    "local_potential",
    "nearest_int",
    "plane_reduce",
    "prefix_determinant",
    "reduce",
    "reduce_baseline",
    "reduce_definite",
    "reduce_indefinite",
    "reduce_indefinite_step",
    "reduce_square_disc",
    "remove_hyperbolic_plane",
    "signature_via_gso",
    "signature_via_sturm",
    "theta_vector",
    "vector_reduce",
    "verify_theorem_bound",
]
