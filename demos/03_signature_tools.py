"""Signatures, kernel splitting, and hyperbolic planes.

Run:  python demos/03_signature_tools.py
"""

from fractions import Fraction

from indeflll import (
    GramMatrix,
    gen_hyperbolic_stack,
    hermitian_embed,
    kernel_split,
    reduce,
    remove_hyperbolic_plane,
    signature_via_gso,
    signature_via_sturm,
)

print("== two independent signature oracles ==")
g = GramMatrix([
    [3, 1, 0, 2],
    [1, -2, 1, 0],
    [0, 1, 0, 5],
    [2, 0, 5, -1],
])
a = signature_via_sturm(g)
b = signature_via_gso(g)
print(f"  exact elimination: n+ = {a.n_plus}, n- = {a.n_minus}, det = {a.nondeg_det}")
print(f"  reduction output:  n+ = {b.n_plus}, n- = {b.n_minus}, det = {b.nondeg_det}")

print()
print("== kernel splitting of a degenerate matrix ==")
g = GramMatrix([[1, 1, 2], [1, 1, 2], [2, 2, 4]])
ks = kernel_split(g)
print(f"  rank {ks.rank}, nondegenerate block {ks.nondegenerate.rows}")
print(f"  transform columns: {ks.transform}")

print()
print("== hyperbolic stacks: signature grows, definite blocks do not ==")
stack = gen_hyperbolic_stack(2, [1, 1])
r = reduce(stack)
print(f"  dim {stack.dim}, signature {signature_via_sturm(stack).signature}, "
      f"definite-block sum after reduction: {r.sum_definite_exponent()}")

print()
print("== removing a plane with a unit vector ==")
g3 = GramMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
out, u = remove_hyperbolic_plane(g3)
print(f"  basis change {u} turns the plane block into {out.rows}")

g3 = GramMatrix([[1, 0, 0], [0, 0, Fraction(1, 2)], [0, Fraction(1, 2), 0]])
out, _ = remove_hyperbolic_plane(g3)
print(f"  with cross 1/2 the result is dense: {out.rows}")

print()
print("== a Hermitian form doubled into a real one ==")
h = hermitian_embed([[(1, 0), (0, 1)], [(0, -1), (2, 0)]])
print(f"  embedded Gram: {h.rows}")
inv = signature_via_sturm(h)
print(f"  eigenvalue signs double: n+ = {inv.n_plus}, n- = {inv.n_minus}")
