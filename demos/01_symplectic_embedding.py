"""Walk through the mod-2 symplectic embedding of a symmetric group.

Builds the irreducible cut from the natural permutation module, checks that
the pairing counting shared moved points is preserved, and then finds the
largest elementary abelian subgroup acting trivially on a Lagrangian and on
its quotient.
"""

from symprep import perm as pm
from symprep.dickson import (check_invariance, dickson_form, half_dim, lagrangian_pair,
                             parabolic_trivial_subgroup, perm_irrep)

for n in range(5, 11):
    rep = perm_irrep(n, 2)
    d = rep.dim // 2
    form = dickson_form(d)
    print(f"n={n}: module dimension {rep.dim} = 2*{d}, "
          f"form preserved: {check_invariance(rep, form)}")

# The subgroup fixing a Lagrangian flag pointwise, found exactly by a
# point-by-point backtrack over S_n.  Disjoint transpositions generate it.
n = 8
w, dual, pairing = lagrangian_pair(half_dim(n))
res = parabolic_trivial_subgroup(n, "sym", w)
print(f"\nS_{n}: rank {res.rank}, order {res.order}")
print("witness generators:", ", ".join(pm.to_cycles(g) for g in res.witness))

res_a = parabolic_trivial_subgroup(n, "alt", w)
print(f"A_{n}: rank {res_a.rank}, order {res_a.order}")
print("witness generators:", ", ".join(pm.to_cycles(g) for g in res_a.witness))
