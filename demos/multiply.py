"""Grow one transversal into a factorial-sized family of distinct ones.

Uses a generated instance where the set S = {0, 3, 6} has exchange
depth d = 2, so the recursion must return at least (d+1)! = 6 distinct
transversals. A brute-force enumeration of the constrained space
confirms every output lives there.
"""

import math

from transversals import (
    enumerate_omega_ham,
    gen_witness_instance_ham,
    many_transversals,
    support,
    support_depth,
    validate_transversal,
)

n, S, d, seed = 10, (0, 3, 6), 2, 6
family, base = gen_witness_instance_ham(n, S, d, seed=seed)

depth = support_depth(support(family, S))
required = math.factorial(depth + 1)
print(f"n = {n}, S = {S}, exchange depth d* = {depth}")
print(f"lower bound to certify: (d*+1)! = {required}")

d, outputs = many_transversals(family, S)
assert d == depth, "the recursion counts the same depth"
print(f"recursion produced {len(outputs)} transversals")

assert len(set(outputs)) == len(outputs), "outputs must be pairwise distinct"
for t in outputs:
    assert validate_transversal(family, t).ok

omega = set(enumerate_omega_ham(family, base, S))
inside = sum(1 for t in outputs if t in omega)
print(f"constrained space has {len(omega)} members; {inside}/{len(outputs)} outputs are members")
print("bound met:", len(outputs) >= required)
