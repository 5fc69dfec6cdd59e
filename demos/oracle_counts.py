"""Exact transversal counts on small instances.

Three sanity anchors: the all-equal complete graph on 4 vertices, a
family that forces a unique Hamiltonian transversal, and a matching
neighborhood whose size is checked against the permanent of its
admissibility matrix.
"""

from transversals import (
    BaseGraph,
    KIND_HAM,
    SearchBudget,
    SubgraphFamily,
    count_ham_transversals,
    count_pm_transversals,
    edge,
    enumerate_all_ham_transversals,
    enumerate_omega_pm,
    gen_planted_pm_family,
    omega_admissibility_matrix,
    permanent,
)

print("== K_4 with every subgraph equal to the whole graph ==")
base = BaseGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
K4 = SubgraphFamily(base, [base.edge_set] * 4, KIND_HAM)
count = count_ham_transversals(K4, SearchBudget())
print(f"count = {count}  (3 Hamiltonian cycles x 4! colorings = 72)")

print("\n== cycle subgraphs force a unique transversal ==")
n = 7
cyc = [frozenset({edge(i, (i + 1) % n)}) for i in range(n)]
forced = SubgraphFamily(BaseGraph(n, sorted(set().union(*cyc))), cyc, KIND_HAM)
ts = enumerate_all_ham_transversals(forced, SearchBudget())
print(f"count = {len(ts)}; the single member is the planted cycle")

print("\n== matching neighborhood size equals a permanent ==")
family, t = gen_planted_pm_family(6, 2, seed=1)
S = tuple(range(6))
om = enumerate_omega_pm(family, t, S)
M = omega_admissibility_matrix(family, S)
print(f"enumerated members: {len(om)}")
print(f"permanent of the admissibility matrix: {permanent(M)}")
print(f"total transversal count for scale: {count_pm_transversals(family, SearchBudget())}")
