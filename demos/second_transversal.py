"""Walk through one exchange on a 6-vertex instance, end to end.

The planted transversal is the cycle 0-1-2-3-4-5 with edge (i, i+1)
colored i. Four chords are spread over the subgraphs so that the set
S = {0, 3} is red-independent and locally dominating, which is all the
exchange needs. The exchange reads the set's support lists, the in-set
heads of each member's neighbors, and keeps the first head of each.
"""

from transversals import (
    BaseGraph,
    KIND_HAM,
    SubgraphFamily,
    build_full_ryb,
    edge,
    lollipop_walk,
    omega_member_ham,
    planted,
    prune,
    second_transversal,
    support,
    support_depth,
    validate_transversal,
)

n = 6
chords = {5: (3, 5), 0: (1, 3), 2: (0, 2), 3: (0, 4)}
subs = []
for i in range(n):
    es = {edge(i, (i + 1) % n)}
    if i in chords:
        es.add(edge(*chords[i]))
    subs.append(frozenset(es))
family = SubgraphFamily(BaseGraph(n, sorted(set().union(*subs))), subs, KIND_HAM)
base = planted(family.kind, family.num_vertices)

print("subgraphs:")
for i, g in enumerate(subs):
    print(f"  G_{i}: {sorted(g)}")

J = build_full_ryb(family)
print("\nyellow arcs:", {v: sorted(J.yellow[v]) for v in range(n) if J.yellow[v]})
print("blue arcs:  ", {v: sorted(J.blue[v]) for v in range(n) if J.blue[v]})

S = (0, 3)
heads = support(J, S)
print(f"\nset S = {S}: d* = {support_depth(heads)}")
print("support lists:", heads)

jp = prune(heads, S, n)
print("retained yellow arcs:", [arc for _, arc in jp.yellow_pick])
print("retained blue arcs:  ", [arc for _, arc in jp.blue_pick])

trace = lollipop_walk(jp, edge(0, 1))
print(f"rotation walk: {len(trace.states)} states, pivots {list(trace.pivots)}")
for state in trace.states:
    print("  path", state)

# the family is canonically labelled: identity tables validate the result there
identity = tuple(range(n)), tuple(range(n))
second = second_transversal(family, identity, S, heads)[0]
print("\nsecond transversal:")
for e, c in second.items:
    marker = "" if base.colors().get(e) == c else "   <- new"
    print(f"  edge {e} colored {c}{marker}")
print("valid:", validate_transversal(family, second).ok)
print("distinct from base:", second != base)
print("stays inside the constrained space:", omega_member_ham(S, second))
