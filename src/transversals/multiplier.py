"""Turning one transversal into factorially many.

The exchange neighborhood of (base, S) is enumerated directly for small
sets. The multiplication recursions first locate a saturated boundary
vertex: a vertex all of whose set-targeting edges are realized by some
already-constructed neighborhood member. Saturation is reached
constructively by one ``_saturated_branches`` for both kinds: it
passes the not-yet-realized heads of the set's ``support`` to the
exchange, which keeps the first of each list, and crosses off every
head the returned transversal realizes; no digraph is built per round.
It returns the saturated vertex's branches, one per target edge: the
child's tables and the pairs it drops. Branching over those d+1 or more
and recursing on the shrunk set multiplies the count by d+1 per level.
One recursion serves both kinds, and one entry, ``many_transversals``,
which returns the set's support depth d with the outputs, so a caller
reads d where the floor uses it. A cycle's runs on its ``_kernel``: each
member, its two cycle neighbors and the vertex after its successor, at
most 4|S| vertices, with every longer base path between them contracted
to one edge. So its nodes cost O(|S|), not O(n). A matching, or a cycle
whose members are at most four apart, keeps every vertex, and runs on
the caller's family as it is. A node is its new-to-old vertex and color
tables into the family the recursion runs on, plus its set; no family,
base graph or digraph is built for it, and its support is read once,
through its tables. A memo solves each distinct child once per call. A
cycle child is keyed on its size, subgraph rows (``relabel_rows``) and
set: nothing below the root reads a child's base rows, so they are not
in the key. A matching child is keyed on its size, its members'
``admissible_rows`` and its set, and its support is filtered from that
key on a miss: its subtree reads no other row. The plan of tables the
recursion returns is expanded once at the top, and each kernel output
once more, splicing its O(|S|) kept items into the contracted paths'
items, sorted once per call, so each output is built once in the
caller's labels, without sorting its n items again. The base is the
planted transversal, ``planted(kind, n)``, validated once on entry;
each node and exchange round derives its own from the node's size, and
``planted`` builds each size once per process. Every other witness is
validated once, by the exchange round that made it. A kernel output is checked in O(|S|), in the kernel and
item by item against the caller's family, after one O(n) check per call
that the contracted paths are planted runs tiling the cycle; together
these are its expansion's validation in the caller's labels. The (d+1)!
floor, the target count, the depth drop, each output's membership in
the exchange neighborhood and a kernel output's expansion are each
checked once and raise GuaranteeViolated.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

from .core import (
    KIND_HAM,
    BaseGraph,
    Edge,
    SubgraphFamily,
    Tables,
    Transversal,
    canonical_tables,
    edge,
    lift,
    old_to_new,
    planted,
    relabel_rows,
    require_naturally_indexed,
    validate_transversal,
)
from .digraphs import admissible_rows, omega_member_ham, omega_member_pm, row_heads, support, support_depth
from .errors import DStarTooSmall, GuaranteeViolated, InvalidTransversal, NotRedIndependent, WalkStuck
from .exchange import second_transversal


def _cycle_paths(n: int, members: Sequence[int]):
    """Arcs of the base cycle strictly between consecutive set members.

    Yields (vertices, first_color, last_color): the colors carried by the
    base edges joining the path's two endpoints to the set.
    """
    ms = sorted(members)
    for k, m in enumerate(ms):
        nxt = ms[(k + 1) % len(ms)]
        verts = []
        v = (m + 1) % n
        while v != nxt:
            verts.append(v)
            v = (v + 1) % n
        yield tuple(verts), m, (nxt - 1) % n


def enumerate_omega_ham(
    family: SubgraphFamily, base: Transversal, members: Sequence[int]
) -> list[Transversal]:
    """All members of the exchange neighborhood, canonically sorted.

    Every neighborhood member alternates set vertices and reoriented base
    paths, with each path endpoint attached to a set vertex by an edge of
    the subgraph matching that endpoint's base boundary color. The search
    is exponential in |members|; callers keep the set small.
    """
    require_naturally_indexed(family, base)
    n = family.num_vertices
    ms = sorted(set(members))
    if not ms:
        return [base]
    paths = list(_cycle_paths(n, ms))
    if any(not p[0] for p in paths):
        raise NotRedIndependent("consecutive set members leave an empty path")
    start = ms[0]
    others = [m for m in ms if m != start]
    found: set[Transversal] = set()

    def admissible(v: int, color: int, m: int) -> bool:
        return edge(v, m) in family.subgraphs[color]

    base_colors = base.colors()

    def build(arrangement: list[tuple[int, bool, int]]):
        # arrangement entries: (path index, reversed?, member the path exits to)
        psi: dict[Edge, int] = {}
        cur = start
        for pi, rev, nxt in arrangement:
            verts, cf, cl = paths[pi]
            seq = verts[::-1] if rev else verts
            enter_color = cl if rev else cf
            exit_color = cf if rev else cl
            psi[edge(cur, seq[0])] = enter_color
            for a, b in zip(seq, seq[1:]):
                psi[edge(a, b)] = base_colors[edge(a, b)]
            psi[edge(seq[-1], nxt)] = exit_color
            cur = nxt
        found.add(Transversal.from_map(base.kind, psi))

    def rec(cur: int, used_paths: set[int], used_members: set[int], arrangement):
        last = len(used_paths) == len(paths) - 1
        for pi in range(len(paths)):
            if pi in used_paths:
                continue
            verts, cf, cl = paths[pi]
            for rev in (False, True):
                enter_v = verts[-1] if rev else verts[0]
                enter_c = cl if rev else cf
                exit_v = verts[0] if rev else verts[-1]
                exit_c = cf if rev else cl
                if not admissible(enter_v, enter_c, cur):
                    continue
                if last:
                    if admissible(exit_v, exit_c, start):
                        build(arrangement + [(pi, rev, start)])
                    continue
                for mm in others:
                    if mm in used_members:
                        continue
                    if admissible(exit_v, exit_c, mm):
                        rec(cur=mm, used_paths=used_paths | {pi}, used_members=used_members | {mm},
                            arrangement=arrangement + [(pi, rev, mm)])

    rec(start, set(), set(), [])
    return sorted(found, key=lambda t: t.items)


def enumerate_omega_pm(
    family: SubgraphFamily, base: Transversal, members: Sequence[int]
) -> list[Transversal]:
    """All boundary-crossing recolor-fixed matchings, canonically sorted.

    Equivalent to the perfect matchings of the member-versus-outside
    bipartite admissibility graph, so len(result) equals the permanent of
    omega_admissibility_matrix(family, members). Each member's admissible
    (edge, color) items are built once, from its ``admissible_rows`` row,
    and each leaf's items are sorted into a ``Transversal._canonical``:
    its edges are ``edge()``'s, and no two leaves give one matching, as
    each takes other heads. A set that is not one endpoint per pair
    raises NotMaximalRedIndependent.
    """
    require_naturally_indexed(family, base)
    n = family.num_pairs
    ms = sorted(set(members))
    rows = [[(w, (edge(m, w), m % n)) for w in row] for m, row in zip(ms, admissible_rows(family, ms))]
    found: list[Transversal] = []
    taken: set[int] = set()
    items: list[tuple[Edge, int]] = []

    def rec(k: int):
        if k == n:
            found.append(Transversal._canonical(base.kind, tuple(sorted(items))))
            return
        for w, item in rows[k]:
            if w in taken:
                continue
            taken.add(w)
            items.append(item)
            rec(k + 1)
            items.pop()
            taken.discard(w)

    rec(0)
    found.sort(key=lambda t: t.items)
    return found


def omega_admissibility_matrix(
    family: SubgraphFamily, members: Sequence[int]
) -> list[list[int]]:
    """0/1 matrix: members (rows, sorted) versus outside vertices (columns,
    sorted); 1 where the subgraph of the member's pair holds the edge, as
    ``admissible_rows`` reads it. A set that is not one endpoint per pair
    raises NotMaximalRedIndependent."""
    rows = admissible_rows(family, members)
    s = set(members)
    outside = [v for v in range(family.num_vertices) if v not in s]
    return [[1 if w in row else 0 for w in outside] for row in rows]


def _saturated_branches(family: SubgraphFamily, node: tuple, members: Sequence[int],
                        heads: dict[int, tuple[int, ...]]) -> list[tuple[Edge, Tables, tuple]]:
    """Run exchange rounds until some boundary vertex has no pending head,
    and return one branch per target edge of the lowest such vertex.

    ``node`` is as in ``_many``, and base is ``planted`` of its size; the
    tails of heads, its ``support``, are the boundary vertices. Each
    starts with its heads pending, and base witnesses its cycle edge to
    its member, or its planted pair. Each round passes the pending lists
    to the exchange, which keeps the first, lowest, head of each, and
    crosses off every pending head the returned transversal realizes.
    That transversal differs from base inside the kept arcs, so every
    round makes progress.

    Returns, per target edge e of the saturated vertex, in ascending
    order, ``(e, tables, pairs)``: the child's new-to-old tables, a
    cycle's from the walk that realized e, a matching's
    ``canonical_tables`` of its witness at e; and the (edge, color) items
    the child drops, a matching's branch pair.
    """
    base = planted(family.kind, len(node[0]))
    ms = sorted(set(members))
    n = len(base)
    ham = base.kind == KIND_HAM
    if ham:
        # each boundary vertex is the cycle neighbor of exactly one member
        base_edge = {(m + k) % n: edge(m, (m + k) % n) for m in ms for k in (-1, 1)}
        tables = tuple(range(n)), tuple(range(n))
    else:
        base_edge, tables = {m: edge(m, (m + n) % (2 * n)) for m in ms}, None
    todo = {v: list(hs) for v, hs in heads.items()}
    witnesses = {v: {base_edge[v]: (base, tables)} for v in todo}
    while all(todo.values()):
        out, _, canonical, _ = second_transversal(family, node, ms, todo)
        realized = out.edge_set
        progressed = False
        for v, pending in todo.items():
            kept = []
            for h in pending:
                e = edge(v, h)
                if e in realized:
                    witnesses[v][e] = out, canonical
                    progressed = True
                else:
                    kept.append(h)
            todo[v] = kept
        if not progressed:
            raise WalkStuck("exchange realized none of the kept arcs")
    targets = sorted(witnesses[min(v for v, t in todo.items() if not t)].items())
    if ham:
        return [(e, tables, ()) for e, (_, tables) in targets]
    return [(e, canonical_tables(wit, e), ((e, wit.color_of(e)),)) for e, (wit, _) in targets]


def many_transversals(family: SubgraphFamily, members: Sequence[int]) -> tuple[int, list[Transversal]]:
    """The support depth d of members, and at least (d+1)! distinct
    transversals, all in the exchange neighborhood of the planted one and
    members, that one included; canonically sorted.

    family is canonically labelled, and no digraph is built: ``support``
    reads the set's heads from family. The planted transversal is
    validated here, once, and every check on the set runs on family: a
    cycle needs d >= 1. A cycle's recursion then runs on its
    ``_kernel``, whose outputs are expanded back once and checked by
    ``_expand_kernel`` as valid in the caller's labels. Every output of
    either kind is checked against the exchange neighborhood in the labels
    the recursion ran on. Every other witness comes out of the exchange,
    which validates it, and a child's base is the relabelled image of
    one. The (d+1)! floor is checked here, once for the whole recursion.
    """
    report = validate_transversal(family, planted(family.kind, family.num_vertices))
    if not report.ok:
        raise InvalidTransversal(f"witness is invalid: {report.summary()}", report)
    ms = tuple(sorted(set(members)))
    heads = support(family, ms)
    d = support_depth(heads)
    if d < 1 and family.kind == KIND_HAM:
        raise DStarTooSmall(f"support depth is {d}; need at least 1")
    kfam, kms, kheads, K, paths = _kernel(family, ms, heads)
    root = tuple(range(kfam.num_vertices)), tuple(range(kfam.num_colors)), ()
    plan = _many(kfam, root, kms, kheads, d, {})
    out = set(_expand(plan, *root))
    if len(out) < math.factorial(d + 1):
        raise GuaranteeViolated("multiplication fell short of (d+1)!")
    expanded = _expand_kernel(family, kfam, out, K, paths)
    in_omega = omega_member_ham if family.kind == KIND_HAM else omega_member_pm
    if not all(in_omega(kms, t) for t in out):
        raise GuaranteeViolated("a multiplication output lies outside the exchange neighborhood")
    return d, sorted(expanded, key=lambda t: t.items)


def _kernel(family: SubgraphFamily, ms: tuple[int, ...], heads: dict[int, tuple[int, ...]]) -> tuple:
    """The cycle instance cut down to at most 4|ms| vertices.

    Returns the kernel family, ms and its ``support`` heads in kernel
    labels, K and the contracted paths. K keeps, for each member m, m-1,
    m, m+1 and m+2, in cycle order: kernel vertex and color k are root
    vertex and color K[k], so the kernel is canonically labelled. Where
    K[k+1] is not K[k]+1, the base path K[k]...K[k+1] (some m+2...m'-1,
    m' the next member) contracts to the kernel edge (k, k+1). That edge
    is in kernel subgraph k only, and ``paths`` maps it to its own color
    k and the path's (edge, color) items in root labels. Kernel subgraph
    k is otherwise root subgraph K[k] restricted to K, less any chord
    landing on a contracted edge: such a chord joins two non-members. A
    matching, or a cycle whose members are at most four apart, keeps
    every vertex: it returns family, ms and heads themselves, the
    identity and no paths, and nothing is built.

    Why the recursion may run here instead:
    - Omega keeps the contracted paths. Every member of the exchange
      neighborhood alternates set vertices and base paths between them,
      which keep their base colors (``enumerate_omega_ham``); so it
      keeps each path m+2...m'-1 whole, uses no chord between two
      non-members, and no color of a path's interior.
    - The recursion reads no interior vertex of a contracted path.
      ``support`` reads arcs from m-1 and m+1 into the set, in colors m-1
      and m. The exchange keeps one such arc per tail, and its rotation
      walk pivots only at ends of kept arcs, all in K: a path's interior
      vertex has no kept arc, so every walk state holds its two base
      edges, and the recolor gives them their base colors. Each child is
      a member of omega, so the same holds below.
    - A valid kernel transversal expands to a valid root one. A
      contracted edge in its own color stands for its path, whose
      interior vertices and colors appear nowhere else in the kernel, so
      putting the path back keeps one Hamiltonian cycle and one edge of
      each color, each in its subgraph. ``_expand_kernel`` refuses a
      contracted edge in any other color.
    """
    n = family.num_vertices
    K = sorted({(m + k) % n for m in ms for k in (-1, 0, 1, 2)}) if family.kind == KIND_HAM else range(n)
    if len(K) == n:
        return family, ms, heads, tuple(range(n)), {}
    size = len(K)
    paths = {}
    for k, a in enumerate(K):
        gap = (K[(k + 1) % size] - a) % n
        if gap > 1:
            path = tuple([(edge(v % n, (v + 1) % n), v % n) for v in range(a, a + gap)])
            paths[edge(k, (k + 1) % size)] = k, path
    new = {v: k for k, v in enumerate(K)}
    # one restriction per distinct subgraph object, as build_full_ryb indexes
    # them; K is increasing, so a restricted edge stays (min, max)
    restricted: dict[int, frozenset[Edge]] = {}
    subs = []
    for k, c in enumerate(K):
        g = family.subgraphs[c]
        sub = restricted.get(id(g))
        if sub is None:
            kept = [(new[u], new[v]) for u, v in g if u in new and v in new]
            sub = restricted[id(g)] = frozenset(kept) - paths.keys()
        e = edge(k, (k + 1) % size)
        subs.append(sub | {e} if e in paths else sub)
    base = BaseGraph(size, frozenset().union(paths, *restricted.values()))
    # support reads only tails and heads K keeps, and K is increasing, so
    # mapping the root's lists gives the kernel's, still ascending
    kheads = {new[t]: tuple([new[h] for h in hs]) for t, hs in heads.items()}
    return SubgraphFamily(base, subs, KIND_HAM), tuple([new[m] for m in ms]), kheads, tuple(K), paths


def _expand_kernel(family, kfam, out, K, paths) -> list[Transversal]:
    """``_kernel``'s outputs in family's labels; ``out`` as it is when
    nothing contracted. A contracted edge becomes its path.

    ``_check_paths`` runs once per call, in O(n): K is increasing, kfam
    has one vertex and color per entry of K, each contracted edge (k,
    k+1) in color k stands for exactly the planted run K[k]...K[k+1] with
    base colors K[k]...K[k+1]-1, and the kept edges and the paths tile
    the root cycle: |K| - #paths + the paths' total length is n. Every
    path item is then a planted item, which ``many_transversals``'s entry
    validation checked in family. Each output t then costs O(|K|) checks,
    each raising GuaranteeViolated, in this order: (P2) every contracted
    edge in t carries its own color; (P1) t is valid in kfam, a
    Hamiltonian cycle on K with one edge of each kernel color; (P3) every
    contracted edge is in t; (P4) every other item ((a, b), c) has (K[a],
    K[b]) in family's base and in its subgraph K[c], which checks
    ``_kernel``'s restriction without trusting it.

    Why these are the validation of the expansion in family:
    - Size: P1 gives |K| items and P3 puts every path back, so by the
      tiling the expansion has n items.
    - Membership: a kept item is in its subgraph by P4, and a path item
      is a planted item.
    - Colors: by P1 and P2 each kernel color c is carried once, by a kept
      item, which becomes root color K[c], or by a contracted edge, whose
      path carries K[c] and the colors strictly between K[c] and the next
      entry of K. K is increasing, so those interior colors are outside
      K and in no other path: the n colors are distinct, a bijection on
      0..n-1.
    - Cycle: P1's Hamiltonian cycle on K, with each contracted edge
      replaced by its path, whose interior vertices are likewise outside
      K and in no other path, is one cycle; by the tiling, the kept
      vertices and the interiors are all n vertices.
    Conversely, when ``_kernel`` built kfam, K and paths, a kernel output
    whose expansion is valid in family passes P1 to P4: its kept items
    are root edges in their root subgraphs that are no contracted edge,
    so they are in kfam, and only the paths cover their interiors. So
    this accepts exactly what validating each expansion in family did.

    The expansion is spliced, not sorted: the paths' items are sorted
    once per call, and each output's kept items are merged into them by
    ``_spliced``, in O(|K| log n) comparisons and slice copies. The result
    is canonical, so ``Transversal._canonical`` stores it as it is:
    - a kept edge (K[a], K[b]) is ordered (min, max), as K is increasing,
      and path items come from ``edge()``;
    - the kept items are in order: t's items are sorted by edge, and K
      is increasing;
    - the merge keeps the order, and no kept edge equals a path edge:
      every path edge has an endpoint inside its path, and those
      endpoints are outside K.
    """
    if not paths:
        return list(out)
    _check_paths(family, kfam, K, paths)
    # P3 puts every path in every output: their items are sorted once
    run = sorted([item for _, items in paths.values() for item in items])
    base, subs = family.base.edge_set, family.subgraphs
    expanded = []
    for t in out:
        for e, c in t.items:
            if e in paths and c != paths[e][0]:
                raise GuaranteeViolated(f"a kernel output recolors the contracted edge {e}")
        check = validate_transversal(kfam, t)
        if not check.ok:
            raise GuaranteeViolated(f"a kernel multiplication output is invalid: {check.summary()}")
        missing = paths.keys() - t.edge_set
        if missing:
            raise GuaranteeViolated(f"a kernel output leaves out the contracted edge {min(missing)}")
        kept = []
        for e, c in t.items:
            if e not in paths:
                f, fc = (K[e[0]], K[e[1]]), K[c]
                if f not in base or f not in subs[fc]:
                    raise GuaranteeViolated(
                        f"an expanded multiplication output is invalid: edge {f} not in base and subgraph {fc}")
                kept.append((f, fc))
        expanded.append(Transversal._canonical(KIND_HAM, _spliced(run, kept)))
    return expanded


def _spliced(run: list, kept: list) -> tuple:
    """The sorted list ``run`` with the sorted ``kept`` merged in, each
    placed by ``bisect`` and the run copied between them in slices."""
    items, lo = [], 0
    for item in kept:
        hi = bisect_left(run, item, lo)
        items += run[lo:hi]
        items.append(item)
        lo = hi
    items += run[lo:]
    return tuple(items)


def _check_paths(family, kfam, K, paths) -> None:
    """``_expand_kernel``'s check once per call, in O(n)."""
    n, size = family.num_vertices, len(K)
    if not (kfam.num_vertices == kfam.num_colors == size and 0 <= K[0] and K[-1] < n
            and all(a < b for a, b in zip(K, K[1:]))):
        raise GuaranteeViolated("the kernel does not keep one vertex and color per entry of K, in cycle order")
    total = size - len(paths) + sum([len(items) for _, items in paths.values()])
    if total != n:
        raise GuaranteeViolated(
            f"an expanded multiplication output is invalid: size: expected {n} edges, got {total}")
    for e, (c, items) in paths.items():
        if not 0 <= c < size or e != edge(c, (c + 1) % size):
            raise GuaranteeViolated(f"the contracted edge {e} is not the kernel edge of its color {c}")
        a, b = K[c], K[(c + 1) % size]
        run = tuple([(edge(v % n, (v + 1) % n), v % n) for v in range(a, a + (b - a) % n)])
        if items != run:
            raise GuaranteeViolated(f"the contracted edge {e} does not stand for the base path {a}...{b}")


def _expand(plan, vmap, cmap, fixed=()):
    """The outputs a plan stands for, each lifted once: vmap and cmap take
    the node's labels to the caller's, and ``fixed`` holds the branch
    pairs dropped on the way down, in the caller's labels."""
    for item in plan:
        if isinstance(item, Transversal):
            yield from lift([item], vmap, cmap, fixed)
        else:
            vinv, cinv, pairs, child = item
            pairs = tuple([((vmap[u], vmap[v]), cmap[c]) for (u, v), c in pairs])
            yield from _expand(child, [vmap[k] for k in vinv], [cmap[k] for k in cinv], fixed + pairs)


def _many(family, node, ms, heads, d, memo) -> list:
    """One branch per target of a saturated vertex, for either kind.

    family is the one ``many_transversals`` runs on, a cycle's kernel or
    the caller's; ``node = (vt, ct, fixed)``: new vertex k is family's
    ``vt[k]``, new color k is ``ct[k]``, and ``fixed`` holds the
    pairs a matching dropped on the way down, in family's labels. heads
    is ms's ``support`` and d its depth.
    Returns a plan: a list of outputs in this node's labels, or of branches
    ``(vinv, cinv, pairs, child plan)``: the child's tables and the (edge,
    color) items it drops, a matching's branch pair. ``memo`` (one dict per
    ``many_transversals`` call) maps each distinct child's key to its depth
    and plan: a cycle child's size, subgraph rows (``relabel_rows``) and
    set, a matching child's size, ``admissible_rows`` and set. A matching
    child's support is ``row_heads`` of its key, filtered once, on a miss.
    A node's planted transversal is ``planted(family.kind, len(vt))``,
    built once per size and process.

    Why a cycle's key leaves out the child's base rows: nothing below here
    reads them. ``support`` reads subgraphs, the exchange reads
    only ``heads``, and each witness is validated by ``second_transversal``
    in the labels of family, the one the recursion runs on, not the
    child's, lifted there through the node as ``_expand`` lifts; there
    every subgraph edge is a base edge (``validate_family`` requires it of
    every loaded file, and ``_kernel`` builds it so), so a witness's base
    check follows from its subgraph check. So children with equal subgraph
    rows and equal sets have equal plans, whatever their base rows.

    Why a matching's key may leave out every subgraph row but the
    members' own, read outside the set:
    - The subtree reads only heads. Its depth, its leaf (depth 0 or one
      pair), the exchange's alternating cycle, the saturation loop's
      crossing off and each branch's ``canonical_tables`` read the size,
      the set and the heads, which ``row_heads`` takes from the key.
    - Members keep their vertices and colors down the tree. Every witness
      is in omega, so a member m keeps color m mod n, and
      ``canonical_tables`` takes pairs in color order: m's image m2 in a
      child has ``vt2[m2] == vt[m]`` and ``ct2[m2 % n2] == ct[m % n]``,
      so its row is read in the same subgraph at the same vertex of
      family.
    - A grandchild's tables and admissible rows are functions of the
      child's key: its tables come from a witness in the child's labels,
      and each member's row is the image of its row in the child, less
      the dropped pair's outside vertex, as the grandchild keeps every
      other vertex and the dropped member takes no row.
    - Every leaf item of a shared plan is valid in the root labels for
      every reader. Down a reader's path, each item of a node's planted
      transversal, of a witness and of a dropped pair is, by induction,
      a pair of the reader's validated planted transversal at the root or
      a member's edge to a head in its admissible row, in the member's
      color: the reader's own tables read that row, so the edge is in the
      member's subgraph of family, and so in its base. A witness's items
      tile the vertices and colors of its node's planted pairs in the
      node's labels, whoever reads them; so with the reader's dropped
      pairs each lifted witness, and each output, is a perfect matching
      with one edge of each color, as the exchange's validation found
      for the first reader.
    So children with equal admissible rows and equal sets have equal
    plans, whatever their other subgraph rows.
    """
    vt, ct, fixed = node
    ham = family.kind == KIND_HAM
    base = planted(family.kind, len(vt))
    if ham and d == 1:
        return [base, second_transversal(family, node, ms, heads)[0]]
    if not ham and (d == 0 or len(ct) == 1):
        return [base]
    branches = _saturated_branches(family, node, ms, heads)
    if len(branches) < d + 1:
        raise GuaranteeViolated("saturated vertex has too few targets")
    plan = []
    for e, (vinv, cinv), pairs in branches:
        # relabelling composes: these rows are what this node's family would give
        vt2, ct2 = tuple([vt[k] for k in vinv]), tuple([ct[k] for k in cinv])
        new = old_to_new(vinv, len(vt))
        # e has one endpoint in the set, and the child's set leaves it out
        ms2 = tuple(sorted(new[m] for m in ms if m not in e))
        rows2 = relabel_rows(family, vt2, ct2) if ham else admissible_rows(family, ms2, (vt2, ct2))
        key = len(vinv), rows2, ms2
        hit = memo.get(key)
        if hit is None:
            heads2 = support(family, ms2, (vt2, ct2)) if ham else row_heads(ms2, rows2)
            d2 = support_depth(heads2)
        else:
            d2, child = hit
        # checked against this parent's d, on a hit as well
        if d2 < d - 1:
            raise GuaranteeViolated("depth dropped by more than one")
        if hit is None:
            fixed2 = fixed + tuple([((vt[u], vt[v]), ct[c]) for (u, v), c in pairs])
            child = _many(family, (vt2, ct2, fixed2), ms2, heads2, d2, memo)
            memo[key] = d2, child
        plan.append((vinv, cinv, pairs, child))
    return plan
