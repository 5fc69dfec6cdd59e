"""Base graphs, subgraph families, transversals, and the canonical labelling.

A family is a base graph G together with an ordered list of subgraphs
G_0..G_{s-1}. A transversal picks one edge per subgraph, all distinct:
``colors`` is a bijection from the chosen edges onto 0..s-1 with
edge e belonging to the subgraph of its color. One two-valued kind,
shared by a family and its transversals, says which target is meant:

* ``KIND_HAM = "hamiltonian"``: s = |V| and the chosen edges form a
  Hamiltonian cycle;
* ``KIND_PM = "perfect_matching"``: |V| = 2s and the chosen edges form a
  perfect matching.

The values are also the ``kind`` tags of the instance files.

The canonical ("naturally indexed") labelling puts the cycle on
0,1,...,n-1 with edge(i, i+1 mod n) colored i, or pairs vertex i with
n+i colored i. Everything downstream assumes it. That transversal is
``planted(kind, n)``, a function of the kind and the vertex count, so
the digraph builders, the exchanges and the multiplication take the
family alone. Only the omega checks, which compare a result with a
base, take one, and ``enumerate_omega_*`` pass it to
``require_naturally_indexed``. ``canonical_tables`` states the rule
once as new-to-old tables, ``relabel_rows`` maps a family's subgraphs
through them, ``relabel`` rebuilds the whole family, its base edges by
the same rule, and ``lift`` maps transversals back; ``naturally_index``
and the multiplication's children share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvalidTransversal, NotNaturallyIndexed

Edge = tuple[int, int]
Tables = tuple[tuple[int, ...], tuple[int, ...]]  # new-to-old vertex and color tables

KIND_HAM = "hamiltonian"
KIND_PM = "perfect_matching"


def edge(u: int, v: int) -> Edge:
    """Return the endpoint pair ordered (min, max)."""
    return (u, v) if u <= v else (v, u)


class BaseGraph:
    """Simple undirected graph on vertices 0..num_vertices-1."""

    __slots__ = ("num_vertices", "_adj", "_edges")

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        self.num_vertices = num_vertices
        seen: set[Edge] = set()
        adj: list[set[int]] = [set() for _ in range(num_vertices)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
            e = edge(u, v)
            if e in seen:
                continue
            seen.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self._edges = frozenset(seen)
        self._adj = tuple(tuple(sorted(s)) for s in adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self._edges

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max(len(a) for a in self._adj)

    def edges(self) -> list[Edge]:
        return sorted(self._edges)

    @property
    def edge_set(self) -> frozenset[Edge]:
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BaseGraph):
            return NotImplemented
        return (self.num_vertices, self._edges) == (other.num_vertices, other._edges)

    def __hash__(self) -> int:
        return hash((self.num_vertices, self._edges))

    def __repr__(self) -> str:
        return f"BaseGraph(n={self.num_vertices}, m={len(self._edges)})"


def cycle_graph(n: int) -> BaseGraph:
    """The n-cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return BaseGraph(n, [edge(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> BaseGraph:
    return BaseGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


@dataclass(frozen=True)
class SubgraphFamily:
    """A base graph with an ordered tuple of subgraph edge sets.

    Each subgraph object passed in is canonicalised once, so subgraphs
    given as one shared object (an all-equal family, or a loaded file
    whose rows are equal) stay one shared frozenset.
    """

    base: BaseGraph
    subgraphs: tuple[frozenset[Edge], ...]
    kind: str

    def __post_init__(self):
        if self.kind not in (KIND_HAM, KIND_PM):
            raise ValueError(f"unknown family kind {self.kind!r}")
        # keyed by id, not by value: a loaded file's equal rows and an
        # all-equal family's subgraphs are one shared object, so each is
        # canonicalised once without hashing any set; the tuple keeps each
        # input alive, so no id is reused meanwhile; edge() is inlined
        given = tuple(self.subgraphs)
        canon: dict[int, frozenset[Edge]] = {}
        subs = []
        for g in given:
            c = canon.get(id(g))
            if c is None:
                c = canon[id(g)] = frozenset([(u, v) if u <= v else (v, u) for u, v in g])
            subs.append(c)
        object.__setattr__(self, "subgraphs", tuple(subs))

    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices

    @property
    def num_colors(self) -> int:
        return len(self.subgraphs)

    @property
    def num_pairs(self) -> int:
        """Matching kind only: number of matched pairs n, with |V| = 2n."""
        return self.base.num_vertices // 2


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{v.code}: {v.detail}" for v in self.violations)


@dataclass(frozen=True)
class Transversal:
    """One edge per subgraph, held as (edge, color) pairs sorted by edge.

    Identity is the sorted edge list plus the color map, so the same
    edge set under two colorings gives two distinct transversals.
    """

    kind: str
    items: tuple[tuple[Edge, int], ...]

    def __post_init__(self):
        if self.kind not in (KIND_HAM, KIND_PM):
            raise ValueError(f"unknown transversal kind {self.kind!r}")
        # edge() is inlined: every plan leaf the multiplication expands
        # passes here once, in the labels its recursion runs on
        object.__setattr__(
            self, "items", tuple(sorted([((u, v) if u <= v else (v, u), c) for (u, v), c in self.items]))
        )

    @classmethod
    def from_map(cls, kind: str, colors: Mapping[Edge, int]) -> "Transversal":
        return cls(kind, tuple(colors.items()))

    @classmethod
    def _canonical(cls, kind: str, items: tuple[tuple[Edge, int], ...]) -> "Transversal":
        """A transversal of items that are already canonical: each edge
        (min, max), sorted. They are stored as given, neither normalised
        nor sorted again; ``multiplier._expand_kernel``, the one caller,
        says why its items are canonical."""
        t = object.__new__(cls)
        object.__setattr__(t, "kind", kind)
        object.__setattr__(t, "items", items)
        return t

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(e for e, _ in self.items)

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(e for e, _ in self.items)

    def colors(self) -> dict[Edge, int]:
        return {e: c for e, c in self.items}

    def color_of(self, e: Edge) -> int:
        for f, c in self.items:
            if f == e:
                return c
        raise KeyError(e)

    def __len__(self) -> int:
        return len(self.items)


def validate_family(family: SubgraphFamily) -> ValidationReport:
    """Structural checks: subgraph count matches kind, edges live in base."""
    out: list[Violation] = []
    n = family.num_vertices
    if family.kind == KIND_HAM:
        if family.num_colors != n:
            out.append(
                Violation("subgraph_count", f"need {n} subgraphs for {n} vertices, got {family.num_colors}")
            )
    else:
        if n % 2 != 0:
            out.append(Violation("odd_vertex_count", f"matching kind needs even |V|, got {n}"))
        elif family.num_colors != n // 2:
            out.append(
                Violation("subgraph_count", f"need {n // 2} subgraphs for {n} vertices, got {family.num_colors}")
            )
    # a subgraph inside the base has no loop (the base has none) and no
    # missing edge, so only one that is not gets the per-edge scan
    inside: set[int] = set()
    for i, g in enumerate(family.subgraphs):
        if id(g) in inside:
            continue
        if g <= family.base.edge_set:
            inside.add(id(g))
            continue
        for u, v in sorted(g):
            if u == v:
                out.append(Violation("loop_edge", f"subgraph {i} has loop at {u}"))
            elif not family.base.has_edge(u, v):
                out.append(Violation("edge_not_in_base", f"subgraph {i} edge ({u},{v}) missing from base"))
    return ValidationReport(tuple(out))


def _cycle_structure_ok(n: int, edges: Iterable[Edge]) -> bool:
    """True iff the edges form a single cycle through all n vertices."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    count = 0
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
        count += 1
    if count != n or any(len(a) != 2 for a in adj.values()):
        return False
    seen = 1
    prev, cur = None, 0
    while True:
        a, b = adj[cur]
        nxt = a if a != prev else b
        if nxt == 0:
            break
        prev, cur = cur, nxt
        seen += 1
        if seen > n:
            return False
    return seen == n


def validate_transversal(family: SubgraphFamily, t: Transversal) -> ValidationReport:
    """Full check: kind match, membership, color bijection, structure."""
    out: list[Violation] = []
    n = family.num_vertices
    if t.kind != family.kind:
        out.append(Violation("kind_mismatch", f"family is {family.kind}, transversal is {t.kind}"))
        return ValidationReport(tuple(out))
    s = family.num_colors
    if len(t) != s:
        out.append(Violation("size", f"expected {s} edges, got {len(t)}"))
    seen_colors: set[int] = set()
    for e, c in t.items:
        u, v = e
        if not (0 <= u < n and 0 <= v < n) or u == v:
            out.append(Violation("bad_edge", f"edge {e} not a valid vertex pair"))
            continue
        if not (0 <= c < s):
            out.append(Violation("color_range", f"edge {e} colored {c}, outside 0..{s - 1}"))
            continue
        if c in seen_colors:
            out.append(Violation("color_repeat", f"color {c} used more than once"))
        seen_colors.add(c)
        if not family.base.has_edge(u, v):
            out.append(Violation("edge_not_in_base", f"edge {e} missing from base"))
        if e not in family.subgraphs[c]:
            out.append(Violation("edge_not_in_subgraph", f"edge {e} not in subgraph {c}"))
    if out:
        return ValidationReport(tuple(out))
    if family.kind == KIND_HAM:
        if not _cycle_structure_ok(n, t.edges):
            out.append(Violation("not_hamiltonian_cycle", "edges do not form one cycle through all vertices"))
    else:
        touched: set[int] = set()
        ok = True
        for u, v in t.edges:
            if u in touched or v in touched:
                ok = False
            touched.update((u, v))
        if not ok or len(touched) != n:
            out.append(Violation("not_perfect_matching", "edges do not form a perfect matching"))
    return ValidationReport(tuple(out))


def _canonical_colors(kind: str, num_vertices: int) -> dict[Edge, int]:
    if kind == KIND_HAM:
        return {edge(i, (i + 1) % num_vertices): i for i in range(num_vertices)}
    n = num_vertices // 2
    return {edge(i, n + i): i for i in range(n)}


def planted(kind: str, num_vertices: int) -> Transversal:
    """The canonical labelling's transversal: edge(i, i+1 mod n) or (i, n+i), colored i."""
    return Transversal.from_map(kind, _canonical_colors(kind, num_vertices))


def canonical_tables(t: Transversal, drop: Edge | None = None) -> Tables:
    """New-to-old vertex and color tables of the canonical labelling of t.

    New vertex k is old vertex ``vinv[k]`` and new color k is old color
    ``cinv[k]``. Cycle kind: the cycle is walked from vertex 0 toward its
    smaller neighbor, and position k takes the color of the edge to
    position k+1. Matching kind: the pairs are taken in color order,
    leaving out ``drop`` if given; the k-th becomes (k, n+k), smaller
    endpoint low, colored k.
    """
    if t.kind == KIND_HAM:
        adj: dict[int, list[int]] = {}
        for u, v in t.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        order = [0, adj[0][0]]
        while len(order) < len(t.items):
            a, b = adj[order[-1]]
            order.append(a if a != order[-2] else b)
        cols = t.colors()
        return cycle_tables(tuple(order), tuple(cols[edge(u, v)] for u, v in zip(order, order[1:] + order[:1])))
    kept = sorted((c, uv) for uv, c in t.items if uv != drop)
    return tuple(u for _, (u, _) in kept) + tuple(v for _, (_, v) in kept), tuple(c for c, _ in kept)


def cycle_tables(seq: tuple[int, ...], cols: tuple[int, ...]) -> Tables:
    """``canonical_tables`` of the cycle walked as the tuple ``seq``, ``cols[k]``
    coloring the edge leaving ``seq[k]``: start at 0, toward its smaller neighbor."""
    k = seq.index(0)
    if seq[k - 1] < seq[(k + 1) % len(seq)]:
        seq, cols, k = seq[::-1], cols[-2::-1] + cols[-1:], len(seq) - 1 - k
    return seq[k:] + seq[:k], cols[k:] + cols[:k]


def old_to_new(vinv: Sequence[int], num_vertices: int) -> list[int]:
    """The inverse table: ``new[vinv[k]] == k``, -1 where vinv leaves a vertex out."""
    new = [-1] * num_vertices
    for k, v in enumerate(vinv):
        new[v] = k
    return new


def _mapped_pairs(new: Sequence[int], edges: Iterable[Edge]) -> frozenset[Edge]:
    """Edges through the old-to-new table ``new``, each ordered (min, max);
    an edge touching a vertex the table leaves out (-1) is dropped."""
    mapped = [(new[u], new[v]) for u, v in edges]
    return frozenset([(a, b) if a <= b else (b, a) for a, b in mapped if a >= 0 and b >= 0])


def relabel_rows(family: SubgraphFamily, vinv: tuple[int, ...], cinv: tuple[int, ...]) -> tuple[frozenset[Edge], ...]:
    """The subgraphs under new-to-old tables: vertex k is old ``vinv[k]``,
    subgraph k is old ``cinv[k]``, and edges touching a vertex left out of
    ``vinv`` are dropped. Edges are ordered (min, max), so equal families
    give equal rows; shared subgraphs stay shared. The base edges are left
    to ``relabel``, which maps them by the same rule: the multiplication's
    memo keys a child on these rows alone. Identity tables return the
    family's own subgraphs."""
    if vinv == tuple(range(family.num_vertices)) and cinv == tuple(range(family.num_colors)):
        return family.subgraphs
    new = old_to_new(vinv, family.num_vertices)
    # a subgraph shared by several colors is mapped once and stays shared
    mapped: dict[int, frozenset[Edge]] = {}
    subs = []
    for c in cinv:
        g = family.subgraphs[c]
        if id(g) not in mapped:
            mapped[id(g)] = _mapped_pairs(new, g)
        subs.append(mapped[id(g)])
    return tuple(subs)


def relabel(family: SubgraphFamily, vinv: tuple[int, ...], cinv: tuple[int, ...]) -> SubgraphFamily:
    """The family on ``len(vinv)`` vertices with ``relabel_rows``'s
    subgraphs and the base edges mapped by the same rule. Identity tables
    return the family itself."""
    if vinv == tuple(range(family.num_vertices)) and cinv == tuple(range(family.num_colors)):
        return family
    base = _mapped_pairs(old_to_new(vinv, family.num_vertices), family.base.edge_set)
    return SubgraphFamily(BaseGraph(len(vinv), base), relabel_rows(family, vinv, cinv), family.kind)


def lift(transversals: Iterable[Transversal], vinv: tuple[int, ...], cinv: tuple[int, ...]) -> list[Transversal]:
    """Transversals of a relabelled family in the old labels: edge (u, v)
    colored c becomes (``vinv[u]``, ``vinv[v]``) colored ``cinv[c]``.
    Identity tables return the inputs themselves. The multiplication does
    not lift level by level: it composes the tables down its recursion
    and builds each output once, in the labels of the call."""
    if vinv == tuple(range(len(vinv))) and cinv == tuple(range(len(cinv))):
        return list(transversals)
    return [Transversal(t.kind, tuple([((vinv[u], vinv[v]), cinv[c]) for (u, v), c in t.items]))
            for t in transversals]


def naturally_index(family: SubgraphFamily, t: Transversal) -> tuple[SubgraphFamily, Transversal, Tables]:
    """Relabel vertices and reorder subgraphs so t becomes canonical.

    Returns them with the new-to-old tables of ``canonical_tables``, which
    ``lift`` maps results back through; a matching keeps its color order.
    A valid t that is already canonical returns the family and t
    themselves, with identity tables, rebuilding nothing.
    """
    report = validate_transversal(family, t)
    if not report.ok:
        raise InvalidTransversal(f"cannot index invalid transversal: {report.summary()}", report)
    tables = canonical_tables(t)
    fam2 = relabel(family, *tables)
    return fam2, t if fam2 is family else planted(fam2.kind, fam2.num_vertices), tables


def require_naturally_indexed(family: SubgraphFamily, t: Transversal) -> None:
    """Raise unless t is the planted transversal in the canonical labelling."""
    if t.colors() != _canonical_colors(family.kind, family.num_vertices):
        raise NotNaturallyIndexed("operation requires the canonical labelling; run naturally_index first")


def iter_cycle_edges(n: int) -> Iterator[Edge]:
    for i in range(n):
        yield edge(i, (i + 1) % n)
