import math
import random

import numpy as np
import pytest

from transversals import (
    BaseGraph,
    KIND_HAM,
    NotMaximalRedIndependent,
    NotRedIndependent,
    ResampleBudgetExceeded,
    SubgraphFamily,
    Transversal,
    arc_rows,
    edge,
    planted,
    support,
    support_depth,
)
from transversals.core import require_naturally_indexed
from transversals.sampler import ResampleRecord, default_inclusion_probability


def relabelled(family, t, vperm, cperm):
    """The family and its transversal t with vertex v moved to vperm[v]
    and color c to cperm[c]."""
    def move(e):
        return edge(vperm[e[0]], vperm[e[1]])

    subs = [frozenset()] * family.num_colors
    for c, g in enumerate(family.subgraphs):
        subs[cperm[c]] = frozenset(map(move, g))
    base = BaseGraph(family.num_vertices, [move(e) for e in family.base.edges()])
    moved = Transversal.from_map(family.kind, {move(e): cperm[c] for e, c in t.items})
    return SubgraphFamily(base, subs, family.kind), moved


def cycle_graph(n):
    """The n-cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return BaseGraph(n, [edge(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return BaseGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empirical_lower_tail(n, p, delta, trials, seed):
    """Monte-Carlo frequency of Bin(n,p) < (1-delta)np."""
    rng = np.random.default_rng(seed)
    draws = rng.binomial(n, p, size=trials)
    return float(np.mean(draws < (1.0 - delta) * n * p))


def permanent_by_ryser(matrix):
    """Permanent of a square matrix by Ryser's formula, walked in Gray-code order.

    per(A) = sum over nonempty column sets S of (-1)^(k-|S|) times the
    product over rows of that row's sum over S. Successive sets of a
    Gray code differ in one column, so each of the 2^k - 1 steps adds or
    subtracts that column's nonzero entries from k running row sums, then
    forms the k-term product only when no row sum is zero. Arithmetic is
    in exact Python integers, never floats. The step count doubles with
    each row, so k up to about 20 (a million steps) is practical.
    ``permanent_by_ryser([]) == 1``; a ragged or non-square matrix raises
    ``ValueError``. The reference ``oracle.permanent`` is tested against.
    """
    k = len(matrix)
    if k == 0:
        return 1
    if any(len(row) != k for row in matrix):
        raise ValueError("permanent needs a square matrix")
    columns = [[(i, row[j]) for i, row in enumerate(matrix) if row[j]] for j in range(k)]
    sums = [0] * k
    zeros = k
    inside = [False] * k
    sign = 1 if k % 2 else -1  # (-1)^(k-|S|) at the first set, |S| = 1
    total = 0
    for step in range(1, 1 << k):
        j = (step & -step).bit_length() - 1  # the Gray code flips the lowest set bit
        inside[j] = add = not inside[j]
        for i, a in columns[j]:
            before = sums[i]
            after = before + a if add else before - a
            sums[i] = after
            zeros += (after == 0) - (before == 0)
        if not zeros:
            total += sign * math.prod(sums)
        sign = -sign
    return total


def identity(family):
    """The identity new-to-old tables of a family, as ``lift`` takes them:
    an exchange in a canonically labelled family validates in its labels."""
    return tuple(range(family.num_vertices)), tuple(range(family.num_colors))


def make_ham_family(n, chords):
    """Cycle family on n vertices; chords maps color -> iterable of edges."""
    cyc = [edge(i, (i + 1) % n) for i in range(n)]
    subs = [
        frozenset({cyc[i]} | {edge(*e) for e in chords.get(i, ())}) for i in range(n)
    ]
    base = BaseGraph(n, sorted(set().union(*subs)))
    return SubgraphFamily(base, subs, KIND_HAM)


def with_edge(fam, color, e):
    """fam with the edge e, taken as given, added to subgraph color."""
    subs = list(fam.subgraphs)
    subs[color] = subs[color] | {e}
    return SubgraphFamily(fam.base, subs, fam.kind)


# edges added to subgraph 2 of an 8-cycle family, none of them in range,
# and the error each gives
BAD_CYCLE_EDGES = {(2, 2): "subgraph 2 has a loop at 2",
                   (2, 9): r"subgraph 2 edge \(2,9\) leaves the vertex range 0\.\.7",
                   (-1, 3): r"subgraph 2 edge \(-1,3\) leaves the vertex range 0\.\.7"}


@pytest.fixture(scope="session")
def figure_family():
    """Hand-checked 6-vertex instance used throughout: S = (0, 3) works."""
    fam = make_ham_family(
        6, {5: [(3, 5)], 0: [(1, 3)], 2: [(0, 2)], 3: [(0, 4)]}
    )
    return fam, planted(fam.kind, fam.num_vertices)


def random_ham_set(rng: random.Random, n: int, want_three: bool):
    """Members with pairwise circular distance >= 3."""
    if want_three and n >= 9:
        while True:
            S = tuple(sorted(rng.sample(range(n), 3)))
            gaps = [(S[(j + 1) % 3] - S[j]) % n for j in range(3)]
            if all(g >= 3 for g in gaps):
                return S
    while True:
        S = tuple(sorted(rng.sample(range(n), 2)))
        if (S[1] - S[0]) % n >= 3 and (S[0] - S[1]) % n >= 3:
            return S


def random_pm_set(rng: random.Random, family, n: int):
    """One endpoint per pair, rejection-sampled so every member can escape."""
    for _ in range(20):
        S = tuple(sorted(i if rng.random() < 0.5 else n + i for i in range(n)))
        if support_depth(support(family, S)) >= 1:
            return S
    return tuple(range(n))


def digraph_support(rows, members):
    """The support read off ``arc_rows``'s rows, errors included: for a
    cycle each member m's tails m-1 (yellow row) and m+1 (blue row), their
    heads in the set; for a matching each member's blue row, less the set.
    ``support`` must give the same from the family with no rows built."""
    cycle = len(rows) == 2
    n = len(rows[0]) if cycle else len(rows[0]) // 2
    ms = sorted(set(members))
    s = frozenset(ms)
    if ms and not (ms[0] >= 0 and ms[-1] < len(rows[0])):
        raise ValueError(f"set {ms} leaves the vertex range 0..{len(rows[0]) - 1}")
    if not cycle:
        if len(ms) != n or len({v % n for v in ms}) != len(ms):
            raise NotMaximalRedIndependent("need exactly one endpoint per pair")
        return {m: tuple(h for h in rows[0][m] if h not in s) for m in ms}
    if not ms:
        raise ValueError("empty set has no support depth")
    if not all(min((b - a) % n, (a - b) % n) > 2 for i, a in enumerate(ms) for b in ms[i + 1:]):
        raise NotRedIndependent(f"set {ms} has a red-adjacent pair")
    heads = {}
    for m in ms:
        for t, row in (((m - 1) % n, rows[0]), ((m + 1) % n, rows[1])):
            heads[t] = tuple(h for h in row[t] if h in s)
    return heads


def enumerate_omega_pm_by_map(family, base, members):
    """``enumerate_omega_pm`` as each leaf once built its matching: the
    items set and cleared in a dict, each leaf normalised and sorted by
    ``Transversal.from_map``, and the list deduplicated before sorting.
    It must list the same transversals, in the same order."""
    require_naturally_indexed(family, base)
    n = family.num_pairs
    ms = sorted(set(members))
    if len(ms) != n:
        raise ValueError("need exactly one endpoint per pair")
    outside = [v for v in range(2 * n) if v not in set(ms)]
    heads = {
        m: [w for w in outside if edge(m, w) in family.subgraphs[m % n]] for m in ms
    }
    found = []
    taken = set()
    psi = {}

    def rec(k):
        if k == len(ms):
            found.append(Transversal.from_map(base.kind, dict(psi)))
            return
        m = ms[k]
        for w in heads[m]:
            if w in taken:
                continue
            taken.add(w)
            psi[edge(m, w)] = m % n
            rec(k + 1)
            del psi[edge(m, w)]
            taken.discard(w)

    rec(0)
    return sorted(set(found), key=lambda t: t.items)


# The samplers as they were written over numpy arrays, before the package
# dropped numpy: each recounts every row at every step. Each takes what its
# sampler takes and returns (members, resamples, records), or raises
# ResampleBudgetExceeded with the records, and the sampler must agree.

def _flat_heads(rows):
    # CSR layout: heads concatenated, offsets of length len(rows)+1
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, row in enumerate(rows):
        offsets[i + 1] = offsets[i] + len(row)
    flat = np.fromiter((h for row in rows for h in row), dtype=np.int64, count=int(offsets[-1]))
    return flat, offsets


def _row_counts(flat, offsets, incl):
    # np.add.reduceat misbehaves on empty rows; callers guarantee none
    return np.add.reduceat(incl[flat].astype(np.int64), offsets[:-1])


def _budget_exceeded(cfg, records):
    return ResampleBudgetExceeded(
        f"no event-free assignment within {cfg.max_resamples} resamples",
        resamples=cfg.max_resamples, records=tuple(records),
    )


def sample_set_lll_ham_by_numpy(family, cfg):
    yellow, blue = arc_rows(family)
    n = len(yellow)
    r = cfg.r if cfg.r is not None else min(min(map(len, yellow)), min(map(len, blue)))
    p = cfg.p if cfg.p is not None else default_inclusion_probability(cfg.m)
    threshold = p * r / 400.0
    yflat, yoff = _flat_heads(yellow)
    bflat, boff = _flat_heads(blue)
    rng = np.random.default_rng(cfg.seed)
    incl = rng.random(n) < p
    records = []
    for step in range(cfg.max_resamples + 1):
        worst = None
        for k in (1, 2):
            both = incl & np.roll(incl, -k)
            for u in np.nonzero(both)[0]:
                v = (int(u) + k) % n
                key = (0, min(int(u), v), max(int(u), v))
                if worst is None or key < worst[0]:
                    worst = (key, "x_event", (key[1], key[2]), (key[1], key[2]))
        ycnt = _row_counts(yflat, yoff, incl)
        bcnt = _row_counts(bflat, boff, incl)
        for v in np.nonzero(ycnt < threshold)[0]:
            key = (1, int(v))
            if worst is None or key < worst[0]:
                worst = (key, "y_yellow", int(v), yellow[int(v)])
        for v in np.nonzero(bcnt < threshold)[0]:
            key = (2, int(v))
            if worst is None or key < worst[0]:
                worst = (key, "y_blue", int(v), blue[int(v)])
        if worst is None:
            return tuple(int(v) for v in np.nonzero(incl)[0]), step, tuple(records)
        if step == cfg.max_resamples:
            break
        _, kind, location, scope = worst
        scope = tuple(sorted(set(scope)))
        incl[list(scope)] = rng.random(len(scope)) < p
        records.append(ResampleRecord(step, kind, location, scope))
    raise _budget_exceeded(cfg, records)


def sample_set_dirac_by_numpy(family, cfg, target):
    """The draws until one keeps a set of depth ``target`` or more."""
    n = family.num_vertices
    rng = np.random.default_rng(cfg.seed)
    records = []
    for step in range(cfg.max_resamples + 1):
        incl = rng.random(n) < cfg.c / 8.0
        near = np.zeros(n, dtype=bool)
        for k in (1, 2):
            near |= np.roll(incl, k) | np.roll(incl, -k)
        keep = incl & ~near
        members = tuple(int(v) for v in np.nonzero(keep)[0])
        observed = support_depth(support(family, members)) if members else -1
        if observed >= target:
            return members, step, tuple(records)
        if step == cfg.max_resamples:
            break
        records.append(ResampleRecord(step, "chernoff_fail", observed, ()))
    raise _budget_exceeded(cfg, records)


def sample_set_pm_by_numpy(family, cfg):
    (blue,) = arc_rows(family)
    n = family.num_pairs
    r = cfg.r if cfg.r is not None else min(map(len, blue))
    threshold = cfg.alpha * r / 2.0
    flat, offsets = _flat_heads(blue)
    deg = np.diff(offsets)
    scopes = []
    for i in range(n):
        owners = {w % n for w in blue[i]} | {w % n for w in blue[n + i]} | {i}
        scopes.append(tuple(sorted(owners)))
    rng = np.random.default_rng(cfg.seed)
    bits = rng.integers(0, 2, size=n)
    idx = np.arange(n)
    records = []
    for step in range(cfg.max_resamples + 1):
        chosen = idx + n * bits
        in_set = np.zeros(2 * n, dtype=bool)
        in_set[chosen] = True
        escapes = (deg - _row_counts(flat, offsets, in_set))[chosen]
        flagged = np.nonzero(escapes < threshold)[0]
        if flagged.size == 0:
            return tuple(int(v) for v in np.sort(chosen)), step, tuple(records)
        if step == cfg.max_resamples:
            break
        i0 = int(flagged[0])
        scope = scopes[i0]
        bits[list(scope)] = rng.integers(0, 2, size=len(scope))
        records.append(ResampleRecord(step, "b_i", i0, scope))
    raise _budget_exceeded(cfg, records)
