"""Probabilistic set construction and the numeric bound evaluators.

Two samplers are resampling loops in the algorithmic local-lemma style:
draw independent bits, flag bad events, redraw exactly the variables in
the lowest-keyed flagged event's scope, repeat. The third is plain
rejection. Each takes a canonically labelled family and builds the full
digraph it reads, the only digraph a command builds. Each run owns one
generator seeded from the config: ``_rng.Generator``, NumPy's PCG64
stream written out bit for bit, so an (inputs, seed) pair alone fixes the
output and the full resample log, whatever NumPy is or is not installed.
The resampling loops keep each row's in-set head count up to date
through reverse rows, so a redraw costs the bits it flips, not a recount.

All logarithms here are natural. Event thresholds compare with strict
less-than; the post-hoc guarantees round up.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from ._rng import Generator
from .core import SubgraphFamily
from .digraphs import build_full_rb, build_full_ryb, support, support_depth
from .errors import (
    DomainError,
    GuaranteeViolated,
    NotMaximalRedIndependent,
    NotRedIndependent,
    ResampleBudgetExceeded,
)

XI = math.exp(-399.0 / 400.0) / (1.0 / 400.0) ** (1.0 / 400.0)

# the largest k whose k! prints under Python's default 4300-digit limit;
# the CLI reports no factorial bound above it
FACTORIAL_MAX_ARG = 1558


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    max_resamples: int = 10_000
    p: Optional[float] = None
    alpha: float = 0.5
    r: Optional[int] = None
    m: Optional[int] = None
    c: Optional[float] = None


@dataclass(frozen=True)
class ResampleRecord:
    step: int
    kind: str
    location: object
    redrawn: tuple[int, ...]


@dataclass(frozen=True)
class SampleOutcome:
    """The accepted set, its support depth, its resample log, and the floor
    it is certified for.

    members is sorted and red-independent (one endpoint per pair for the
    matching sampler); depth is its support depth (d_star or d_cross).
    depth_floor is the support depth every accepted set reaches. The
    resampling samplers also give event_threshold, the count below which
    a bad event fires; lll-ham gives statement_form, the floor in the
    form r/400 * sqrt(log m/m), when m is known.
    """

    members: tuple[int, ...]
    depth: int
    resamples: int
    records: tuple[ResampleRecord, ...]
    warnings: tuple[str, ...]
    depth_floor: int
    event_threshold: Optional[float] = None
    statement_form: Optional[float] = None


def default_inclusion_probability(m: int) -> float:
    return 0.5 * math.sqrt(math.log(m) / m)


_M_NOT_GIVEN = "max degree m not given, so the hypothesis on m was not checked"


def ham_hypothesis_warnings(m: Optional[int], r: int) -> list[str]:
    if m is None:
        return [_M_NOT_GIVEN]
    out = []
    if m < 262:
        out.append(f"max degree m = {m} is below the analyzed range m >= 262")
    if r < 7.0 * math.sqrt(m * math.log(m)) + 2.0:
        need = 7.0 * math.sqrt(m * math.log(m)) + 2.0
        out.append(f"out-degree floor r = {r} is below 7*sqrt(m log m)+2 = {need:.3f}")
    return out


def pm_lll_rhs(alpha: float, m: int) -> float:
    """Right side of the escape-count hypothesis r >= 4(1+log(2m^2-2m+1))/(1-a)^2."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    if m < 2:
        raise DomainError(f"max degree must be >= 2, got {m}")
    if m > sys.float_info.max:
        raise DomainError("max degree m is too large for a float")
    return 4.0 * (1.0 + math.log(2.0 * m * m - 2.0 * m + 1.0)) / (1.0 - alpha) ** 2


def pm_hypothesis_warnings(alpha: float, m: Optional[int], r: int) -> list[str]:
    if m is None:
        return [_M_NOT_GIVEN]
    rhs = pm_lll_rhs(alpha, m)
    if r < rhs:
        return [f"escape floor r = {r} is below 4(1+log(2m^2-2m+1))/(1-alpha)^2 = {rhs:.3f}"]
    return []


class _RowCounts:
    """How many heads of each row lie in a set, kept up to date as single
    vertices join or leave it: a vertex's reverse row lists the rows that
    hold it, once per occurrence, and those are the counts it moves."""

    __slots__ = ("count", "_rev")

    def __init__(self, rows: tuple[tuple[int, ...], ...], in_set: list[bool]):
        self.count = [sum(map(in_set.__getitem__, row)) for row in rows]
        self._rev: list[list[int]] = [[] for _ in in_set]
        add = [rev.append for rev in self._rev]
        for t, row in enumerate(rows):
            for h in row:
                add[h](t)

    def move(self, v: int, d: int) -> list[int]:
        """Add d to the count of every row holding v, and return those rows."""
        count = self.count
        rows = self._rev[v]
        for t in rows:
            count[t] += d
        return rows


def _mark(flagged: set, key, on: bool) -> None:
    if on:
        flagged.add(key)
    else:
        flagged.discard(key)


def _sampled_depth(family: SubgraphFamily, members: tuple[int, ...], floor: int = 0) -> int:
    """The support depth of a sampled set, read from family as every other
    depth is, and its post-hoc guarantee: red-independent, depth >= floor."""
    try:
        d = support_depth(support(family, members))
    except (NotRedIndependent, NotMaximalRedIndependent):
        raise GuaranteeViolated("sampled set is not red-independent") from None
    if d < floor:
        raise GuaranteeViolated(f"sampled set has depth {d}, below the floor {floor}")
    return d


def sample_set_lll_ham(family: SubgraphFamily, cfg: SamplerConfig) -> SampleOutcome:
    """Red-independent set with all boundary support counts >= p*r/400.

    Inclusion bits are p-biased per vertex. Bad events: a red pair fully
    included (x_event), or any vertex whose yellow or blue out-neighborhood
    meets the set fewer than p*r/400 times (y_yellow / y_blue). The flagged
    event with the smallest canonical key is resampled until none remain.
    """
    H = build_full_ryb(family)
    n = H.n
    ydeg = [len(H.yellow[v]) for v in range(n)]
    bdeg = [len(H.blue[v]) for v in range(n)]
    r = cfg.r if cfg.r is not None else min(min(ydeg), min(bdeg))
    if r < 1:
        raise DomainError(f"out-degree floor r = {r}; need r >= 1")
    if min(ydeg) < r or min(bdeg) < r:
        raise DomainError(
            f"some out-degree ({min(min(ydeg), min(bdeg))}) is below r = {r}"
        )
    if cfg.m is not None and cfg.m < 2:
        raise DomainError(f"max degree must be >= 2, got {cfg.m}")
    if cfg.m is not None and cfg.m > sys.float_info.max:
        raise DomainError("max degree m is too large for a float")
    if cfg.p is not None:
        p = cfg.p
    elif cfg.m is not None:
        p = default_inclusion_probability(cfg.m)
    else:
        raise DomainError("need cfg.p or cfg.m to fix the inclusion probability")
    if not 0.0 < p < 1.0:
        raise DomainError(f"inclusion probability {p} outside (0,1)")
    threshold = p * r / 400.0
    floor = math.ceil(threshold)
    statement_form = None if cfg.m is None else r / 400.0 * math.sqrt(math.log(cfg.m) / cfg.m)
    warnings = tuple(ham_hypothesis_warnings(cfg.m, r))

    rng = Generator(cfg.seed)
    incl = [x < p for x in rng.random(n)]
    # the flagged events, each kept as its bits flip: per color the tails
    # whose count is below the threshold, and the included pairs at cycle
    # distance 1 or 2 as (low, high)
    near = [{(v + k) % n for k in (1, 2, -1, -2)} for v in range(n)]
    colors = []
    for rows in (H.yellow, H.blue):
        counts = _RowCounts(rows, incl)
        colors.append((counts, {v for v in range(n) if counts.count[v] < threshold}))
    (_, y_low), (_, b_low) = colors
    x_pairs = {(u, v) for u in range(n) if incl[u] for v in near[u] if u <= v and incl[v]}
    records: list[ResampleRecord] = []

    for step in range(cfg.max_resamples + 1):
        # the lowest key: x events by pair, then yellow, then blue tails
        if x_pairs:
            kind, location = "x_event", min(x_pairs)
            scope = location
        elif y_low:
            kind, location = "y_yellow", min(y_low)
            scope = H.yellow[location]
        elif b_low:
            kind, location = "y_blue", min(b_low)
            scope = H.blue[location]
        else:
            members = tuple(v for v in range(n) if incl[v])
            depth = _sampled_depth(family, members, floor)
            return SampleOutcome(members, depth, step, tuple(records), warnings, floor, threshold, statement_form)
        if step == cfg.max_resamples:
            break
        scope = tuple(sorted(set(scope)))
        for v, x in zip(scope, rng.random(len(scope))):
            now = x < p
            if now == incl[v]:
                continue
            incl[v] = now
            for counts, low in colors:
                for t in counts.move(v, 1 if now else -1):
                    _mark(low, t, counts.count[t] < threshold)
            for w in near[v]:
                _mark(x_pairs, (v, w) if v <= w else (w, v), now and incl[w])
        records.append(ResampleRecord(step, kind, location, scope))

    raise ResampleBudgetExceeded(
        f"no event-free assignment within {cfg.max_resamples} resamples",
        resamples=cfg.max_resamples,
        records=tuple(records),
    )


def dirac_depth_target(n: int, c: float) -> int:
    """Acceptance floor c^2 n/16 - (15 c^2/8) sqrt(n log n), never below 1."""
    raw = c * c * n / 16.0 - (15.0 * c * c / 8.0) * math.sqrt(n * math.log(n))
    return max(1, math.ceil(raw))


def sample_set_dirac(family: SubgraphFamily, cfg: SamplerConfig) -> SampleOutcome:
    """Two-step rejection: p-biased draw, then delete every red-adjacent pair.

    A draw is accepted when the surviving set is nonempty and its support
    depth reaches dirac_depth_target. Rejected draws are redrawn whole;
    the record's redrawn field is left empty to mean a full redraw.
    """
    H = build_full_ryb(family)
    n = H.n
    if cfg.c is None:
        raise DomainError("dirac sampling needs cfg.c")
    c = cfg.c
    p = c / 8.0
    if not 0.0 < p < 1.0:
        raise DomainError(f"step-1 probability c/8 = {p} outside (0,1)")
    floor = c * n - 2.0
    short = min(
        min(len(H.yellow[v]) for v in range(n)), min(len(H.blue[v]) for v in range(n))
    )
    if short < floor:
        raise DomainError(f"some out-degree ({short}) is below c*n - 2 = {floor}")
    warnings = ()
    if c < 0.5:
        warnings = (f"c = {c} is below the analyzed range c >= 1/2",)
    target = dirac_depth_target(n, c)

    rng = Generator(cfg.seed)
    records: list[ResampleRecord] = []
    for step in range(cfg.max_resamples + 1):
        incl = [x < p for x in rng.random(n)]
        members = tuple(
            v for v in range(n) if incl[v] and not any(incl[(v + k) % n] for k in (1, 2, -1, -2))
        )
        if members:
            observed = _sampled_depth(family, members)
            if observed >= target:
                return SampleOutcome(members, observed, step, tuple(records), warnings, target)
        else:
            observed = -1
        if step == cfg.max_resamples:
            break
        records.append(ResampleRecord(step, "chernoff_fail", observed, ()))

    raise ResampleBudgetExceeded(
        f"no draw reached depth {target} within {cfg.max_resamples} redraws",
        resamples=cfg.max_resamples,
        records=tuple(records),
    )


def sample_set_pm(family: SubgraphFamily, cfg: SamplerConfig) -> SampleOutcome:
    """One endpoint per pair with every member's blue escape count >= alpha*r/2.

    The choice bit of pair i is flagged (b_i) when the chosen endpoint has
    fewer than alpha*r/2 blue arcs leaving the set; resampling redraws pair
    i's bit together with the bits of every pair owning a vertex of
    blue(x_i) or blue(y_i).
    """
    H = build_full_rb(family)
    n = H.n
    alpha = cfg.alpha
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    degs = [len(H.blue[v]) for v in range(2 * n)]
    r = cfg.r if cfg.r is not None else min(degs)
    if r < 1:
        raise DomainError(f"escape floor r = {r}; need r >= 1")
    if min(degs) < r:
        raise DomainError(f"some blue out-degree ({min(degs)}) is below r = {r}")
    threshold = alpha * r / 2.0
    floor = math.ceil(threshold)
    warnings = tuple(pm_hypothesis_warnings(alpha, cfg.m, r))

    scopes: list[tuple[int, ...]] = []
    for i in range(n):
        owners = {w % n for w in H.blue[i]} | {w % n for w in H.blue[n + i]} | {i}
        scopes.append(tuple(sorted(owners)))

    rng = Generator(cfg.seed)
    bits = rng.integers(n)
    in_set = [False] * (2 * n)
    for i, b in enumerate(bits):
        in_set[i + n * b] = True
    counts = _RowCounts(H.blue, in_set)

    def flags(t: int) -> bool:
        # tail t's escapes, its blue heads outside the set, are too few
        return degs[t] - counts.count[t] < threshold

    flagged = {i for i, b in enumerate(bits) if flags(i + n * b)}
    records: list[ResampleRecord] = []

    for step in range(cfg.max_resamples + 1):
        if not flagged:
            members = tuple(sorted(i + n * b for i, b in enumerate(bits)))
            depth = _sampled_depth(family, members, floor)
            return SampleOutcome(members, depth, step, tuple(records), warnings, floor, threshold)
        if step == cfg.max_resamples:
            break
        i0 = min(flagged)
        scope = scopes[i0]
        for i, b in zip(scope, rng.integers(len(scope))):
            if b == bits[i]:
                continue
            bits[i] = b
            # the pair's chosen end leaves the set and its other end joins
            for v, d in ((i + n * (1 - b), -1), (i + n * b, 1)):
                for t in counts.move(v, d):
                    j = t % n
                    if t == j + n * bits[j]:
                        _mark(flagged, j, flags(t))
            _mark(flagged, i, flags(i + n * b))
        records.append(ResampleRecord(step, "b_i", i0, scope))

    raise ResampleBudgetExceeded(
        f"no event-free choice within {cfg.max_resamples} resamples",
        resamples=cfg.max_resamples,
        records=tuple(records),
    )


def chernoff_bounds(mu: float, delta: float) -> tuple[float, float]:
    """Lower-tail bounds (e^-d/(1-d)^(1-d))^mu and exp(-d^2 mu/2)."""
    if mu <= 0:
        raise DomainError(f"mu must be positive, got {mu}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0,1), got {delta}")
    bound1 = math.exp(mu * (-delta - (1.0 - delta) * math.log1p(-delta)))
    bound2 = math.exp(-0.5 * delta * delta * mu)
    return bound1, bound2


@dataclass(frozen=True)
class Inequality:
    lhs: float
    rhs: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class InequalityReport:
    m: int
    p: float
    r: float
    x: float
    y: float
    xi: float
    first: Inequality
    second: Inequality


def lll_condition_ham(m: int) -> InequalityReport:
    """Both sufficient inequalities at max degree m, with margins.

    First: x(1-x)^6 (1-y)^(4m-4) - p^2 > 0. Second: xi^(pr) < y (1-x)^(4m-4)
    (1-y)^(2(m-1)^2), with p = sqrt(log m/m)/2, r = 7 sqrt(m log m)+2,
    x = 1.05 p^2, y = 1/m^2.
    """
    if m < 3:
        raise DomainError(f"need m >= 3, got {m}")
    if 2 * (m - 1) ** 2 > sys.float_info.max:
        raise DomainError("m is too large for float arithmetic: 2(m-1)^2 exceeds the largest float")
    p = default_inclusion_probability(m)
    r = 7.0 * math.sqrt(m * math.log(m)) + 2.0
    x = 1.05 * p * p
    y = 1.0 / (m * m)
    first_lhs = x * (1.0 - x) ** 6 * (1.0 - y) ** (4 * m - 4)
    first_rhs = p * p
    second_lhs = XI ** (p * r)
    second_rhs = y * (1.0 - x) ** (4 * m - 4) * (1.0 - y) ** (2 * (m - 1) ** 2)
    return InequalityReport(
        m=m,
        p=p,
        r=r,
        x=x,
        y=y,
        xi=XI,
        first=Inequality(first_lhs, first_rhs, first_lhs - first_rhs, first_lhs - first_rhs > 0.0),
        second=Inequality(second_lhs, second_rhs, second_rhs - second_lhs, second_lhs < second_rhs),
    )


@dataclass(frozen=True)
class ScanReport:
    lo: int
    hi: int
    first_min_m: Optional[int]
    second_min_m: Optional[int]
    first_transitions: tuple[int, ...]
    second_transitions: tuple[int, ...]

    @property
    def second_single_crossing(self) -> bool:
        return len(self.second_transitions) <= 1


def lll_condition_scan(lo: int = 3, hi: int = 5000) -> ScanReport:
    """Minimal passing m and every sign change for both inequalities.

    Crossing counts are reported, not asserted; the second inequality is
    known to flip more than once at the low end.
    """
    if lo < 3 or hi < lo:
        raise DomainError("need 3 <= lo <= hi")
    first_min = second_min = None
    ftrans: list[int] = []
    strans: list[int] = []
    prev = None
    for m in range(lo, hi + 1):
        rep = lll_condition_ham(m)
        if rep.first.holds and first_min is None:
            first_min = m
        if rep.second.holds and second_min is None:
            second_min = m
        if prev is not None:
            if rep.first.holds != prev[0]:
                ftrans.append(m)
            if rep.second.holds != prev[1]:
                strans.append(m)
        prev = (rep.first.holds, rep.second.holds)
    return ScanReport(lo, hi, first_min, second_min, tuple(ftrans), tuple(strans))


def pm_degree_threshold(alpha: float, m: int) -> float:
    """Minimum subgraph degree 4(1+log(2m^2-2m+1))/(1-alpha)^2 + 1."""
    return pm_lll_rhs(alpha, m) + 1.0


def pm_bounded_degree_floor(m: int) -> float:
    """The 10 log(m) + 6 minimum-degree floor of the fixed-constant count."""
    if m < 2:
        raise DomainError(f"max degree must be >= 2, got {m}")
    return 10.0 * math.log(m) + 6.0


BOUND_IDS = (
    "ham-bounded-degree",
    "ham-dirac",
    "pm-bounded-degree",
    "pm-dirac",
    "ham-min-degree",
    "pm-min-degree",
)


def factorial_bounds(bound_id: str, *, max_arg: Optional[int] = None, **params) -> int:
    """Guaranteed-count evaluators, one per headline bound.

    ham-bounded-degree(m):        ceil(log(m)/60)!            for m >= 262
    ham-dirac(n, c, epsilon):     ceil(c^2 n/(16+eps))!        for c >= 1/2
    pm-bounded-degree(m):         ceil(log(m)/2)!              for m >= 44
    pm-dirac(n, c, epsilon):      floor(c n/(2+eps))!          for c >= 1/2
    ham-min-degree(m, t):         floor((t-2)/400 sqrt(log m/m)+1)!
    pm-min-degree(m, t, alpha):   floor(alpha(t-1)/2+1)!       for m >= 37

    The factorial's argument is computed first. One that is not finite,
    or that rounds above ``max_arg`` when that is given, is a
    ``DomainError``, raised before ``math.factorial`` runs.
    """
    try:
        x, rounding = _factorial_argument(bound_id, params)
    except OverflowError:
        raise DomainError(f"{bound_id}: a parameter is too large for a float") from None
    if not math.isfinite(x):
        raise DomainError(f"{bound_id}: the factorial's argument {x} is not finite")
    k = rounding(x)
    if max_arg is not None and k > max_arg:
        raise DomainError(f"{bound_id}: the factorial's argument {x:.6g} rounds above {max_arg}")
    return math.factorial(k)


def _factorial_argument(bound_id: str, params: dict):
    """The unrounded argument of ``bound_id``'s factorial and its rounding,
    after the bound's parameter checks."""

    def need(*names):
        missing = [k for k in names if params.get(k) is None]
        extra = [k for k in params if k not in names]
        if missing or extra:
            raise DomainError(
                f"{bound_id} takes exactly {names}; missing {missing}, extra {extra}"
            )

    # each range check is written so that a NaN fails it
    if bound_id == "ham-bounded-degree":
        need("m")
        m = params["m"]
        if m < 262:
            raise DomainError(f"need m >= 262, got {m}")
        return math.log(m) / 60.0, math.ceil
    if bound_id == "ham-dirac":
        need("n", "c", "epsilon")
        n, c, eps = params["n"], params["c"], params["epsilon"]
        if not (n >= 3 and 0.5 <= c <= 1.0 and eps > 0):
            raise DomainError("need n >= 3, 1/2 <= c <= 1, epsilon > 0")
        return c * c * n / (16.0 + eps), math.ceil
    if bound_id == "pm-bounded-degree":
        need("m")
        m = params["m"]
        if m < 44:
            raise DomainError(f"need m >= 44, got {m}")
        return 0.5 * math.log(m), math.ceil
    if bound_id == "pm-dirac":
        need("n", "c", "epsilon")
        n, c, eps = params["n"], params["c"], params["epsilon"]
        if not (n >= 1 and 0.5 <= c <= 1.0 and eps > 0):
            raise DomainError("need n >= 1, 1/2 <= c <= 1, epsilon > 0")
        return c * n / (2.0 + eps), math.floor
    if bound_id == "ham-min-degree":
        need("m", "t")
        m, t = params["m"], params["t"]
        if m < 262:
            raise DomainError(f"need m >= 262, got {m}")
        if not t >= 7.0 * math.sqrt(m * math.log(m)):
            raise DomainError("need t >= 7 sqrt(m log m)")
        return (t - 2.0) / 400.0 * math.sqrt(math.log(m) / m) + 1.0, math.floor
    if bound_id == "pm-min-degree":
        need("m", "t", "alpha")
        m, t, alpha = params["m"], params["t"], params["alpha"]
        if m < 37:
            raise DomainError(f"need m >= 37, got {m}")
        if not t >= pm_degree_threshold(alpha, m):
            raise DomainError("need t >= the pm degree threshold at (alpha, m)")
        return 0.5 * alpha * (t - 1.0) + 1.0, math.floor
    raise DomainError(f"unknown bound id {bound_id!r}; known: {', '.join(BOUND_IDS)}")
