"""Command line surface: instance files and reproducible run reports.

Subcommands: gen, count, second, sample-set, multiply, bounds. Every
report is a JSON object on stdout whose fields other than wall_time_s
are a pure function of the inputs and the seed. Exit codes: 0 success,
2 input error, 3 budget, result cap or resample cap exhausted, 4 precondition
violated by otherwise well-formed input, 5 internal error (a guarantee
check failed, which signals a bug, not bad input).

Instance files are JSON: kind (``KIND_HAM`` = "hamiltonian" or
``KIND_PM`` = "perfect_matching", the same values the library uses),
num_vertices (the subgraph count, or twice it for a matching), the
subgraphs (the list position is the color), optional base_edges
(defaults to the union of the subgraphs), optional planted {edges,
colors}, optional metadata map. A file with ``"format": 2`` (what
``gen`` writes) lists each distinct subgraph once, as a list of [u, v]
pairs in ``rows``, and gives each color the index of its row in
``subgraphs``; a file without ``format`` is format 1, whose subgraphs
are the lists of pairs themselves. Vertex ids, colors, row indices,
format and num_vertices must be JSON integers; anything else is an input
error, never rounded.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from dataclasses import asdict
from functools import lru_cache
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter, le
from typing import Optional

from . import oracle
from .core import (
    BaseGraph,
    Edge,
    KIND_HAM,
    KIND_PM,
    SubgraphFamily,
    Transversal,
    edge,
    lift,
    naturally_index,
    old_to_new,
    validate_family,
    validate_transversal,
)
from .digraphs import (
    build_full_rb,
    build_full_ryb,
    d_cross,
    d_star,
    omega_member_ham,
    omega_member_pm,
    support,
    support_depth,
)
from .errors import (
    BudgetExceeded,
    DomainError,
    GuaranteeViolated,
    RecolorConflict,
    ResampleBudgetExceeded,
    TransversalError,
    WalkStuck,
)
from .exchange import ham_exchange, pm_exchange
from .generators import (
    gen_dirac_family,
    gen_planted_ham_family,
    gen_planted_pm_family,
    gen_regular_all_equal,
    gen_witness_instance_ham,
)
from .multiplier import (
    enumerate_omega_ham,
    enumerate_omega_pm,
    many_ham_transversals,
    many_pm_transversals,
)
from .sampler import (
    BOUND_IDS,
    FACTORIAL_MAX_ARG,
    SamplerConfig,
    factorial_bounds,
    lll_condition_ham,
    lll_condition_scan,
    pm_degree_threshold,
    sample_set_dirac,
    sample_set_lll_ham,
    sample_set_pm,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

LLL_SCAN_MAX_HI = 1_000_000  # at about 5 us per m, a scan of seconds
GEN_MAX_EDGES = 5_000_000  # edges a gen file lists: about 130 MB of text

_BUDGET_ERRORS = (BudgetExceeded, ResampleBudgetExceeded)
_INTERNAL_ERRORS = (GuaranteeViolated, WalkStuck, RecolorConflict)


class InputError(ValueError):
    pass


def _at_least(value: Optional[int], floor: int, flag: str) -> None:
    if value is not None and value < floor:
        raise InputError(f"{flag} must be at least {floor}, got {value}")


def _gen_fits(edges: int) -> None:
    if edges > GEN_MAX_EDGES:
        raise InputError(f"gen would list up to {edges} edges; the cap is {GEN_MAX_EDGES}")


def transversal_to_obj(t: Transversal) -> dict:
    return {
        "edges": list(map(list, map(itemgetter(0), t.items))),
        "colors": list(map(itemgetter(1), t.items)),
    }


def instance_to_obj(
    family: SubgraphFamily, planted: Optional[Transversal], metadata: Optional[dict]
) -> dict:
    """A format-2 instance: each distinct subgraph is one row, in order of
    first use by color, and ``subgraphs`` holds each color's row index."""
    index: dict[frozenset[Edge], int] = {}
    for g in family.subgraphs:
        index.setdefault(g, len(index))
    obj = {
        "format": 2,
        "kind": family.kind,
        "num_vertices": family.num_vertices,
        "base_edges": [list(e) for e in family.base.edges()],
        "rows": [[list(e) for e in sorted(g)] for g in index],
        "subgraphs": [index[g] for g in family.subgraphs],
    }
    if planted is not None:
        obj["planted"] = transversal_to_obj(planted)
    if metadata:
        obj["metadata"] = metadata
    return obj


@lru_cache(maxsize=None)
def _c_encoder(item_separator: str):
    """json's C encoder as ``json.dumps(..., sort_keys=True)`` sets it up,
    but with the given item separator."""
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii,
        None, ": ", item_separator, True, False, True,
    )


_SCALARS = frozenset({int, float, bool, type(None), str})
_NUMBERS = _SCALARS - {str}
_LISTS = frozenset({list, tuple})


def _json_text(value, indent: int) -> str:
    """Exactly ``json.dumps(value, indent=indent, sort_keys=True)``, from C-encoder pieces.

    ``indent`` forces json's pure-Python encoder, so the text is built here
    instead, as a list of pieces joined once. Python walks the dicts and
    the lists of mixed values; a list of scalars is one C call with the
    indented item separator, and so is a list of non-empty number rows
    (edge lists), whose between-row separator one ``replace`` then moves
    out a level: with no strings in the rows, every bracket and comma there
    is structural. A dict with a key that is not a ``str`` is left to
    ``json.dumps`` and shifted in to its depth: JSON escapes newlines inside
    strings, so each newline it writes starts a line.
    """
    pieces: list[str] = []
    unit = " " * indent

    def enc(v, item_separator: str) -> str:
        return "".join(_c_encoder(item_separator)(v, 0))

    def write(v, depth: int) -> None:
        p0 = "\n" + unit * depth
        p1 = p0 + unit
        if isinstance(v, dict):
            if not v:
                pieces.append("{}")
            elif not {str}.issuperset(map(type, v)):
                pieces.append(json.dumps(v, indent=indent, sort_keys=True).replace("\n", p0))
            else:
                sep = "{" + p1
                for k in sorted(v):
                    pieces.append(sep + encode_basestring_ascii(k) + ": ")
                    write(v[k], depth + 1)
                    sep = "," + p1
                pieces.append(p0 + "}")
            return
        if not isinstance(v, (list, tuple)):
            pieces.append(enc(v, ","))
            return
        if not v:
            pieces.append("[]")
            return
        if _SCALARS.issuperset(map(type, v)):
            pieces.extend(["[" + p1, enc(v, "," + p1)[1:-1], p0 + "]"])
        elif _LISTS.issuperset(map(type, v)) and all(v) and _NUMBERS.issuperset(
            map(type, chain.from_iterable(v))
        ):
            p2 = p1 + unit
            rows = enc(v, "," + p2)[2:-2].replace("]," + p2 + "[", p1 + "]," + p1 + "[" + p2)
            pieces.extend(["[" + p1 + "[" + p2, rows, p1 + "]" + p0 + "]"])
        else:
            sep = "[" + p1
            for x in v:
                pieces.append(sep)
                write(x, depth + 1)
                sep = "," + p1
            pieces.append(p0 + "]")

    write(value, 0)
    return "".join(pieces)


def _json_int(x, what: str) -> int:
    # bool is an int subclass, and int() would round 1.7 down to 1
    if type(x) is not int:
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _json_edge(pair) -> Edge:
    u, v = pair
    if type(u) is not int or type(v) is not int:
        raise InputError(f"vertex ids must be integers, got {pair!r}")
    return edge(u, v)


def _json_subgraphs(rows, colors) -> list[frozenset[Edge]]:
    """Each color's edge set, given each color's index into ``rows``.

    Each row is checked once, and equal rows share one edge set. A row's
    shape and types are checked on their own before it is looked up by
    value: 1, 1.0 and true compare and hash equal, so a lookup alone would
    let [[0, true]] pass as an earlier [[0, 1]]. A checked row becomes a
    set without a per-pair Python call, leaving the per-edge pass to
    ``SubgraphFamily``; only a row holding a reversed pair is ordered
    here, as the union of the rows may become the base graph, whose errors
    name pairs as ``edge()`` orders them. A row that fails the check goes
    through ``_json_edge``, which names the bad pair.
    """
    sets: dict[tuple[int, ...], frozenset[Edge]] = {}
    out = [_json_row(g, sets) for g in rows]
    for i in colors:
        if type(i) is not int or not 0 <= i < len(out):
            raise InputError(f"a row index must be an integer in [0, {len(out)}), got {i!r}")
    return [out[i] for i in colors]


def _json_row(g, sets: dict[tuple[int, ...], frozenset[Edge]]) -> frozenset[Edge]:
    try:
        # with every pair of length 2 the flat id sequence is the row
        flat = tuple(chain.from_iterable(g)) if set(map(len, g)) <= {2} else None
    except TypeError:  # a row or a pair that is not a list
        flat = None
    if flat is None or not set(map(type, flat)) <= {int}:
        return frozenset(map(_json_edge, g))
    s = sets.get(flat)
    if s is None:
        us, vs = flat[::2], flat[1::2]
        s = sets[flat] = frozenset(
            zip(us, vs) if all(map(le, us, vs)) else map(edge, us, vs)
        )
    return s


def instance_from_obj(obj: dict):
    try:
        kind = obj["kind"]
        num_vertices = _json_int(obj["num_vertices"], "num_vertices")
        fmt = _json_int(obj.get("format", 1), "format")
        sub_lists = obj["subgraphs"]
        rows = obj["rows"] if fmt == 2 else sub_lists
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed instance file: {exc}") from exc
    if fmt not in (1, 2):
        raise InputError(f"unknown instance format {fmt}; known: 1, 2")
    if kind not in (KIND_HAM, KIND_PM):
        raise InputError(f"unknown kind {kind!r}")
    if not isinstance(sub_lists, list) or not sub_lists:
        raise InputError("malformed instance file: subgraphs must be a non-empty list")
    if not isinstance(rows, list):
        raise InputError("malformed instance file: rows must be a list")
    # checked before BaseGraph allocates num_vertices adjacency rows
    want = len(sub_lists) if kind == KIND_HAM else 2 * len(sub_lists)
    if num_vertices != want:
        raise InputError(
            f"num_vertices {num_vertices} does not fit {len(sub_lists)} {kind} subgraphs; need {want}"
        )
    try:
        subgraphs = _json_subgraphs(rows, sub_lists if fmt == 2 else range(len(rows)))
        explicit = "base_edges" in obj
        if explicit:
            base_edges = [_json_edge(e) for e in obj["base_edges"]]
        planted_obj = obj.get("planted")
        planted, colors = None, {}
        if planted_obj is not None:
            colors = {
                _json_edge(e): _json_int(c, "planted color")
                for e, c in zip(planted_obj["edges"], planted_obj["colors"])
            }
            planted = Transversal.from_map(kind, colors)
        if not explicit:
            # the default base: every subgraph edge and every planted edge
            base_edges = sorted(set(colors).union(*{id(g): g for g in subgraphs}.values()))
        base = BaseGraph(num_vertices, base_edges)
        family = SubgraphFamily(base, subgraphs, kind)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"malformed instance file: {exc}") from exc
    report = validate_family(family)
    if not report.ok:
        raise InputError(f"invalid family: {report.summary()}")
    if planted is not None:
        report = validate_transversal(family, planted)
        if not report.ok:
            raise InputError(f"invalid planted transversal: {report.summary()}")
    return family, planted, obj.get("metadata", {})


def load_instance(path: str):
    # a file decodes to tens of thousands of small lists in no cycle;
    # collections while they are made would only scan them again
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.loads(fh.read())
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            # RecursionError: nesting too deep for json's decoder
            raise InputError(f"cannot parse {path}: {exc}") from exc
        return instance_from_obj(obj)
    finally:
        if enabled:
            gc.enable()


def parse_set_spec(spec: str, family: SubgraphFamily) -> tuple[int, ...]:
    """Comma-separated vertices; matching instances accept x3/y3 aliases."""
    n = family.num_vertices
    half = family.num_pairs
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if family.kind == KIND_PM and tok[0] in "xy":
                i = int(tok[1:])
                if not 0 <= i < half:
                    raise ValueError
                out.append(i if tok[0] == "x" else half + i)
            else:
                v = int(tok)
                if not 0 <= v < n:
                    raise ValueError
                out.append(v)
        except ValueError:
            raise InputError(f"bad set member {tok!r}") from None
    if not out:
        raise InputError("empty set spec")
    return tuple(sorted(set(out)))


def _prepare(args, kind=None):
    """Load a planted instance, relabel it canonically and build its digraph.

    In order: load; require the planted transversal; parse ``--set``
    unless ``kind`` is given (``sample-set`` takes no set and passes the
    kind its method needs); relabel with ``naturally_index``; check the
    kind; map the set; build H. Returns the file's family, transversal and
    set, their canonical forms, H, the new-to-old vertex and color tables
    that ``lift`` maps results back through, and the depth function with
    its report name.
    """
    family, planted, _ = load_instance(args.infile)
    if planted is None:
        raise InputError("this command needs an instance file with a planted transversal")
    members = parse_set_spec(args.set, family) if kind is None else ()
    fam_c, t_c, tables = naturally_index(family, planted)
    if kind not in (None, fam_c.kind):
        raise InputError(f"method {args.method} needs a {kind} instance")
    new = old_to_new(tables[0], family.num_vertices)
    ms = tuple(sorted(new[v] for v in members))
    if fam_c.kind == KIND_HAM:
        H, depth, metric = build_full_ryb(fam_c), d_star, "d_star"
    else:
        H, depth, metric = build_full_rb(fam_c), d_cross, "d_cross"
    return family, planted, members, fam_c, t_c, ms, H, tables, depth, metric


def cmd_gen(args) -> tuple[dict, list, int]:
    model, n, extra = args.model, args.n, args.extra_degree
    params = {"model": model, "n": n, "seed": args.seed}
    # each bound counts, before anything is allocated, the edges the file
    # lists: the base edges, each distinct row once and the planted edges
    if model == "planted-ham":
        _gen_fits(n * (3 + 2 * extra))
        params["extra_degree"] = extra
        family, planted = gen_planted_ham_family(n, extra, args.seed)
    elif model == "planted-pm":
        _gen_fits(n * (3 + 4 * extra))
        params["extra_degree"] = extra
        family, planted = gen_planted_pm_family(n, extra, args.seed)
    elif model == "dirac":
        if args.c is None:
            raise InputError("dirac model needs --c")
        _gen_fits((n + 1) * n * (n - 1) // 2 + n)
        params["c"] = args.c
        family = gen_dirac_family(n, args.c, args.seed)
        planted = None
        if args.find_planted:
            planted = oracle.exists_ham_transversal(family)
            if planted is None:
                raise DomainError("no transversal found to plant")
            family, planted, _ = naturally_index(family, planted)
    elif model == "regular-all-equal":
        if args.m is None:
            raise InputError("regular-all-equal model needs --m")
        # one shared row, as large as the base
        _gen_fits(n * args.m + n)
        params["m"] = args.m
        family, planted = gen_regular_all_equal(n, args.m, args.seed)
    elif model == "witness":
        if args.set is None or args.d is None:
            raise InputError("witness model needs --set and --d")
        try:
            members = tuple(int(t) for t in args.set.split(",") if t.strip())
        except ValueError:
            raise InputError(f"bad --set {args.set!r}; need comma-separated integers") from None
        _gen_fits(3 * n + 4 * len(members) * args.d)
        params["set"] = list(members)
        params["d"] = args.d
        family, planted = gen_witness_instance_ham(n, members, args.d, args.seed)
    else:
        raise InputError(f"unknown model {model!r}")
    obj = instance_to_obj(family, planted, params)
    with open(args.out, "w") as fh:
        fh.write(_json_text(obj, 1) + "\n")
    results = {
        "path": args.out,
        "num_vertices": family.num_vertices,
        "num_subgraphs": family.num_colors,
        "num_base_edges": family.base.num_edges,
        "max_degree": family.base.max_degree(),
        "planted": planted is not None,
    }
    return results, [], EXIT_OK


def cmd_count(args) -> tuple[dict, list, int]:
    _at_least(args.max_nodes, 1, "--max-nodes")
    _at_least(args.max_results, 1, "--max-results")
    family, _, _ = load_instance(args.infile)
    budget = oracle.SearchBudget(max_nodes=args.max_nodes, max_results=args.max_results)
    counter = (
        oracle.count_ham_transversals
        if family.kind == KIND_HAM
        else oracle.count_pm_transversals
    )
    try:
        count = counter(family, budget)
    except BudgetExceeded as exc:
        results = {
            "status": "inconclusive",
            "partial_count": exc.found,
            "nodes": exc.nodes,
        }
        return results, [f"search budget exhausted: {exc}"], EXIT_BUDGET
    return {"status": "exact", "count": count}, [], EXIT_OK


def cmd_second(args) -> tuple[dict, list, int]:
    family, planted, members, fam_c, t_c, ms, H, tables, _, metric = _prepare(args)
    heads = support(H, ms)
    if fam_c.kind == KIND_HAM:
        t2_c, trace = ham_exchange(fam_c, ms, heads)
        omega_ok = omega_member_ham(t_c, ms, t2_c)
        provenance = {
            "anchor": list(edge(*trace.states[0][:2])),
            "trace_states": len(trace.states),
            "pivot_edges": [list(e) for e in trace.pivots],
        }
    else:
        t2_c, cyc = pm_exchange(fam_c, ms, heads)
        omega_ok = omega_member_pm(t_c, ms, t2_c)
        provenance = {
            "cycle_pairs": list(cyc.pairs),
            "cycle_arcs": [list(a) for a in cyc.arcs],
            "cycle_length": cyc.length(),
        }
    if not omega_ok:
        raise GuaranteeViolated("the second transversal lies outside the exchange neighborhood")
    (t2,) = lift([t2_c], *tables)
    results = {
        "set": list(members),
        "second": transversal_to_obj(t2),
        "valid": validate_transversal(family, t2).ok,
        "distinct": t2 != planted,
        "omega_member": omega_ok,
        "provenance": provenance,
        "metric": metric,
        "value": support_depth(heads),
    }
    return results, [], EXIT_OK


def _write_debug_log(path: Optional[str], records) -> None:
    if path is None:
        return
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")


def cmd_sample_set(args) -> tuple[dict, list, int]:
    _at_least(args.max_resamples, 0, "--max-resamples")
    kind = KIND_PM if args.method == "pm" else KIND_HAM
    family, _, _, _, _, _, H, (vinv, _), _, metric = _prepare(args, kind)
    m = args.m if args.m is not None else family.base.max_degree()
    cfg = SamplerConfig(
        seed=args.seed,
        max_resamples=args.max_resamples,
        p=args.p,
        alpha=args.alpha,
        r=args.r,
        m=m,
        c=args.c,
    )
    run = {"lll-ham": sample_set_lll_ham, "dirac": sample_set_dirac, "pm": sample_set_pm}[args.method]
    try:
        outcome = run(H, cfg)
    except ResampleBudgetExceeded as exc:
        _write_debug_log(args.debug_log, exc.records)
        results = {"status": "budget-exhausted", "resamples": exc.resamples}
        return results, [str(exc)], EXIT_BUDGET
    _write_debug_log(args.debug_log, outcome.records)
    original_members = sorted(vinv[v] for v in outcome.members)
    guarantee = {
        "depth_floor": outcome.depth_floor,
        "event_threshold": outcome.event_threshold,
        "statement_form": outcome.statement_form,
    }
    results = {
        "status": "ok",
        "members": original_members,
        "size": len(outcome.members),
        "metric": metric,
        "depth": outcome.depth,
        # an accepted outcome is certified red-independent
        "red_independent": True,
        "resamples": outcome.resamples,
        "guarantee": {k: v for k, v in guarantee.items() if v is not None},
    }
    return results, list(outcome.warnings), EXIT_OK


def cmd_multiply(args) -> tuple[dict, list, int]:
    _, _, members, fam_c, t_c, ms, H, tables, depth, metric = _prepare(args)
    d = depth(H, ms)
    if fam_c.kind == KIND_HAM:
        out_c = many_ham_transversals(fam_c, ms, H)
        omega = (
            enumerate_omega_ham(fam_c, t_c, ms)
            if fam_c.num_vertices <= 12 and len(ms) <= 4
            else None
        )
    else:
        out_c = many_pm_transversals(fam_c, ms, H)
        omega = enumerate_omega_pm(fam_c, t_c, ms) if fam_c.num_pairs <= 8 else None
    required = math.factorial(d + 1)
    results = {
        "set": list(members),
        "metric": metric,
        "d": d,
        "required": required,
        "count": len(out_c),
        "transversals": [transversal_to_obj(t) for t in lift(out_c, *tables)],
    }
    if omega is not None:
        omega_set = set(omega)
        in_omega = all(t in omega_set for t in out_c)
        results["oracle"] = {
            "omega_size": len(omega),
            "outputs_in_omega": in_omega,
            "omega_at_least_required": len(omega) >= required,
        }
    return results, [], EXIT_OK


def cmd_bounds(args) -> tuple[dict, list, int]:
    bid = args.id
    if bid == "lll-cond":
        if args.m is None:
            raise InputError("lll-cond needs --m")
        return asdict(lll_condition_ham(args.m)), [], EXIT_OK
    if bid == "lll-scan":
        if args.hi > LLL_SCAN_MAX_HI:
            raise InputError(f"lll-scan --hi is capped at {LLL_SCAN_MAX_HI}, got {args.hi}")
        scan = lll_condition_scan(args.lo, args.hi)
        results = asdict(scan)
        notes = []
        if not scan.second_single_crossing:
            notes.append(
                "second inequality crosses more than once; minimal m reported as a note"
            )
        return results, notes, EXIT_OK
    if bid == "pm-degree-threshold":
        if args.m is None or args.alpha is None:
            raise InputError("pm-degree-threshold needs --alpha and --m")
        value = pm_degree_threshold(args.alpha, args.m)
        return {"alpha": args.alpha, "m": args.m, "threshold": value}, [], EXIT_OK
    if bid in BOUND_IDS:
        params = {}
        for name in ("m", "n", "t", "c", "epsilon", "alpha"):
            if getattr(args, name) is not None:
                params[name] = getattr(args, name)
        # above the cap the value would not print
        value = factorial_bounds(bid, max_arg=FACTORIAL_MAX_ARG, **params)
        return {"id": bid, "params": params, "value": value}, [], EXIT_OK
    raise InputError(
        f"unknown bound id {bid!r}; known: lll-cond, lll-scan, pm-degree-threshold, "
        + ", ".join(BOUND_IDS)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transversals",
        description="Colored subgraph-family transversal toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument(
        "--model",
        required=True,
        choices=["planted-ham", "planted-pm", "dirac", "regular-all-equal", "witness"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--extra-degree", type=int, default=0)
    p.add_argument("--c", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--set", type=str)
    p.add_argument("--d", type=int)
    p.add_argument("--find-planted", action="store_true")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("count", help="exact transversal count by exhaustive search")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-nodes", type=int, default=100_000_000)
    p.add_argument("--max-results", type=int)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("second", help="exchange a planted transversal for a second one")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--set", required=True, help='e.g. "0,3" or "x0,x3" for matchings')
    p.set_defaults(handler=cmd_second)

    p = sub.add_parser("sample-set", help="sample a red-independent set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", required=True, choices=["lll-ham", "dirac", "pm"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-resamples", type=int, default=10_000)
    p.add_argument("--r", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--c", type=float)
    p.add_argument("--debug-log", type=str)
    p.set_defaults(handler=cmd_sample_set)

    p = sub.add_parser("multiply", help="emit at least (d+1)! distinct transversals")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(handler=cmd_multiply)

    p = sub.add_parser("bounds", help="evaluate a claimed bound or inequality")
    p.add_argument("--id", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lo", type=int, default=3)
    p.add_argument("--hi", type=int, default=5000)
    p.set_defaults(handler=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        results, warnings, code = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _BUDGET_ERRORS as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TransversalError as exc:
        print(f"precondition failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    report = {
        "command": args.command,
        "parameters": _echo_params(args),
        "seed": getattr(args, "seed", None),
        "results": results,
        "warnings": warnings,
        "wall_time_s": round(time.perf_counter() - start, 6),
    }
    try:
        print(_json_text(report, 2), flush=True)
    except BrokenPipeError:
        # the reader left early; aim stdout at devnull so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _echo_params(args) -> dict:
    skip = {"handler", "command"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


if __name__ == "__main__":
    sys.exit(main())
