"""Spans around the calls between the package's modules, recorded from outside.

``Tracer.install`` rebinds, in every module of the package, each function
name that module imported from another module of the package, so that a
call such as ``multiplier.naturally_index(...)`` records a span named
``core.naturally_index``. The CLI's own file and report boundaries
(``load_instance``, ``instance_from_obj``, ``instance_to_obj``,
``transversal_to_obj``) are rebound too, and ``cli.json`` and ``cli.oracle``
are replaced by proxies whose functions record spans. Calls inside one
module are not seen and stay in the caller's self time.

A span is a list ``[name, via, op, parent, start, end, error, count]``:
``via`` is the module whose binding was called, ``parent`` the index of
the enclosing span (-1 at the root) and ``count`` a work count read from
the call's arguments or result (bytes, arcs, resamples, results). Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

from transversals import (
    cli,
    core,
    digraphs,
    exchange,
    generators,
    multiplier,
    oracle,
    sampler,
)

MODULES = (cli, core, digraphs, exchange, multiplier, sampler, oracle, generators)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)

# Helpers called once per edge: a span on each call would cost more than
# the call itself and bury every other number.
SKIP = {"edge", "transversal_kind_for"}

CLI_BOUNDARIES = ("load_instance", "instance_from_obj", "instance_to_obj", "transversal_to_obj")
# Imported inside cli.cmd_second's body, so they are looked up on digraphs
# at call time; nothing inside digraphs calls them.
LATE_BOUND = ((digraphs, "omega_member_ham"), (digraphs, "omega_member_pm"))

NAME, VIA, OP, PARENT, START, END, ERROR, COUNT = range(8)


def _arcs(args, out) -> int:
    rows = out.blue + getattr(out, "yellow", ())
    return sum(len(r) for r in rows)


def _bytes_read(args, out) -> int:
    return os.fstat(args[0].fileno()).st_size


def _bytes_written(args, out) -> int:
    return args[1].tell()


def _cycle_length(args, out) -> int:
    # every pair on the alternating cycle trades its red edge for an arc
    return 2 * len(out.edge_set - args[1].edge_set)


COUNTERS: dict[str, Callable] = {
    "cli.json_load": _bytes_read,
    "cli.json_dump": _bytes_written,
    "digraphs.build_full_ryb": _arcs,
    "digraphs.build_full_rb": _arcs,
    "exchange.lollipop_walk": lambda args, out: len(out.states),
    "exchange.second_pm_transversal": _cycle_length,
    "sampler.sample_set_lll_ham": lambda args, out: out.resamples,
    "sampler.sample_set_dirac": lambda args, out: out.resamples,
    "sampler.sample_set_pm": lambda args, out: out.resamples,
    "oracle.count_ham_transversals": lambda args, out: out,
    "oracle.count_pm_transversals": lambda args, out: out,
    "multiplier.many_ham_transversals": lambda args, out: len(out),
    "multiplier.many_pm_transversals": lambda args, out: len(out),
}


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[1]


class _Proxy:
    """Stands in for a module: overridden names first, the module otherwise."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, via: str):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = [name, via, self.op, stack[-1] if stack else -1, 0.0, 0.0, False, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, out)
            return out

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for mod in MODULES:
            here = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__.startswith("transversals.")
                    and fn.__module__ != mod.__name__
                    and attr not in SKIP
                ):
                    self._rebind(mod, attr, self.wrap(f"{_layer(fn)}.{fn.__name__}", fn, here))
        for attr in CLI_BOUNDARIES:
            self._rebind(cli, attr, self.wrap(f"cli.{attr}", getattr(cli, attr), "cli"))
        for owner, attr in LATE_BOUND:
            fn = getattr(owner, attr)
            self._rebind(owner, attr, self.wrap(f"{_layer(fn)}.{attr}", fn, "cli"))
        self._rebind(cli, "json", _Proxy(json, {
            "load": self.wrap("cli.json_load", json.load, "cli"),
            "dump": self.wrap("cli.json_dump", json.dump, "cli"),
            "dumps": self.wrap("cli.report_dumps", json.dumps, "cli"),
        }))
        self._rebind(cli, "oracle", _Proxy(oracle, {
            attr: self.wrap(f"oracle.{attr}", fn, "cli")
            for attr, fn in vars(oracle).items()
            if isinstance(fn, types.FunctionType) and fn.__module__ == oracle.__name__
            and not attr.startswith("_")
        }))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def op_stats(spans: list[list], first: int) -> tuple[dict, float]:
    """Per-name totals of the spans ``spans[first:]`` (one operation's spans).

    Returns ``({name: {calls, self_s, total_s, errors, count, via}}, sum of
    self times)``; ``via`` counts calls per calling module.
    """
    own = spans[first:]
    self_s = [s[END] - s[START] for s in own]
    for s in own:
        if s[PARENT] >= first:
            self_s[s[PARENT] - first] -= s[END] - s[START]
    table: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                       "errors": 0, "count": 0, "via": defaultdict(int)})
    for s, t in zip(own, self_s):
        row = table[s[NAME]]
        row["calls"] += 1
        row["self_s"] += t
        row["total_s"] += s[END] - s[START]
        row["errors"] += int(s[ERROR])
        row["count"] += s[COUNT]
        row["via"][s[VIA]] += 1
    return dict(table), sum(self_s)
