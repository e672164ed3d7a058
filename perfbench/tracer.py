"""Span and counter recording around faultsched's layer boundaries.

The traced run replaces module attributes of the library with wrappers
that open a span on entry and close it on exit.  Each name is wrapped
where it is looked up: ``max_matching`` is bound separately in
``matching``, ``solver``, ``oracle`` and ``twopool``, so every binding
is wrapped.  Spans stay in memory (name, start, end, parent, case) and
are written out once, when the run ends; self time is a span's duration
minus the durations of its direct children.

A wrap target that no longer exists raises ``LookupError`` at install
time, so a refactor of the library shows up as a failed traced run and
not as a metric that silently reads zero.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace


class Tracer:
    """In-memory span store for one process; not thread-safe."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self.enabled = False
        self.case_id = -1
        self._stack: list[int] = []
        # The f of the innermost solver or oracle entry point, read by the
        # max_matching hooks.
        self.thresholds: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case.append(self.case_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def self_times(self) -> tuple[Counter[str], Counter[str]]:
        """Per-name (span count, total self time)."""
        child = array("d", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write(self, path: Path) -> None:
        """Gzipped text: one JSON header line, then one tab-separated line
        per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "case"],
                                 "spans": len(self.start)}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.case[i]}\n")


def _wrap(tracer: Tracer, owner: object, attr: str, name: str,
          enter=None, after=None) -> None:
    """Replace ``owner.attr`` by a recording wrapper.

    ``enter(args)`` gives the f pushed for the call's duration;
    ``after(args, result)`` updates counters.
    """
    orig = getattr(owner, attr, None)
    if not callable(orig):
        raise LookupError(f"trace target {getattr(owner, '__name__', owner)}.{attr} "
                          "no longer exists")
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return orig(*args, **kwargs)
        if enter is not None:
            tracer.thresholds.append(enter(args))
        i = tracer.open(nid)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(i)
            if enter is not None:
                tracer.thresholds.pop()
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = orig
    setattr(owner, attr, wrapper)


def install(tracer: Tracer, fs: SimpleNamespace) -> None:
    """Wrap every layer boundary of the faultsched modules in ``fs``."""
    c = tracer.counters

    def params_f(args):
        return args[0].params.f

    def inst_f(args):
        return args[0].f

    def matched(args, m):
        """Every matching counts in matched_edges; the useful-edge ratio
        covers those made under a solver or oracle entry point, the
        callers that stop once the matching reaches f."""
        c["matching.matched_edges"] += m.size
        if tracer.thresholds:
            c["matching.edges_under_f"] += m.size
            c["matching.useful_edges"] += min(m.size, tracer.thresholds[-1])

    def oracle_matched(args, m):
        matched(args, m)
        c["oracle.states_checked"] += 1
        if m.size >= tracer.thresholds[-1]:
            c["oracle.states_matching_dead"] += 1

    def cells(args, _):
        c["matrixgame.matrix_cells"] += len(args[0]) * len(args[0][0])

    w = lambda owner, attr, name, **kw: _wrap(tracer, owner, attr, name, **kw)  # noqa: E731
    w(fs.game, "validate_schedule", "game.validate_schedule")
    for mod in (fs.game, fs.online, fs.cli):
        w(mod, "survival_time", "game.survival_time")
    for attr in ("load_schedule", "save_schedule", "load_adversary", "save_adversary",
                 "adversary_to_dict", "load_instance", "save_instance", "instance_to_dict"):
        w(fs.cli, attr, "game.codec")

    for mod in (fs.solver, fs.cli):
        w(mod, "first_killable_time", "solver.first_killable_time", enter=params_f)
        w(mod, "minimal_adversary", "solver.minimal_adversary", enter=params_f)
        w(mod, "membership_in_P", "solver.membership_in_P", enter=inst_f)
        w(mod, "reduce_instance", "solver.reduce_instance", enter=inst_f)
    w(fs.solver, "time_graph", "solver.time_graph")

    w(fs.matching.BipartiteGraph, "__post_init__", "matching.graph_build")
    for mod in (fs.matching, fs.solver, fs.twopool):
        w(mod, "max_matching", "matching.max_matching", after=matched)
    w(fs.oracle, "max_matching", "matching.max_matching", after=oracle_matched)
    for mod in (fs.matching, fs.solver):
        w(mod, "deficiency_witness", "matching.deficiency_witness")

    for mod in (fs.oracle, fs.cli):
        w(mod, "brute_optimum", "oracle.brute_optimum", enter=lambda a: a[0].f)
    w(fs.oracle, "_canonical", "oracle.canonical")
    w(fs.oracle, "brute_adversary_min", "oracle.brute_adversary_min")

    for mod in (fs.twopool, fs.cli):
        w(mod, "two_pool_brute_optimum", "twopool.brute_optimum")
    w(fs.twopool, "_killable", "twopool.killability")

    for mod in (fs.matrixgame, fs.online):
        w(mod, "solve_zero_sum", "matrixgame.solve_zero_sum", after=cells)
    w(fs.online, "_best_response", "online.adversary_br")
    w(fs.online, "_scheduler_best_response", "online.scheduler_br")
    w(fs.online, "_policy_survival", "online.payoff")

    w(fs.cli, "build_parser", "cli.parse")
    w(fs.cli._Parser, "parse_args", "cli.parse")


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the recorded spans and counters."""
    calls, self_s = tracer.self_times()
    c = tracer.counters
    out: dict[str, float] = {}
    for name in ("game.validate_schedule", "game.survival_time", "solver.first_killable_time",
                 "solver.time_graph", "matching.max_matching", "oracle.canonical",
                 "matrixgame.solve_zero_sum", "online.adversary_br", "online.scheduler_br"):
        out[f"{name}.calls"] = calls[name]
    for name in ("game.validate_schedule", "game.survival_time", "game.codec",
                 "solver.first_killable_time", "solver.time_graph", "solver.membership_in_P",
                 "solver.reduce_instance", "matching.graph_build", "matching.max_matching",
                 "matching.deficiency_witness", "oracle.brute_optimum", "oracle.canonical",
                 "oracle.brute_adversary_min", "twopool.brute_optimum",
                 "matrixgame.solve_zero_sum", "online.adversary_br", "online.scheduler_br",
                 "online.payoff"):
        out[f"{name}.self_s"] = self_s[name]
    out["matching.graphs_built"] = calls["matching.graph_build"]
    out["matching.matched_edges"] = c["matching.matched_edges"]
    out["oracle.states_checked"] = c["oracle.states_checked"]
    out["oracle.states_symmetry_pruned"] = calls["oracle.canonical"] - c["oracle.states_checked"]
    out["oracle.states_matching_dead"] = c["oracle.states_matching_dead"]
    out["twopool.killability_checks"] = calls["twopool.killability"]
    out["matrixgame.matrix_cells"] = c["matrixgame.matrix_cells"]
    out["online.payoff_evals"] = calls["online.payoff"]
    out["cli.parse_s"] = self_s["cli.parse"]
    out = {k: v / passes for k, v in out.items()}
    edges = c["matching.edges_under_f"]
    out["matching.useful_edge_ratio"] = c["matching.useful_edges"] / edges if edges else 0.0
    return out
