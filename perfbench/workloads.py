"""The benchmark's four workloads.

Each ``make_*`` function turns a seed into a fixed list of cases.  All
inputs are generated here, during set-up; the library only ever sees
the generated values.  A case's ``run`` calls the library through
module attributes looked up at call time, so the traced run's wrappers
see every call, and its ``check`` compares the output with a reference
outside the timed region: ``None`` means correct, a string says what is
wrong.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from .reference import h, online_value


@dataclass
class Case:
    label: dict
    run: Callable[[], object]
    check: Callable[[object], str | None]


class CaseFailed(RuntimeError):
    """The case produced no verdict, such as an unexpected exit code."""


# ---------------------------------------------------------------------------
# adversary-large: the solve-adversary path as library calls.
# ---------------------------------------------------------------------------

# (shape, N, n, f, copies).  Optimal schedules give long scans bound by
# time-graph construction and matching; perturbed and random ones give
# short scans bound by schedule validation.  The time of an optimal or a
# random (40, 10) case hardly depends on the seed (t* is fixed, or 11 to
# 14); random (8, 7) cases at N=800 vary twofold and get one copy.  The
# copies are set so that, for any seed, the ten cases beyond the tail are
# the two largest, the four optimal N=400 ones and most of the six
# optimal N=200 (8, 7) ones, and the tail case is one of the latter; the
# median case lies among the twelve random N=800 (40, 10) schedules.
ADVERSARY_MIX = (
    ("optimal", 800, 40, 10, 1),
    ("random", 3200, 40, 10, 1),
    ("optimal", 400, 40, 10, 4),
    ("optimal", 200, 8, 7, 6),
    ("random", 800, 8, 7, 1),
    ("random", 800, 40, 10, 12),
    ("optimal", 200, 40, 10, 1),
    ("perturbed", 200, 40, 10, 3),
    ("perturbed", 200, 8, 7, 3),
    ("random", 200, 40, 10, 2),
    ("random", 200, 8, 7, 2),
)


def _perturbed(rows: tuple, N: int, rng: random.Random) -> tuple:
    """About N/10 swaps, each replacing one member of a uniformly chosen
    row by a uniformly chosen non-member."""
    out = [list(row) for row in rows]
    for _ in range(N // 10):
        row = out[rng.randrange(len(out))]
        q = rng.randrange(1, N + 1)
        while q in row:
            q = rng.randrange(1, N + 1)
        row[rng.randrange(len(row))] = q
    return tuple(tuple(sorted(row)) for row in out)


def _random_rows(N: int, n: int, length: int, rng: random.Random) -> tuple:
    return tuple(tuple(sorted(rng.sample(range(1, N + 1), n))) for _ in range(length))


def make_adversary_large(seed: int, fs: SimpleNamespace, work: Path, traced: bool) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for shape, N, n, f, copies in ADVERSARY_MIX:
        params = fs.game.GameParams(N=N, n=n, f=f)
        for _ in range(copies):
            if shape == "random":
                rows = _random_rows(N, n, N, rng)
            else:
                rows = fs.game.trivial_schedule(params).sets
                if shape == "perturbed":
                    rows = _perturbed(rows, N, rng)
            s = fs.game.Schedule(params=params, sets=rows)
            cases.append(Case({"shape": shape, "N": N, "n": n, "f": f},
                              _adversary_run(fs, s), _adversary_check(fs, s, shape)))
    rng.shuffle(cases)
    return cases


def _adversary_run(fs, s):
    def run():
        t_star = fs.solver.first_killable_time(s)
        adv = fs.solver.minimal_adversary(s)
        return t_star, adv, fs.solver.minimal_survival_time(s)
    return run


def _adversary_check(fs, s, shape):
    p = s.params

    def check(out):
        t_star, adv, T = out
        if fs.game.survival_time(s, adv) != T:
            return f"adversary replays to {fs.game.survival_time(s, adv)}, not T={T}"
        opt = h(p.n, p.f, p.N)
        if T > opt or (shape == "optimal" and T != opt):
            return f"T={T} against optimum {opt} on a {shape} schedule"
        if t_star != (T + 1 if T < len(s) else 0):
            return f"t*={t_star} inconsistent with T={T}"
        return None
    return check


# ---------------------------------------------------------------------------
# theorem-grid: tens of thousands of tiny time graphs per pass.
# ---------------------------------------------------------------------------

GRID_MAX_N = 7
# Each cell whose brute force takes 4 s on its own; it is listed in the
# workload's ``excluded``.
GRID_EXCLUDED = ((7, 5, 4),)
# Two cells that take the same time (about 8 ms) and would sit next to
# each other at the tail rank, so that the tail case flipped between
# them from run to run; they are one case.
GRID_TIED = ((7, 5, 2), (6, 5, 3))
# (N, n, f, length) of the small schedules checked by brute force.  One
# case is a batch of four schedules of each shape, so its cost does not
# hang on a single random schedule.
SMALL_SHAPES = ((7, 3, 1, 7), (7, 3, 2, 7), (7, 4, 1, 7), (7, 4, 2, 7), (7, 4, 3, 7),
                (6, 3, 2, 6)) * 4
SMALL_BATCHES = 7
TWO_POOL_PROBES = ((4, 4, 4, 1, 1), (4, 3, 4, 1, 1), (3, 3, 4, 1, 1), (5, 3, 4, 1, 1),
                   (4, 4, 3, 1, 1))


def _light(N: int, n: int, f: int) -> bool:
    """Cells whose brute force takes about a millisecond or less: one
    death per step, a single set, two deaths per step with n = N - 1, or
    N <= 4."""
    return f == 1 or n == N or (n == N - 1 and f == 2) or N <= 4


def make_theorem_grid(seed: int, fs: SimpleNamespace, work: Path, traced: bool) -> list[Case]:
    """Every cell that is not light is a case of its own, but for the two
    in ``GRID_TIED``; the light cells are pooled, one batch for N <= 5 and
    one each for N = 6 and 7, so no case takes under a millisecond.  The
    five two-pool probes are one case."""
    rng = random.Random(seed)
    batches: dict[tuple, list] = {}
    for N in range(2, GRID_MAX_N + 1):
        for n in range(2, N + 1):
            for f in range(1, n):
                if (N, n, f) not in GRID_EXCLUDED:
                    key = (("light", max(N, 5)) if _light(N, n, f)
                           else ("tied",) if (N, n, f) in GRID_TIED else ("cell", N, n, f))
                    batches.setdefault(key, []).append(fs.game.GameParams(N=N, n=n, f=f))
    cases = [Case({"shape": "grid-cells", "cells": [(p.N, p.n, p.f) for p in cells]},
                  lambda cells=cells: [fs.oracle.brute_optimum(p) for p in cells],
                  lambda out, cells=cells: _grid_check(cells, out))
             for cells in batches.values()]
    for _ in range(SMALL_BATCHES):
        batch = tuple(fs.game.Schedule(params=fs.game.GameParams(N=N, n=n, f=f),
                                       sets=_random_rows(N, n, length, rng))
                      for N, n, f, length in SMALL_SHAPES)
        cases.append(Case(
            {"shape": "small-schedules", "schedules": len(batch)},
            lambda batch=batch: [(fs.oracle.brute_adversary_min(s),
                                  fs.solver.minimal_survival_time(s)) for s in batch],
            lambda out: next((f"brute adversary {a} != minimal_survival_time {b}"
                              for a, b in out if a != b), None),
        ))
    probes = [fs.twopool.TwoPoolParams(*probe) for probe in TWO_POOL_PROBES]
    cases.append(Case(
        {"shape": "two-pool", "probes": TWO_POOL_PROBES},
        lambda: [fs.twopool.two_pool_brute_optimum(tp) for tp in probes],
        lambda out: next((f"two-pool optimum {v} below the split bound for {tp}"
                          for v, tp in zip(out, probes)
                          if v < fs.twopool.two_pool_lower_bound(tp)), None),
    ))
    rng.shuffle(cases)
    return cases


def _grid_check(cells, out) -> str | None:
    for p, got in zip(cells, out, strict=True):
        if got != h(p.n, p.f, p.N):
            return f"brute optimum {got} != h = {h(p.n, p.f, p.N)} at {(p.N, p.n, p.f)}"
    return None


# ---------------------------------------------------------------------------
# online-game: the only workload that reaches matrixgame and the best
# responses.
# ---------------------------------------------------------------------------

KNOWN_VALUES = {(3, 2, 1): Fraction(3, 2), (4, 3, 1): Fraction(4, 3),
                (4, 2, 1): Fraction(9, 4), (5, 4, 1): Fraction(5, 4)}
GUARDED = tuple(KNOWN_VALUES)
# Randomized instances that fit in one run; the rest of the guarded set
# is listed in the workload's ``excluded``.
ONLINE_RANDOMIZED = ((3, 2, 1), (4, 3, 1))
SINGLE_SET = tuple((N, N, f) for N in range(2, 6) for f in range(1, N))
# Calls per case, so that no case is a sub-millisecond call: a
# deterministic value takes about 15 us, a randomized single-set one 0.2
# to 5 ms.
DETERMINISTIC_REPEATS = 200
SINGLE_SET_REPEATS = 5


def make_online_game(seed: int, fs: SimpleNamespace, work: Path, traced: bool) -> list[Case]:
    """One case is one instance in one mode, solved ``repeats`` times."""
    plan = ([("randomized", inst, 1) for inst in ONLINE_RANDOMIZED]
            + [("randomized", inst, SINGLE_SET_REPEATS) for inst in SINGLE_SET]
            + [("deterministic", inst, DETERMINISTIC_REPEATS) for inst in GUARDED + SINGLE_SET])
    cases = []
    for mode, (N, n, f), repeats in plan:
        params = fs.game.GameParams(N=N, n=n, f=f)
        cases.append(Case(
            {"shape": mode, "N": N, "n": n, "f": f, "repeats": repeats},
            lambda params=params, mode=mode, r=repeats:
                [fs.online.online_game_value(params, mode) for _ in range(r)],
            _online_check(N, n, f, mode),
        ))
    random.Random(seed).shuffle(cases)
    return cases


def _online_check(N, n, f, mode):
    def check(out):
        gv = out[0]
        if any(other != gv for other in out):
            return "repeated solves disagree"
        expected = KNOWN_VALUES.get((N, n, f)) if mode == "randomized" else None
        if expected is None:
            expected = Fraction(h(n, f, N))
        if gv.value != expected:
            return f"value {gv.value} != {expected}"
        support = [(s.sets, p) for s, p in gv.strategy_support]
        if any(p <= 0 for _, p in support) or sum(p for _, p in support) != 1:
            return "support is not a probability distribution"
        if any(len(sets) != N or any(len(set(row)) != n or not set(row) <= set(range(1, N + 1))
                                     for row in sets) for sets, _ in support):
            return "support holds an invalid schedule"
        guaranteed = online_value(N, f, support)
        if guaranteed != gv.value:
            return f"best on-line response to the support yields {guaranteed}, not {gv.value}"
        return None
    return check


# ---------------------------------------------------------------------------
# cli-roundtrip: one `python -m faultsched` child process per case.
# ---------------------------------------------------------------------------

def _write(path: Path, doc) -> str:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


def _trivial_rows(N: int, n: int, f: int) -> list[list[int]]:
    """The first h(n, f, N) rows of the batch schedule, built here so the
    instance files do not come from the library."""
    q, p = divmod(N, n)
    rows = [list(range(i * n + 1, (i + 1) * n + 1)) for i in range(q) for _ in range(f)]
    if p:
        fill = list(range((q - 1) * n + 1, (q - 1) * n + 1 + n - p))
        rows += [fill + list(range(N - p + 1, N + 1))] * max(f + p - n, 0)
    return rows


def _relabeled(rows, N: int, rng: random.Random) -> list[list[int]]:
    perm = list(range(1, N + 1))
    rng.shuffle(perm)
    return [sorted(perm[p - 1] for p in row) for row in rows]


def _same(lines: list[str], expected: list[str]) -> bool:
    """Line-by-line equality; JSON lines compare parsed."""
    if len(lines) != len(expected):
        return False
    for got, want in zip(lines, expected):
        if got != want:
            try:
                if json.loads(got) != json.loads(want):
                    return False
            except ValueError:
                return False
    return True


def make_cli_roundtrip(seed: int, fs: SimpleNamespace, work: Path, traced: bool) -> list[Case]:
    """44 invocations over every command, ten of them malformed inputs
    that must exit 1.  The traced run calls ``cli.main`` in-process with
    the same arguments, since wrappers cannot reach a child process."""
    rng = random.Random(seed)
    G, S, V = fs.game, fs.solver, fs.survival
    env = dict(os.environ, PYTHONPATH=str(Path(fs.game.__file__).parents[1]))
    cases: list[Case] = []

    def run(argv: list[str], code: int):
        if traced:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                got = fs.cli.main(argv)
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "faultsched", *argv], cwd=work,
                                  env=env, capture_output=True, text=True, timeout=120)
            got, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if got != code:
            raise CaseFailed(f"exit {got}, expected {code}: {stderr.strip()[-200:]}")
        return stdout

    def add(command: str, argv: list[str], expect: Callable[[], list[str]], code: int = 0,
            extra: Callable[[], str | None] | None = None) -> None:
        if rng.random() < 0.2:
            argv = ["--seed", str(rng.randrange(10**6))] + argv
        memo: list = []

        def check(stdout: str) -> str | None:
            if not memo:
                memo.append(expect())
            if not _same(stdout.splitlines(), memo[0]):
                return f"stdout {stdout[:120]!r} != expected {memo[0][:3]!r}"
            return extra() if extra else None
        label = [arg.replace(str(work), "<work>") for arg in argv]
        cases.append(Case({"shape": command, "argv": label}, lambda: run(argv, code), check))

    def game_args(N, n, f):
        return ["--N", str(N), "--n", str(n), "--f", str(f)]

    def random_nf(max_n):
        n = rng.randint(2, max_n)
        return n, rng.randint(1, n - 1)

    for _ in range(3):
        n, f = random_nf(50)
        N = rng.randint(n, 5000)
        add("opt", ["opt", *game_args(N, n, f)],
            lambda N=N, n=n, f=f: [str(V.optimum_survival_time(G.GameParams(N=N, n=n, f=f)))])
    for _ in range(3):
        n, f = random_nf(50)
        k = rng.randint(0, 5000)
        add("h-eval", ["h-eval", "--n", str(n), "--f", str(f), "--k", str(k)],
            lambda n=n, f=f, k=k: [str(V.h_value(n, f, k))])
    for _ in range(3):
        n, f = random_nf(12)
        max_k = rng.randint(20, 80)
        add("sweep", ["sweep", "--n", str(n), "--f", str(f), "--max-k", str(max_k)],
            lambda n=n, f=f, m=max_k: ["k,h"] + [f"{k},{V.h_value(n, f, k)}" for k in range(m + 1)])
    for i in range(3):
        n, f = random_nf(20)
        N = rng.randint(n, 800)
        out = work / f"trivial-{i}.json"

        def same_file(N=N, n=n, f=f, out=out):
            want = G.schedule_to_dict(G.trivial_schedule(G.GameParams(N=N, n=n, f=f)))
            return None if json.loads(out.read_text()) == want else "written schedule differs"
        add("gen-trivial", ["gen-trivial", *game_args(N, n, f), "--out", str(out)],
            lambda N=N, n=n, f=f: [str(V.h_value(n, f, N))], extra=same_file)
    for i in range(4):
        n, f = random_nf(8)
        N = rng.randint(n, 200)
        rows = _random_rows(N, n, N, rng)
        kills = [rng.choice(row) for row in rows]
        sp = _write(work / f"eval-s{i}.json", {"N": N, "n": n, "f": f, "sets": rows})
        ap = _write(work / f"eval-a{i}.json", {"kills": kills})
        add("eval", ["eval", "--schedule", sp, "--adversary", ap],
            lambda sp=sp, ap=ap: [str(G.survival_time(G.load_schedule(sp), G.load_adversary(ap)))])
    for i, (shape, N, n, f) in enumerate((("optimal", 200, 40, 10), ("perturbed", 800, 40, 10),
                                           ("random", 800, 40, 10), ("perturbed", 200, 8, 7))):
        params = G.GameParams(N=N, n=n, f=f)
        rows = (_random_rows(N, n, N, rng) if shape == "random"
                else G.trivial_schedule(params).sets)
        if shape == "perturbed":
            rows = _perturbed(rows, N, rng)
        sp = _write(work / f"solve-{i}.json", {"N": N, "n": n, "f": f, "sets": rows})

        def solved(sp=sp):
            s = G.load_schedule(sp)
            t_star = S.first_killable_time(s)
            return [f"T={S.minimal_survival_time(s)}", f"t*={t_star if t_star else 'none'}",
                    json.dumps(G.adversary_to_dict(S.minimal_adversary(s)))]
        add("solve-adversary", ["solve-adversary", "--schedule", sp], solved)
    members = []
    for i in range(4):
        n, f = random_nf(8)
        N = rng.randint(2 * n, 60)
        rows = _relabeled(_trivial_rows(N, n, f), N, rng)[: rng.randint(f, h(n, f, N))]
        member = {"n": n, "f": f, "right_ids": list(range(1, N + 1)), "rows": rows}
        members.append(member)
        # One extra use of the first row's set overflows its f uses.
        doc = member if i % 2 else dict(member, rows=rows + [rows[0]])
        ip = _write(work / f"inst-{i}.json", doc)

        def membership(ip=ip):
            report = S.membership_in_P(S.load_instance(ip))
            return (["member"] if report.member
                    else [f"violation at t={report.violating_t}: {report.reason}"])
        add("check-p", ["check-p", "--instance", ip], membership, code=0 if i % 2 else 2)
    for i, member in enumerate(members[:2]):
        ip = _write(work / f"reduce-{i}.json", member)
        add("reduce", ["reduce", "--instance", ip],
            lambda ip=ip: [json.dumps(S.instance_to_dict(S.reduce_instance(S.load_instance(ip))))])

    def grid():
        rows = ["N,n,f,h,brute_T_opt,match"]
        for N in range(2, 5):
            for n in range(2, N + 1):
                for f in range(1, n):
                    b = fs.oracle.brute_optimum(G.GameParams(N=N, n=n, f=f))
                    hv = V.h_value(n, f, N)
                    rows.append(f"{N},{n},{f},{hv},{b},{'true' if b == hv else 'false'}")
        return rows
    add("verify-theorem", ["verify-theorem", "--max-N", "4"], grid)
    for N1, N2, n, g1, g2, brute in ((4, 4, 4, 1, 1, True), (5, 3, 4, 1, 1, True),
                                      (7, 0, 4, 1, 0, False), (1, 1, 4, 1, 1, False)):
        def two_pool(tp=(N1, N2, n, g1, g2), brute=brute):
            p = fs.twopool.TwoPoolParams(*tp)
            bound, split = fs.twopool.two_pool_best_split(p)
            lines = [f"bound={bound}", f"split={split[0]},{split[1]}" if split else "split=none"]
            return lines + ([f"brute_T_opt={fs.twopool.two_pool_brute_optimum(p)}"] if brute else [])
        add("two-pool", ["two-pool", "--N1", str(N1), "--N2", str(N2), "--n", str(n),
                         "--g1", str(g1), "--g2", str(g2)] + (["--brute"] if brute else []),
            two_pool)
    for N, n, f in ((3, 2, 1), (4, 3, 2), (5, 5, 2)):
        def online(N=N, n=n, f=f):
            gv = fs.online.online_game_value(G.GameParams(N=N, n=n, f=f), "deterministic")
            return [f"value={gv.value}", "support:"] + [
                f"p={p} sets={json.dumps([list(r) for r in s.sets], separators=(',', ':'))}"
                for s, p in gv.strategy_support]
        add("online-value", ["online-value", *game_args(N, n, f), "--mode", "deterministic"],
            online)

    # Malformed inputs: each must exit 1 with nothing on stdout.
    good_s = _write(work / "good-s.json", {"N": 4, "n": 2, "f": 1,
                                           "sets": [[1, 2], [3, 4], [3, 4], [3, 4]]})
    good_a = _write(work / "good-a.json", {"kills": [1, 3, 4, 3]})
    bad = [
        ["eval", "--schedule", _write(work / "bad-json.json", "{not json"), "--adversary", good_a],
        ["eval", "--schedule", _write(work / "bad-list.json", "[1, 2, 3]"), "--adversary", good_a],
        ["eval", "--schedule", good_s, "--adversary",
         _write(work / "bad-kill.json", {"kills": [1, 1, 1, 1]})],
        ["solve-adversary", "--schedule",
         _write(work / "bad-nosets.json", {"N": 4, "n": 2, "f": 1})],
        ["solve-adversary", "--schedule",
         _write(work / "bad-size.json", {"N": 4, "n": 2, "f": 1, "sets": [[1, 2], [3]]})],
        ["solve-adversary", "--schedule", str(work / "missing.json")],
        ["check-p", "--instance",
         _write(work / "bad-norows.json", {"n": 2, "f": 1, "right_ids": [1, 2]})],
        ["reduce", "--instance", _write(work / "bad-nonmember.json", {
            "n": 2, "f": 1, "right_ids": [1, 2, 3], "rows": [[1, 2], [1, 2]]})],
        ["opt", "--N", "3", "--n", "5", "--f", "1"],
        ["h-eval", "--n", "4", "--f", "1"],
    ]
    for argv in bad:
        add("malformed", argv, lambda: [], code=1)
    rng.shuffle(cases)
    return cases


@dataclass(frozen=True)
class Workload:
    make: Callable[..., list[Case]]
    # Wall seconds one pass over the case set took on the seed library,
    # on the 2-vCPU machine the benchmark was written on.  It fixes the
    # number of sweeps of a run (see ``run.sweeps``), so that the sample
    # count of a case depends on the case set and ``--seconds`` only.
    nominal_pass_s: float
    # Left out of the timed case set: the instance, the time one case
    # takes on the seed library, and the reason.
    excluded: tuple[tuple[str, str], ...] = ()


WORKLOADS = {
    "adversary-large": Workload(
        make_adversary_large, 4.4,
        (("optimal N=3200 (40, 10)", "about 10 s per case; does not fit a run"),
         ("optimal N=800 (8, 7)", "2.3 s per case; would take half of each pass"),
         ("optimal N=400 (8, 7)", "0.7 s per case; fewer sweeps would fit a run"),
         ("perturbed N=3200", "0.4 to 2 s per case; its time varies by a factor of 4 "
          "across seeds and would swamp the spread of pass_s"),
         ("perturbed N=800", "0.06 to 0.35 s per case; one copy each gave a third of "
          "the seed-to-seed spread of pass_s"))),
    "theorem-grid": Workload(
        make_theorem_grid, 2.1,
        (("grid cell (7, 5, 4)", "4 to 5 s: two thirds of the grid; one sample per "
          "run would set pass_s"),)),
    "online-game": Workload(
        make_online_game, 0.75,
        (("randomized (4,2,1)", "30.4 s: LP-heavy, over 50 oracle rounds"),
         ("randomized (5,4,1)", "21.7 s: bound by the scheduler best response"),
         ("randomized (4,3,2)", "about 50 s, 47 s of it in the simplex"),
         ("randomized (5,4,2), (5,4,3)", "(5,4,2) had not converged after 68 rounds"))),
    "cli-roundtrip": Workload(make_cli_roundtrip, 5.0),
}
