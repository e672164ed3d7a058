"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload adversary-large --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` of the
checkout that holds this file, never from an installed copy.  Set-up
(import plus input generation) is repeated and its median reported.
Then the cases run one at a time in whole sweeps over the workload's
fixed case set; every verdict is checked after its sweep, outside the
timed region.  The number of sweeps is fixed by ``--seconds`` and the
workload's nominal pass time, never by the time a run has left, so
every case gets the same number of samples whatever the speed of the
library; a run lasts about ``--seconds`` on the seed library.

Times are in reference seconds.  On a shared machine the speed of the
processor swings by a third within seconds, and whole runs fall into
slow spells.  So a fixed calibration kernel (``calibrate``, pure Python,
no library code) runs between any two timed cases, and each sample is
divided by the mean of the calibrations just before and just after it,
then scaled by ``REF_CAL_S``, the kernel's time on a quiet machine.  A
case's time is the median of its scaled samples; ``pass_s`` is the sum
over the case set, ``case_s_p50`` and ``case_s_tail`` the median and the
highest percentile with ten cases beyond it.  Set-up is scaled the same
way.  A change to the library moves the case times and not the
calibration, so it shows in full; the raw times are in ``details``.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs half the sweeps untraced and as many traced, and
prints the per-layer metrics, per pass, with ``trace.overhead_ratio``;
self times are scaled by the median calibration of the traced sweeps.
Spans are written under ``.perfbench/``.
The last line of stdout is one JSON object; the exit code is 1 when any
case failed or got a wrong verdict.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))
from perfbench.tracer import Tracer, install, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

MODULES = ("game", "survival", "matching", "solver", "oracle", "twopool", "matrixgame",
           "online", "cli")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
MIN_SWEEPS = 3
# Seconds ``calibrate`` takes on the 2-vCPU machine the benchmark was
# written on when nothing else runs there; a constant, so that times of
# different runs and commits compare.
REF_CAL_S = 0.0012
_CAL_RNG = random.Random(0)
_CAL_ROWS = [(_CAL_RNG.random(), i, str(i)) for i in range(3000)]


def calibrate() -> float:
    """Seconds of fixed work of the library's kind: sorting tuples,
    building a dict and a set of small objects."""
    t0 = perf_counter()
    table = {row[2]: row for row in sorted(_CAL_ROWS)}
    sum(len(key) for key in set(table))
    return perf_counter() - t0


def import_faultsched() -> SimpleNamespace:
    """Import the library afresh, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "faultsched" or m.startswith("faultsched.")]:
        del sys.modules[name]
    fs = SimpleNamespace(**{m: importlib.import_module(f"faultsched.{m}") for m in MODULES})
    if not Path(fs.game.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"faultsched imported from {fs.game.__file__}, not from {SRC}")
    return fs


@dataclass
class Passes:
    """Timings and verdict counts of consecutive sweeps over one case set."""

    sweeps: int = 0
    case_times: list[list[float]] = field(default_factory=list)
    # Per case and sweep, the mean of the calibrations around the sample.
    case_cals: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)


def sweeps(seconds: float, nominal_pass_s: float) -> int:
    return max(MIN_SWEEPS, round(seconds / nominal_pass_s))


def run_passes(cases, count: int, tracer=None) -> Passes:
    """``count`` whole sweeps over ``cases``."""
    res = Passes(case_times=[[] for _ in cases], case_cals=[[] for _ in cases])
    case_nid = tracer.name_id("case") if tracer else 0
    # Per case, the last output checked and its verdict: a sweep that
    # repeats an output gets the same verdict without a second check.
    last: list[tuple] = [(None, None)] * len(cases)
    for _ in range(count):
        outs = []
        cal = calibrate()
        for i, case in enumerate(cases):
            gc.collect()  # each case starts from the same collector state
            if tracer:
                tracer.case_id, tracer.enabled = i, True
                span = tracer.open(case_nid)
            t0 = perf_counter()
            try:
                outs.append((case.run(), None))
            except Exception as exc:  # a failed case is counted, the sweep goes on
                outs.append((None, exc))
            res.case_times[i].append(perf_counter() - t0)
            if tracer:
                tracer.close(span)
                tracer.enabled = False
            after = calibrate()
            res.case_cals[i].append((cal + after) / 2)
            cal = after
        res.sweeps += 1
        for i, (case, (out, exc)) in enumerate(zip(cases, outs)):
            res.attempted += 1
            if exc is None:
                if last[i][0] is not None and last[i][0] == out:
                    reason = last[i][1]
                else:
                    try:
                        reason = case.check(out)
                    except Exception as check_exc:
                        reason = f"check raised {check_exc!r}"
                    last[i] = (out, reason)
                if reason is None:
                    continue
                res.wrong += 1
            else:
                reason = repr(exc)
            res.failed += 1
            if len(res.problems) < 10:
                res.problems.append(f"{case.label}: {reason}")
    return res


def scaled(times: list[float], cals: list[float]) -> float:
    """Median of the samples, each scaled to the reference machine."""
    return median(t / c for t, c in zip(times, cals, strict=True)) * REF_CAL_S


def case_seconds(res: Passes) -> list[float]:
    return [scaled(t, c) for t, c in zip(res.case_times, res.case_cals)]


def end_to_end(res: Passes, setup_s: float, children: bool) -> tuple[dict, dict]:
    per_case = sorted(case_seconds(res))
    k = len(per_case)
    if k <= TAIL_BEYOND:
        raise ValueError(f"{k} cases leave no percentile with {TAIL_BEYOND} samples beyond it")
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "pass_s": sum(per_case),
        "case_s_p50": median(per_case),
        "case_s_tail": per_case[k - TAIL_BEYOND - 1],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    details = {
        "sweeps": res.sweeps,
        "tail_percentile": round(100 * (k - TAIL_BEYOND) / k, 2),
        "tail_samples": k,
        "case_s": [float(f"{v:.4g}") for v in case_seconds(res)],
        "raw_fastest_pass_s": sum(min(t) for t in res.case_times),
        "calibration_s_median": median(c for cs in res.case_cals for c in cs),
    }
    return metrics, details


def child_seconds(code: str, repeats: int = 7) -> float:
    """Scaled wall time of ``python -c code`` with the checkout's library."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, cals = [], []
    for _ in range(repeats):
        before = calibrate()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(perf_counter() - t0)
        cals.append((before + calibrate()) / 2)
    return scaled(times, cals)


def traced_run(workload: str, cases, fs: SimpleNamespace, count: int):
    """Half of ``count`` sweeps untraced, then as many traced."""
    half = max(1, count // 2)
    plain = run_passes(cases, half)
    tracer = Tracer()
    install(tracer, fs)
    res = run_passes(cases, half, tracer)
    scale = REF_CAL_S / median(c for cs in res.case_cals for c in cs)
    values = {name: v * scale if name.endswith("_s") else v
              for name, v in layer_metrics(tracer, half).items()}
    values["trace.overhead_ratio"] = sum(case_seconds(res)) / sum(case_seconds(plain))
    values["cli.interpreter_s"] = values["cli.import_s"] = 0.0
    if workload == "cli-roundtrip":
        values["cli.interpreter_s"] = child_seconds("pass")
        values["cli.import_s"] = child_seconds("import faultsched.cli") - values["cli.interpreter_s"]
    details = {"passes": res.sweeps, "untraced_passes": plain.sweeps,
               "spans": len(tracer.start),
               "first_killable_time_calls_per_case":
                   values["solver.first_killable_time.calls"] / len(cases)}
    res.attempted += plain.attempted
    res.failed += plain.failed
    res.wrong += plain.wrong
    res.problems += plain.problems
    tracer.write(ROOT / ".perfbench" / f"spans-{workload}.tsv.gz")
    return res, values, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "faultsched" / "__init__.py").is_file():
        print(f"error: no faultsched sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench"))
    try:
        setups, cals = [], []
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            t0 = perf_counter()
            fs = import_faultsched()
            cases = WORKLOADS[args.workload].make(args.seed, fs, work, bool(args.trace))
            setups.append(perf_counter() - t0)
            cals.append((before + calibrate()) / 2)
        count = sweeps(args.seconds, WORKLOADS[args.workload].nominal_pass_s)
        if args.trace:
            res, values, details = traced_run(args.workload, cases, fs, count)
            reported = spec["per_layer"]
        else:
            res = run_passes(cases, count)
            values, details = end_to_end(res, scaled(setups, cals),
                                         children=args.workload == "cli-roundtrip")
            reported = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details["failed_share"] = res.failed / res.attempted
    details["wrong_share"] = res.wrong / res.attempted
    details["cases"] = [c.label for c in cases]
    metrics = {}
    for m in reported:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"failed_share = {details['failed_share']:.6g} share")
    print(f"wrong_share = {details['wrong_share']:.6g} share")
    for problem in res.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("details: " + json.dumps(details))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
