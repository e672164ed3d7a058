"""Run every workload over several seeds and save the results as one set.

    python3 perfbench/record.py --out perfbench/results/NAME.json

Every workload of BENCHMARK.json runs untraced on seeds 1-10 and traced
on seeds 1-2, each run its own ``run.py`` process, one at a time,
seed-major so that drift of the machine spreads over all workloads.
Prints, per workload, every end-to-end metric with its unit, median and
spread (interquartile range over median, over the ten seeds), against
the bound in BENCHMARK.json; exits 1 if a run failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 3)


def spread(values: list[float]) -> float:
    """Interquartile range over median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def metric_values(result_set: dict, workload: str, trace: int) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for run in result_set["workloads"][workload]["runs"]:
        if run["trace"] == trace and run["result"] is not None:
            for name, m in run["result"]["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    details = next((json.loads(line[len("details: "):]) for line in lines
                    if line.startswith("details: ")), None)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if proc.returncode != 0:
        sys.stderr.write(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return {"seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": perf_counter() - t0, "result": result, "details": details}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    result_set = {
        "run_seconds": seconds, "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor()} {platform.system()}",
        "workloads": {w["name"]: {"why": w["why"], "excluded": WORKLOADS[w["name"]].excluded,
                                  "runs": []} for w in spec["workloads"]},
    }
    plan = [(s, 0) for s in SEEDS] + [(s, 1) for s in TRACE_SEEDS]
    ok = True
    for seed, trace in plan:
        for w in names:
            run = run_one(w, seed, seconds, trace)
            ok = ok and run["exit"] == 0
            result_set["workloads"][w]["runs"].append(run)
            print(f"{w} seed={seed} trace={trace} exit={run['exit']} wall={run['wall_s']:.1f}s",
                  file=sys.stderr, flush=True)
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(result_set) + "\n", encoding="utf-8")

    for w in names:
        values = metric_values(result_set, w, 0)
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            vs = values.get(m["name"], [])
            if not vs:
                print(f"  {m['name']:<12} no runs")
                continue
            sp = spread(vs)
            flag = "" if sp <= m["bound"] else "  SPREAD ABOVE BOUND"
            print(f"  {m['name']:<12} {median(vs):12.6g} {m['unit']:<3} spread {sp:6.3f} "
                  f"(bound {m['bound']}, n={len(vs)}){flag}")
        for name in ("failed_share", "wrong_share"):
            runs = [r["details"] for r in result_set["workloads"][w]["runs"] if r["details"]]
            worst = max((d[name] for d in runs), default=float("nan"))
            print(f"  {name:<12} {worst:12.6g} share (largest over runs)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
