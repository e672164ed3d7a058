"""Diff two result sets written by record.py, workload by workload.

    python3 perfbench/compare.py perfbench/results/seed.json new.json

Runs are paired by seed, so both sides of a pair timed the same inputs
and input variation does not count as noise.  Each end-to-end metric is
shown as base median, new median and the median of the per-seed ratios
new / base, with the spread (interquartile range over median) of those
ratios.  A metric is "unresolved" when that spread exceeds its bound in
BENCHMARK.json, unless every ratio reads better; otherwise it is "worse"
when the median ratio is worse than 1 by more than the bound.  Failed
runs are counted next to the metrics.  Per-layer metrics from the traced
runs follow, with the change in each self time.

Exits 1 if any metric is worse, if a workload or metric of the base is
missing from the new set, or if any run of the new set failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.record import metric_values, spread  # noqa: E402


def by_seed(result_set: dict, workload: str, trace: int) -> dict[int, dict]:
    return {run["seed"]: run["result"]["metrics"]
            for run in result_set["workloads"][workload]["runs"]
            if run["trace"] == trace and run["result"] is not None}


def verdict(ratios: list[float], better: str, bound: float) -> str:
    lower = better == "lower"
    all_better = all(r < 1 if lower else r > 1 for r in ratios)
    if spread(ratios) > bound and not all_better:
        return "unresolved"
    change = median(ratios) - 1
    if (change if lower else -change) > bound:
        return "worse"
    return "better" if all_better else "within bound"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = json.loads(args.base.read_text(encoding="utf-8"))
    new = json.loads(args.new.read_text(encoding="utf-8"))
    ok = True
    for w in base["workloads"]:
        print(f"\n{w}")
        if w not in new["workloads"]:
            print("  missing from the new set")
            ok = False
            continue
        runs = new["workloads"][w]["runs"]
        failed = [r["seed"] for r in runs if r["exit"] != 0 or r["result"] is None]
        print(f"  runs {len(runs)}, failed {len(failed)}"
              + (f" (seeds {failed})" if failed else ""))
        ok = ok and not failed
        b0, n0 = by_seed(base, w, 0), by_seed(new, w, 0)
        seeds = sorted(b0.keys() & n0.keys())
        for m in spec["end_to_end"]:
            name = m["name"]
            pairs = [(b0[s][name]["value"], n0[s][name]["value"]) for s in seeds
                     if name in b0[s] and name in n0[s]]
            if not pairs:
                print(f"  {name:<12} missing")
                ok = False
                continue
            ratios = [nv / bv for bv, nv in pairs]
            v = verdict(ratios, m["better"], m["bound"])
            ok = ok and v != "worse"
            print(f"  {name:<12} base {median(b for b, _ in pairs):11.6g} {m['unit']:<3}"
                  f" new {median(n for _, n in pairs):11.6g}  ratio {median(ratios):6.3f}"
                  f"  spread {spread(ratios):.3f} (bound {m['bound']}, {len(pairs)} seeds)  {v}")
        b1, n1 = metric_values(base, w, 1), metric_values(new, w, 1)
        for m in spec["per_layer"]:
            bv, nv = b1.get(m["name"]), n1.get(m["name"])
            if not bv or not nv or (not any(bv) and not any(nv)):
                continue
            bm, nm = median(bv), median(nv)
            ratio = f"{nm / bm:7.3f}" if bm else "      -"
            delta = f"  delta {nm - bm:+.4g} s" if m["unit"] == "s" else ""
            print(f"    {m['name']:<36} base {bm:11.6g} new {nm:11.6g} {m['unit']:<5}"
                  f" ratio {ratio}{delta}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
