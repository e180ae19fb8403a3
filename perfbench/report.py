"""Summarise benchmark results saved under ``.perfbench_out/results``.

    python3 perfbench/report.py [--baseline FILE]

For every workload and metric: the number of runs, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(Q3 - Q1) / median``.  End-to-end spreads are compared with their bound in
``BENCHMARK.json``.  Also prints the derived, ungated ratio of ``decompose_s``
on ``sim1_mrcpd`` to ``sim1_direct``.  ``--baseline`` writes the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": spread}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = defaultdict(list)
    for path in sorted((ROOT / ".perfbench_out" / "results").glob("*.json")):
        run = json.loads(path.read_text())
        m = run["manifest"]
        runs[(m["workload"], m["trace"])].append(run)

    summary = {}
    for (workload, trace), group in sorted(runs.items()):
        seeds = sorted({r["manifest"]["seed"] for r in group})
        correct = sum(r["result"]["correct"] for r in group)
        print(f"== {workload} trace={trace}: {len(group)} runs, seeds "
              f"{seeds}, {correct} correct")
        per_metric = {}
        names = sorted({k for r in group for k in r["metrics"]})
        for name in names:
            values = [r["metrics"][name] for r in group
                      if r["metrics"].get(name) is not None]
            if not values:
                continue
            s = summarise(values)
            s["unit"] = group[0]["units"].get(name, "")
            per_metric[name] = s
            verdict = ""
            if not trace and name in bounds:
                b = bounds[name]
                verdict = (f" bound {b}: " + ("OVER BOUND" if s["spread"] > b
                           else "over a third" if s["spread"] > b / 3
                           else "steady"))
            print(f"  {name:32s} median {s['median']:.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}{verdict}")
        summary[f"{workload}/trace{trace}"] = {
            "seeds": seeds, "runs": len(group), "correct": correct,
            "commits": sorted({r["manifest"]["git_commit"] for r in group}),
            "metrics": per_metric}

    direct = summary.get("sim1_direct/trace0", {}).get("metrics", {})
    mrcpd = summary.get("sim1_mrcpd/trace0", {}).get("metrics", {})
    if "decompose_s" in direct and "decompose_s" in mrcpd:
        ratio = mrcpd["decompose_s"]["median"] / direct["decompose_s"]["median"]
        print(f"derived (ungated): decompose_s sim1_mrcpd / sim1_direct = "
              f"{ratio:.4f} at this benchmark's sweep caps")
        summary["derived_mrcpd_over_direct"] = ratio
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
