"""Reference figures: every workload over ten seeds, plus one traced run.

    python3 perfbench/reference.py

Runs ``run.py`` once per workload and seed (41 to 50) with tracing off,
then once per workload with tracing on (seed 41), one run after another,
each for BENCHMARK.json's ``run_seconds``.  Prints, per workload, the
median and the quartile spread (Q3 - Q1) / median of each end-to-end
metric and of the figures in ``UNBOUNDED``, the per-layer metrics of the
traced run, and the tracing overhead: time of one round (checks
excluded), traced minus untraced.  The summary is also written to
``.perfbench/reference.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(41, 51)
# figures that run.py prints with the run's facts, not as metrics
UNBOUNDED = (("predict_rows_per_s", "rows/s"), ("train_p95_s", "s"))


def run(workload, seed, seconds, trace):
    """(result, run facts) of one benchmark run."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    facts = next(json.loads(ln[5:]) for ln in lines if ln.startswith("run: "))
    return json.loads(lines[-1]), facts


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, s, seconds, 0) for s in SEEDS]
        traced, traced_facts = run(workload, SEEDS[0], seconds, 1)
        figures = {name: ([r["metrics"][name]["value"] for r, _ in runs],
                          m["unit"])
                   for name, m in runs[0][0]["metrics"].items()}
        for name, unit in UNBOUNDED:
            if name in runs[0][1]:
                figures[name] = ([f[name] for _, f in runs], unit)
        metrics = {}
        for name, (vals, unit) in figures.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (vals[0],) * 3
            metrics[name] = {"median": statistics.median(vals),
                             "spread": (q3 - q1) / statistics.median(vals),
                             "unit": unit, "values": vals}
        round_s = statistics.median(f["round_s"] for _, f in runs)
        summary[workload] = {
            "correct": traced["correct"]
            and all(r["correct"] for r, _ in runs),
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "metrics": metrics,
            "layers": {k: v["value"] for k, v in traced["metrics"].items()},
            "round_s": round_s,
            "traced_round_s": traced_facts["round_s"],
        }
        s = summary[workload]
        print(f"## {workload}: correct {s['correct']}, "
              f"failed/attempted {s['failed'][0]}/{s['attempted'][0]}..")
        for name, m in metrics.items():
            print(f"  {name:20s} median {m['median']:.4g} {m['unit']}, "
                  f"spread {m['spread']:.3f}")
        for name, v in s["layers"].items():
            print(f"  {name:26s} {v:.4g}")
        print(f"  round {round_s:.2f} s untraced, "
              f"{s['traced_round_s']:.2f} s traced "
              f"(overhead {s['traced_round_s'] - round_s:+.2f} s)", flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
