"""kplsvm benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload train-large --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a source checkout; kplsvm is imported from its
``src/``.  The run repeats whole rounds of the workload until ``--seconds``
have passed, checks every output against computations made apart from
kplsvm, and prints as its last line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Earlier lines give the machine
context and the run's facts.  Results and traces go to ``.perfbench/`` in
the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-large", "search-3pl", "stress-3pl"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, make the inputs, warm up, and exit "
                        "(one set-up sample)")
    return p.parse_args(argv)


def import_kplsvm():
    """Import kplsvm from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "kplsvm", "__init__.py")):
        sys.exit(f"perfbench: no kplsvm sources under {SRC}")
    sys.path.insert(0, SRC)
    import kplsvm
    if os.path.dirname(os.path.dirname(os.path.abspath(kplsvm.__file__))) \
            != SRC:
        sys.exit(f"perfbench: kplsvm was imported from {kplsvm.__file__}")


def setup_seconds(args):
    """Median wall time of fresh processes that only set the run up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only"], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_context():
    """nproc, versions, loaded OpenBLAS copies and their thread counts."""
    import numpy
    import scipy
    from kplsvm import blas, qp, trainer
    from kplsvm.loss import LossSpec

    libs = set()
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.rsplit("/", 1)[-1]}
    inside = []
    solve = qp.solve

    def probe(*a, **kw):
        inside.append(blas.thread_counts())
        return solve(*a, **kw)

    qp.solve = probe
    try:
        trainer.train([[0.0], [1.0], [2.0], [3.0]], [-1.0, -1.0, 1.0, 1.0],
                      trainer.TrainParams(loss=LossSpec((0.0,), (0.0,)),
                                          c0=1.0))
    finally:
        qp.solve = solve
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": sorted(os.path.basename(p) for p in libs),
        "blas_threads_outside_train": blas.thread_counts(),
        "blas_threads_inside_train": inside[0] if inside else None,
    }


def predict_rows_per_s(inputs, samples):
    """Held-out rows over each model's median predict time, summed.

    Printed with the run's facts, not as a metric: on a 2-vCPU shared
    machine its spread over ten seeds reached 0.21-0.24 (see README.md).
    """
    predict = [k for k in samples if k.startswith("predict_s/")]
    if not predict:
        return None
    return len(inputs["yte"]) * len(predict) / sum(
        statistics.median(samples[k]) for k in predict)


def end_to_end(workload, samples, setup_s):
    """The run's end-to-end metrics from its rounds' samples."""
    if workload == "train-large":
        configs = sorted({k.split("/")[1] for k in samples
                          if k.startswith("train_s/")})
        train_s = statistics.fmean(
            statistics.median(samples[f"train_s/{c}"]) for c in configs)
    else:
        train_s = statistics.median(samples["train_s"])
    m = {
        "setup_s": (setup_s, "s"),
        "train_s": (train_s, "s"),
        "round_s": (statistics.median(samples["round_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    args = parse_args(argv)
    import_kplsvm()
    sys.path.insert(0, HERE)
    import workloads

    inputs = workloads.prepare(args.workload, args.seed)
    workloads.warm_up()
    if args.setup_only:
        return 0

    setup_s = setup_seconds(args) if args.trace == 0 else None
    context = machine_context()
    os.makedirs(OUT, exist_ok=True)
    jobs = os.cpu_count() or 1

    import tracing
    tracer = tracing.Tracer()
    recording = tracer.install() if args.trace else contextlib.nullcontext()
    quiet = tracer.paused if args.trace else contextlib.nullcontext
    rounds = []
    t0 = time.perf_counter()
    with recording:
        while not rounds or time.perf_counter() - t0 < args.seconds:
            rnd = workloads.Round(quiet)
            t_round = time.perf_counter()
            if args.workload == "train-large":
                workloads.large_round(rnd, inputs, OUT)
            elif args.workload == "search-3pl":
                workloads.search_round(rnd, inputs, jobs)
            else:
                workloads.stress_round(rnd, inputs)
            rnd.add("round_s", time.perf_counter() - t_round - rnd.check_s)
            rounds.append(rnd)
    wall = time.perf_counter() - t0

    errors = [e for rnd in rounds for e in rnd.errors]
    samples = {}
    for rnd in rounds:
        for key, vals in rnd.samples.items():
            samples.setdefault(key, []).extend(vals)
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, len(rounds))
    else:
        metrics = end_to_end(args.workload, samples, setup_s)
    result = {
        "correct": not errors,
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": metrics,
    }
    facts = {"workload": args.workload, "seed": args.seed,
             "trace": args.trace, "rounds": len(rounds),
             "wall_s": wall, "round_s": statistics.median(samples["round_s"]),
             "jobs": jobs,
             "errors": errors[:20]}
    if args.workload == "train-large":
        facts["predict_rows_per_s"] = predict_rows_per_s(inputs, samples)
    else:
        facts["train_p95_s"] = statistics.quantiles(samples["train_s"],
                                                    n=20)[-1]
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"context": context, "run": facts, "result": result,
                   "samples": samples}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracing.dump(tracer.spans), fh)
    print("context: " + json.dumps(context))
    print("run: " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
