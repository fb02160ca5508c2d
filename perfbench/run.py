"""tadkit benchmark: one workload per run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 20 --trace 0

The run sets up the workload several times (``setup_s`` is the median),
runs one untimed round whose outputs are checked against the references
in ``reference.py``, then repeats timed rounds until ``--seconds`` have
passed and reports the median of each per-round figure. ``--trace 1``
wraps tadkit's public functions, reports per-layer figures instead and
writes the spans to ``perfbench/runs/``. The last line of standard output
is the result object; the exit code is 1 when any check fails.
"""

from __future__ import annotations

import os

# Fixed before NumPy loads, so every run uses the same BLAS thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train_default", "predict_long", "pipeline_small"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import tadkit from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tadkit", "__init__.py")):
        sys.exit(f"error: no tadkit sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tadkit

    if os.path.dirname(os.path.abspath(tadkit.__file__)) != os.path.join(SRC, "tadkit"):
        sys.exit(f"error: imported tadkit from {tadkit.__file__}, not from {SRC}")


def self_test():
    import test_reference

    for name in sorted(dir(test_reference)):
        if name.startswith("test_"):
            getattr(test_reference, name)()


def paused_collector(round_fn):
    """Run one round with the cyclic garbage collector paused, after a full
    collection. When the collector runs on its own, the garbage left by
    reference cycles inside the program is freed at points that shift with
    every allocation, so peak memory jumps between runs; paused, a round
    keeps all of it and the peak repeats exactly."""
    gc.collect()
    gc.disable()
    try:
        return round_fn()
    finally:
        gc.enable()


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import numpy as np

    self_test()

    from spans import Tracer, per_layer_metrics
    import workloads

    os.makedirs(RUNS, exist_ok=True)
    workdir = os.path.join(RUNS, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install(holders=[workloads])
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)

        setup_s = []
        for i in range(workload.setup_repeats):
            if tracer:
                tracer.op = f"setup.{i}"
            gc.collect()
            tic = time.perf_counter()
            workload.setup(i)
            setup_s.append(time.perf_counter() - tic)

        if tracer:
            tracer.op = "warmup"
        rounds = [paused_collector(workload.checked_round)]
        start = time.perf_counter()
        k = 0
        while True:
            if tracer:
                tracer.op = f"round.{k}"
            rounds.append(paused_collector(workload.run_round))
            k += 1
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer:
            tracer.op = "check"
        problems = [p for r in rounds for p in r["problems"]] + workload.final_checks()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    timed = [r for r in rounds[1:] if not r["failed"]]
    if tracer:
        metrics = per_layer_metrics(tracer.spans)
        path = os.path.join(RUNS, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(path)
        print(f"trace: {len(tracer.spans)} spans -> {os.path.relpath(path, ROOT)}")
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        if timed:
            metrics["round_s"] = {"value": statistics.median(r["seconds"] for r in timed),
                                  "unit": "s"}
    for name, unit in workload.info_units.items():
        values = [r["info"][name] for r in timed]
        if values:
            print(f"{name}: {statistics.median(values):.6g} {unit} (median of {len(values)})")

    print("round seconds: " + " ".join(f"{r['seconds']:.4f}" for r in rounds if "seconds" in r)
          + " (the first is the untimed checked round)")
    print(f"workload {args.workload}: seed {args.seed}, {len(rounds) - 1} timed rounds, "
          f"BLAS threads {BLAS_THREADS}, numpy {np.__version__}")
    print(f"{workload.unit}: attempted {attempted}, failed {failed}")
    for r in rounds:
        if "error" in r:
            print(f"failed operation: {r['error']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
