"""Run ``perfbench/run.py`` in pairs on two checkouts and summarise them.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 3001-3010 \\
        --out BENCH_label.json [--workloads train_default,predict_long,pipeline_small]
        [--seconds 20] [--trace train_default:901]

Each seed is one pair: the benchmark runs once in each checkout, unchanged
and one run at a time, and which side goes first alternates from seed to
seed. The output file holds every raw result line, per workload and
end-to-end metric each side's median and quartiles, the median and
quartiles of the per-pair ratio change / parent and the change's wins, the
``map_50`` of every ``pipeline_small`` run, the traced per-layer figures of
each side when ``--trace`` is given, each side's ``src/`` digest and line
count, and the machine the runs were made on. The per-pair ratio shows a
steady gain or loss that a machine drifting within a set hides behind the
sides' quartiles. Last, it flags every end-to-end metric whose change median
is worse than the parent's by more than its ``bound`` in the change's
``BENCHMARK.json``, and prints the flagged metrics after everything else.
All metrics compared here are lower-is-better.

Before the timed runs, each side runs the CLI's synth, train, predict and
eval once per ``BITS_SETTINGS`` entry, and the file records the SHA-256 of
the ``model.ckpt``, ``predictions.json`` and ``report.json`` each side wrote
and, per file, whether the two sides' bytes are equal (``bits``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("train_default", "predict_long", "pipeline_small")
SIDES = ("parent", "change")

#: criterion 8's tiny settings (``tests/test_acceptance.py``), where no conv
#: takes the tiled path
TINY_SETTINGS = {
    "synth.train_videos": 4,
    "synth.test_videos": 2,
    "synth.classes": 2,
    "synth.block_names": "a,b",
    "synth.min_video_length": 150,
    "synth.max_video_length": 300,
    "synth.min_instance_length": 30,
    "synth.max_instance_length": 80,
    "net.window_length": 128,
    "net.base_filters": 6,
    "net.anchor_filters": 8,
    "train.epochs": 2,
    "train.batch_size": 4,
    "train.learning_rate": 0.001,
    "train.checkpoint_every": 0,
}
#: the CLI settings whose outputs are compared bit for bit: the tiny ones;
#: the same with 64 base filters over windows of 256, test videos of 17
#: windows and minibatches of 16, so that base.1 tiles in training and in a
#: full prediction stack; the tiny ones on preset C, a base stack other
#: than the default written to and read from the checkpoint; and the tiny
#: ones with the CLI's three score blocks, where the order in which the
#: blocks are summed could change the bytes (with two it cannot)
BITS_SETTINGS = {
    "tiny": TINY_SETTINGS,
    "tiled": {**TINY_SETTINGS, "net.base_filters": 64, "net.window_length": 256,
              "synth.min_video_length": 3200, "synth.max_video_length": 3200,
              "train.batch_size": 16},
    "arch_c": {**TINY_SETTINGS, "net.base_arch": "C"},
    "three_blocks": {**TINY_SETTINGS, "synth.block_names": "rgb,flow,vol"},
}
BITS_FILES = ("model.ckpt", "predictions.json", "report.json")


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout, workload, seed, seconds, trace=0):
    """One benchmark run: its result object, its ``name: value unit`` info
    lines, and its wall time."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    tic = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - tic
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no result:\n"
                         f"{done.stdout}\n{done.stderr}")
    info = {m[1]: float(m[2]) for m in
            (re.match(r"^(\w+): ([-0-9.e+]+) \S+ \(median of \d+\)$", line) for line in lines)
            if m}
    return {"result": json.loads(lines[-1]), "info": info, "wall_s": round(wall, 2)}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs):
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in pairs.values() if set(p) == set(SIDES)]
        metrics = sorted(set.intersection(*(set(p[s]) for p in pairs for s in SIDES)))
        out[workload] = {}
        for name in metrics:
            values = {s: [p[s][name]["value"] for p in pairs] for s in SIDES}
            sides = {s: spread(values[s]) for s in SIDES}
            ratios = [c / p for p, c in zip(values["parent"], values["change"]) if p]
            wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
            losses = sum(c > p for p, c in zip(values["parent"], values["change"]))
            base = sides["parent"]["median"]
            out[workload][name] = {
                **sides, "pairs": len(pairs), "change_wins": wins, "change_losses": losses,
                "pair_ratio": spread(ratios) if ratios else None,
                "median_change_pct": 100.0 * (sides["change"]["median"] - base) / base,
                "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
            }
    return out


def flag_regressions(summary, checkout):
    """Every end-to-end metric of ``summary`` whose change median is worse
    than the parent's by more than its ``bound`` in ``BENCHMARK.json``."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    return [{"workload": workload, "metric": name, "bound_pct": 100.0 * bounds[name],
             "median_change_pct": stats["median_change_pct"]}
            for workload, metrics in sorted(summary.items())
            for name, stats in sorted(metrics.items())
            if name in bounds and stats["median_change_pct"] > 100.0 * bounds[name]]


def map_table(runs, floor=0.5):
    seeds = {}
    for r in runs:
        if r["workload"] == "pipeline_small" and "map_50" in r["info"]:
            seeds.setdefault(r["seed"], {})[r["side"]] = r["info"]["map_50"]
    if not seeds:
        return None
    values = {s: [v[s] for v in seeds.values() if s in v] for s in SIDES}
    return {"per_seed": {str(k): v for k, v in sorted(seeds.items())},
            **{s: {**spread(values[s]), "min": min(values[s])} for s in SIDES if values[s]},
            "floor": floor}


def environment(args):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       None)
    except OSError:
        pass
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except Exception:  # the layout of numpy's build record varies between versions
        blas = None
    try:  # the CPUs this process may run on: a second one is what the worker thread needs
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = None
    return {"cpu": cpu, "logical_cpus": os.cpu_count(), "usable_cpus": usable,
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_threads": "1 (set by perfbench/run.py)", "seconds_per_run": args.seconds}


def src_record(checkout):
    """SHA-256 over the path and bytes of every ``.py`` file under ``src/``,
    so a side can be matched to a commit without naming where it ran, and
    the line count of those files, so a change's growth of ``src/`` shows."""
    root = os.path.join(checkout, "src")
    digest, lines = hashlib.sha256(), 0
    for path in sorted(os.path.relpath(os.path.join(folder, name), root)
                       for folder, _, names in os.walk(root) for name in names
                       if name.endswith(".py")):
        digest.update(path.encode() + b"\0")
        with open(os.path.join(root, path), "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


def bits_record(checkout, workdir):
    """Per ``BITS_SETTINGS`` entry, the SHA-256 of each of ``BITS_FILES``
    from the CLI of ``checkout`` (synth, train, predict, eval), run under
    ``workdir`` with one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    record = {}
    for name, settings in BITS_SETTINGS.items():
        folder = os.path.join(workdir, name)
        os.makedirs(folder)
        config = os.path.join(folder, "settings.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(settings, fh)
        data, model = os.path.join(folder, "data"), os.path.join(folder, "model")
        for argv in (["synth", "--out", data],
                     ["train", "--data", data, "--out", model],
                     ["predict", "--data", data, "--checkpoint",
                      os.path.join(model, "model.ckpt"),
                      "--out", os.path.join(model, "predictions.json")],
                     ["eval", "--predictions", os.path.join(model, "predictions.json"),
                      "--annotations", os.path.join(data, "test.json"),
                      "--out", os.path.join(model, "report.json")]):
            subprocess.run([sys.executable, "-m", "tadkit.cli", *argv, "--config", config],
                           cwd=folder, env=env, capture_output=True, check=True)
        record[name] = {}
        for file in BITS_FILES:
            with open(os.path.join(model, file), "rb") as fh:
                record[name][file] = hashlib.sha256(fh.read()).hexdigest()
    return record


def compare_bits(checkouts):
    """``bits_record`` of every side, plus ``bits_equal`` per settings
    entry and file."""
    with tempfile.TemporaryDirectory() as workdir:
        sides = {side: bits_record(checkouts[side], os.path.join(workdir, side))
                 for side in SIDES}
    return {name: {**{side: sides[side][name] for side in SIDES},
                   "bits_equal": {file: sides["parent"][name][file] == sides["change"][name][file]
                                  for file in BITS_FILES}}
            for name in BITS_SETTINGS}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--seeds", required=True, help="first-last, one pair per seed")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", default=None, help="workload:seed for one traced run per side")
    args = p.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    bits = compare_bits(dirs)  # first: a side whose CLI fails stops the set before any run
    runs = []
    for workload in args.workloads.split(","):
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                run = run_once(dirs[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first": side == (SIDES[i % 2]), **run})
                print(f"{workload} seed {seed} {side}: {json.dumps(run['result']['metrics'])}",
                      flush=True)
    traces = {}
    if args.trace:
        workload, seed = args.trace.split(":")
        traces = {"workload": workload, "seed": int(seed), **{
            side: run_once(dirs[side], workload, int(seed), args.seconds, trace=1)["result"]
            for side in SIDES}}
    summary = summarise(runs)
    flagged = flag_regressions(summary, dirs["change"])
    doc = {**{side: src_record(dirs[side]) for side in SIDES},
           "environment": environment(args), "summary": summary, "flagged": flagged,
           "map_50": map_table(runs), "traces": traces, "bits": bits, "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(runs)} runs -> {args.out}")
    for name, record in bits.items():
        print(f"bits {name}: " + ", ".join(
            f"{file} {'equal' if same else 'DIFFERENT'}"
            for file, same in record["bits_equal"].items()))
    for f in flagged:
        print(f"FLAGGED {f['workload']} {f['metric']}: median {f['median_change_pct']:+.1f} % "
              f"against a bound of {f['bound_pct']:.0f} %")
    if not flagged:
        print("no end-to-end median is worse than its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
