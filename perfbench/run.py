#!/usr/bin/env python3
"""Host-cost benchmark of the UniviStor simulator.

Builds perfbench/ (an optimised build of ../src plus the uvbench program),
then runs one workload as several one-run processes for --seconds and
prints, as the last line of stdout, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics. With
--trace 1 they are its per_layer metrics: traced and untraced runs
alternate, per-layer values come from the traced runs, and
trace.overhead_pct compares the traced and untraced total_s.

Each value is the interquartile mean of the runs (the mean of the middle
half once the top and bottom quarters are dropped). Single runs of one
workload at one seed spread by +-20% on a shared 4-core KVM host. The
interquartile mean keeps the median's immunity to outlier runs and is
steadier: over nine 40 s measurements of vpic_ckpt on that host it
spread 5.8% (interquartile range over median) where the median spread
9.4%.

Every run's result checks count as operations; a failed check, or a run
whose simulated outputs or heap-allocation count differ from the first
run's at the same seed, counts as failed.

  python3 perfbench/run.py --workload vpic_ckpt --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all      # every metric of every workload
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vpic_ckpt", "workflow_rw", "cluster_mix")
MIN_RUNS = 3          # untraced runs per measurement, at least
MIN_PAIRS = 2         # traced/untraced pairs per traced measurement, at least
CHILD_TIMEOUT_S = 150
BUDGET_S = 160        # stop starting runs past this, whatever --seconds says


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once, then (re)builds uvbench; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "uvbench", "--parallel", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "uvbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_child(exe, workload, seed, traced):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--out", build_dir()]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"uvbench exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(exe, workload, seed, seconds, traced):
    """Runs children until --seconds is used up; returns (untraced, traced) lists."""
    untraced, traced_runs = [], []
    start = time.monotonic()
    while True:
        untraced.append(run_child(exe, workload, seed, False))
        if traced:
            traced_runs.append(run_child(exe, workload, seed, True))
        elapsed = time.monotonic() - start
        count = len(untraced)
        per_round = elapsed / count
        enough = count >= (MIN_PAIRS if traced else MIN_RUNS)
        if enough and (elapsed + per_round > seconds or elapsed + per_round > BUDGET_S):
            return untraced, traced_runs


def verify(runs_by_mode):
    """Counts checks: each run's own, plus same-seed determinism per run."""
    attempted = failed = 0
    first_sim = None
    for runs in runs_by_mode:
        first_allocs = None
        for run in runs:
            for name, ok in run["checks"].items():
                attempted += 1
                if not ok:
                    failed += 1
                    log(f"check failed: {name}")
            allocs = run["metrics"]["heap_allocs"]
            first_allocs = allocs if first_allocs is None else first_allocs
            first_sim = run["sim"] if first_sim is None else first_sim
            attempted += 2
            if run["sim"] != first_sim:
                failed += 1
                log("check failed: simulated outputs differ between runs of one seed")
            if allocs != first_allocs:
                failed += 1
                log(f"check failed: heap_allocs {allocs:.0f} != {first_allocs:.0f} at one seed")
    return attempted, failed


def central(runs, name):
    """Interquartile mean of a metric over runs; None if no run reports it."""
    values = sorted(r["metrics"][name] for r in runs if name in r["metrics"])
    if not values:
        return None
    trim = len(values) // 4
    return statistics.fmean(values[trim:len(values) - trim])


def result(exe, spec, workload, seed, seconds, traced):
    untraced, traced_runs = measure(exe, workload, seed, seconds, traced)
    attempted, failed = verify([untraced, traced_runs])
    metrics = {}
    if not traced:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": central(untraced, m["name"]), "unit": m["unit"]}
    else:
        plain = central(untraced, "total_s")
        with_trace = central(traced_runs, "total_s")
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_pct":
                value = 100.0 * (with_trace - plain) / plain
            elif name == "host.ref_s":
                value = central(untraced + traced_runs, name)
            else:
                # Metrics of a layer the workload does not use read 0.
                value = central(traced_runs, name)
                value = 0.0 if value is None else value
            metrics[name] = {"value": value, "unit": m["unit"]}
    log(f"{workload} seed={seed} trace={int(traced)}: {len(untraced)} untraced"
        f" + {len(traced_runs)} traced runs")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    exe = build()
    if args.workload != "all":
        print(json.dumps(result(exe, spec, args.workload, args.seed, seconds, bool(args.trace))))
        return 0
    ok = True
    for workload in WORKLOADS:
        for traced in (False, True):
            res = result(exe, spec, workload, args.seed, seconds, traced)
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                print(f"{workload:12s} {name:28s} {m['value']:16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
