#!/usr/bin/env python3
"""Builds and runs the repository benchmark; perf/README.md explains it.

One run of one workload, printing a JSON result as its last line:

    python3 perf/run.py --workload solve-dense --seed 1 --seconds 22 --trace 0

Every workload, each run in its own process:

    python3 perf/run.py [--seed S] [--seeds N] [--sets 2] [--trace 1]
                        [--seconds T] [--out FILE]

runs every workload on seeds S..S+N-1 and prints, per set, each end-to-end
metric's median over the seeds and, with N > 1, its spread (interquartile
range over median). `--sets 2` repeats everything with the workload order
reversed and prints each median's set-to-set change beside the metric's
bound. `--trace 1` adds one traced run per workload on seed S and prints the
per-layer metrics. `--out FILE` keeps every run's metrics and machine facts
as JSON.

The build goes to .bench_build/perf, traces to .bench_build/traces, and each
run's stores to a scratch directory under .bench_build that is removed when
the run ends.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BUILD = ROOT / ".bench_build" / "perf"
BINARY = BUILD / "apsp_perf"
TRACES = ROOT / ".bench_build" / "traces"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
RESULT_LINES = ("attempted", "failed", "correct")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then brings the Release binary up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: the library sources are missing beside perf/; "
                 "run from a full checkout of the repository")
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(PERF), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--parallel",
                    str(os.cpu_count() or 1)], stdout=log, check=True)


def trace_file(workload, seed):
    TRACES.mkdir(parents=True, exist_ok=True)
    return TRACES / f"{workload}-seed{seed}.trace.json"


def run_one(workload, seed, seconds, traced=False):
    """Runs one workload in its own process and parses what it printed."""
    BUILD.parent.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD.parent)
    env = dict(os.environ, TMPDIR=scratch)
    env.pop("GAPSP_THREADS", None)  # the pool takes every core
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        cmd += ["--trace", str(trace_file(workload, seed))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run = {"workload": workload, "seed": seed, "traced": traced,
           "returncode": proc.returncode, "metrics": {}, "facts": {},
           "result": {}}
    for line in proc.stdout.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            run["facts"][key] = value
            continue
        name, value, _unit = line.split()
        if name in RESULT_LINES:
            run["result"][name] = int(value)
        elif name in END_TO_END or name in PER_LAYER:
            run["metrics"][name] = float(value)
        else:
            raise SystemExit(f"run.py: {workload} printed unknown metric "
                             f"{name}")
    return run, proc.stdout


def result_json(run):
    """The one-line result of one run; None when the run did not finish.

    A per-layer metric of a layer the workload does not reach reads 0."""
    wanted = PER_LAYER if run["traced"] else END_TO_END
    if run["traced"] and run["result"]:
        for name in PER_LAYER:
            run["metrics"].setdefault(name, 0.0)
    missing = [n for n in wanted if n not in run["metrics"]]
    if missing or len(run["result"]) != len(RESULT_LINES):
        print(f"run.py: {run['workload']} seed {run['seed']} ended with "
              f"status {run['returncode']} without "
              f"{', '.join(missing) or 'its result lines'}", file=sys.stderr)
        return None
    res = run["result"]
    return {
        "correct": bool(res["correct"]) and run["returncode"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": run["metrics"][n], "unit": m["unit"]}
                    for n, m in wanted.items()},
    }


def single(args):
    build()
    run, stdout = run_one(args.workload, args.seed, args.seconds,
                          traced=args.trace == 1)
    sys.stdout.write(stdout)
    result = result_json(run)
    if result is None:
        return run["returncode"] or 1
    print(json.dumps(result))
    return run["returncode"]


def every_workload(args):
    build()
    seeds = range(args.seed, args.seed + args.seeds)
    sets, medians = [], []
    for s in range(args.sets):
        order = WORKLOADS if s % 2 == 0 else WORKLOADS[::-1]
        runs = {w: [run_one(w, seed, args.seconds)[0] for seed in seeds]
                for w in order}
        sets.append(runs)
        medians.append({})
        for w in WORKLOADS:
            if any(result_json(run) is None for run in runs[w]):
                return 1
            for name, m in END_TO_END.items():
                values = [run["metrics"][name] for run in runs[w]]
                mid = statistics.median(values)
                medians[s][w, name] = mid
                line = f"set{s + 1} {w} {name} {mid:.6g} {m['unit']}"
                if len(values) > 1:
                    q = statistics.quantiles(values, n=4)
                    line += f" spread {(q[2] - q[0]) / mid:.3f}"
                print(line, flush=True)
            failed = sum(run["result"]["failed"] for run in runs[w])
            attempted = sum(run["result"]["attempted"] for run in runs[w])
            print(f"set{s + 1} {w} failed {failed}/{attempted}", flush=True)
    if args.sets > 1:
        print("set 2 against set 1, (median2 - median1) / median1 in the "
              "worse direction:")
        for w in WORKLOADS:
            for name, m in END_TO_END.items():
                a, b = medians[0][w, name], medians[1][w, name]
                worse = (b - a) / a * (1 if m["better"] == "lower" else -1)
                print(f"  {w} {name} {worse:+.3f} bound {m['bound']}")
    traced = {}
    if args.trace == 1:
        for w in WORKLOADS:
            run = traced[w] = run_one(w, args.seed, args.seconds, True)[0]
            if result_json(run) is None:
                return 1
            for name, m in PER_LAYER.items():
                print(f"{w} {name} {run['metrics'][name]:.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seeds": list(seeds),
            "seconds": args.seconds,
            "sets": sets,
            "traced": traced,
        }, indent=1) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", type=int, default=1,
                   help="seeds per workload and set, from --seed on")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 measures traced runs for the per-layer metrics")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out", help="write every run's results as JSON here")
    args = p.parse_args()
    if args.workload is not None:
        return single(args)
    return every_workload(args)


if __name__ == "__main__":
    sys.exit(main())
