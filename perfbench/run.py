#!/usr/bin/env python3
"""Build and run the repository benchmark (the `perfbench` package).

One run, as the benchmark contract invokes it from the repository root:

    python3 perfbench/run.py --workload kv_read_mostly --seed 1 --seconds 10 --trace 0

builds `perfbench` (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), runs it, and passes its output through: the last line of
standard output is the result JSON. With `--trace 1` the call spans are
written to `$CARGO_TARGET_DIR/perfbench-traces/<workload>-seed<n>.csv`.

Steadiness mode repeats runs with consecutive seeds and prints, per
workload and end-to-end metric, the median, the quartiles and the spread
(quartile distance over the median) against the bound in BENCHMARK.json;
with `--traced` it also makes a traced run per seed and prints each
per-layer metric's median and the tracing overhead:

    python3 perfbench/run.py --steady --runs 10 --first-seed 1 --seconds 10 \\
        [--workload kv_read_mostly,ingest_scan] [--traced]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark binary itself stops after its measured phases; this only
# guards the contract's per-run limit against a hang.
RUN_TIMEOUT_S = 175


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr so the result stays the last line
    # of standard output.
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode


def binary():
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(workload, seed, seconds, trace, echo):
    cmd = [binary(), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(
            target_dir(), "perfbench-traces", f"{workload}-seed{seed}.csv")]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 124, None
    if echo:
        sys.stdout.write(p.stdout)
    if p.returncode != 0:
        return p.returncode, None
    lines = p.stdout.strip().splitlines()
    return 0, (json.loads(lines[-1]) if lines else None)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workload.split(",") if args.workload
                 else [w["name"] for w in spec["workloads"]])
    seeds = range(args.first_seed, args.first_seed + args.runs)
    worst = 0.0
    for w in workloads:
        plain, traced = [], []
        for s in seeds:
            for trace, out in ((0, plain), (1, traced)) if args.traced else ((0, plain),):
                rc, res = run_once(w, s, args.seconds, trace, echo=False)
                if rc != 0 or res is None or not res["correct"] or res["failed"]:
                    print(f"{w} seed {s} trace {trace}: FAILED (exit {rc}, result {res})")
                    return 1
                out.append(res["metrics"])
        print(f"\n{w}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            med, q1, q3, sp = spread([m[name]["value"] for m in plain])
            worst = max(worst, sp / bound)
            flag = "  OVER BOUND" if sp > bound else "  over bound/3" if sp > bound / 3 else ""
            print(f"  {name:<20} {med:>14.2f} {q1:>14.2f} {q3:>14.2f} {sp:>8.4f} {bound:>6}{flag}")
        if traced:
            print("  per-layer medians (traced runs):")
            for name in traced[0]:
                vals = [m[name]["value"] for m in traced]
                print(f"    {name:<36} {statistics.median(vals):>16.4f} {traced[0][name]['unit']}")
            overhead = (statistics.median(m["trace.ops_per_s"]["value"] for m in traced)
                        / statistics.median(m["ops_per_s"]["value"] for m in plain))
            print(f"  tracing overhead: traced / untraced median ops_per_s = {overhead:.4f}")
    print(f"\nlargest spread / bound: {worst:.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    if not args.steady and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")
    rc = build()
    if rc != 0:
        print(f"perfbench: build failed (exit {rc})", file=sys.stderr)
        return rc
    if args.steady:
        return steady(args)
    rc, _ = run_once(args.workload, args.seed, args.seconds, args.trace, echo=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
