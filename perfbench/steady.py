#!/usr/bin/env python3
"""Steadiness check for the EDEN benchmark.

Runs a workload as two separate sets of runs (each run with its own
seed), prints per set and per metric the median and quartiles, and says
whether the two sets agree within the bounds in BENCHMARK.json: every
end-to-end metric's spread (interquartile range over median) must stay
within its bound, the second set's median may not be worse than the
first's by more than the bound, and the share of failed operations must be
identical. Each run's host.calibration_ms and host.steal_pct (CPU time the
hypervisor gave to other tenants) are printed, so machine drift between the
sets is visible.

With --overhead it instead runs each seed untraced and traced and reports
the tracing overhead: the traced run's timed wall time (trace.wall_s) and
median operation latency (trace.latency_p50_ms) over the untraced run's
wall_s and latency_p50_ms. On serve the wall time is paced by the schedule,
so there the latency is the figure that can show the overhead.

With several workloads, set 1 of every workload runs before set 2 of any,
so the two sets of one workload are taken apart in time.

Run from the repository root:

    python3 perfbench/steady.py --workload pipeline sweep serve --runs 10
    python3 perfbench/steady.py --workload serve --runs 3 --overhead
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed (exit {proc.returncode}): {' '.join(args)}")
    result = json.loads(lines[-1])
    host = {key: next((float(l.split()[1]) for l in lines if l.startswith(key + " ")), float("nan"))
            for key in ("host.calibration_ms", "host.steal_pct")}
    return result, host


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(workload, sets, bounds):
    """Prints both sets' quartiles and their comparison; True if they agree."""
    ok = True
    medians = []
    for s, runs in enumerate(sets):
        print(f"\n{workload}, set {s + 1}: {len(runs)} runs")
        print(f"  {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        set_medians = {}
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = summary(values)
            spread = (q3 - q1) / med
            set_medians[name] = med
            verdict = ""
            if spread > spec["bound"]:
                verdict = "  TOO WIDE"
                ok = False
            elif spread > spec["bound"] / 3:
                verdict = "  (over a third of the bound)"
            print(f"  {name:<18} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} {spread:>8.2%} {spec['bound']:>6}{verdict}")
        medians.append(set_medians)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share(s): {sorted(shares)}")

    print(f"\n{workload}, second set against the first:")
    for name, spec in bounds.items():
        a, b = medians[0][name], medians[1][name]
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= spec["bound"] else "WORSE BEYOND BOUND"
        ok &= worse <= spec["bound"]
        print(f"  {name:<18} {a:>12.5g} -> {b:>12.5g}  worse by {worse:+.2%}  {verdict}")
    shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
    same = len(set().union(*shares)) == 1
    ok &= same
    print(f"  failed share identical across sets: {same}")
    print(f"  {workload}: {'STEADY' if ok else 'NOT STEADY'}")
    return ok


def overhead(command, workload, first_seed, runs, seconds):
    pairs = [("wall_s", "trace.wall_s"), ("latency_p50_ms", "trace.latency_p50_ms")]
    ratios = {plain: [] for plain, _ in pairs}
    for seed in range(first_seed, first_seed + runs):
        plain, _ = run_once(command, workload, seed, seconds, 0)
        traced, _ = run_once(command, workload, seed, seconds, 1)
        for name, traced_name in pairs:
            a = plain["metrics"][name]["value"]
            b = traced["metrics"][traced_name]["value"]
            ratios[name].append(b / a - 1.0)
            print(f"{workload} seed {seed}: {name} {a:.5g} untraced, {b:.5g} traced ({ratios[name][-1]:+.2%})", flush=True)
    for name, values in ratios.items():
        print(f"{workload}: tracing overhead on {name}, median over {len(values)} seeds: {statistics.median(values):+.2%}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, nargs="+",
                        help="one or more workloads; set 1 of each runs before set 2 of any")
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    parser.add_argument("--seed", type=int, default=1, help="first seed; every run gets its own")
    parser.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--overhead", action="store_true", help="measure tracing overhead instead")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2, for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    command = bench["command"]

    if args.overhead:
        for workload in args.workload:
            overhead(command, workload, args.seed, args.runs, seconds)
        return

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = {workload: [] for workload in args.workload}
    for s in range(2):
        for workload in args.workload:
            runs = []
            for i in range(args.runs):
                seed = args.seed + s * args.runs + i
                result, host = run_once(command, workload, seed, seconds, 0)
                runs.append(result)
                line = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{workload} set {s + 1} seed {seed}: calibration {host['host.calibration_ms']:.2f} ms"
                      f"  steal {host['host.steal_pct']:.1f}%  {line}", flush=True)
            sets[workload].append(runs)

    ok = all([report(workload, runs, bounds) for workload, runs in sets.items()])
    print("\nSTEADY" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
