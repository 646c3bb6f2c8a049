#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 100]

Runs each workload of BENCHMARK.json --runs times, each with its own seed,
and prints for every metric the median, the quartiles and the spread
(Q3 - Q1) / median, with quartiles as statistics.quantiles(values, n=4)
gives them. End-to-end metrics whose spread exceeds their bound are
flagged. Metrics of the report line that BENCHMARK.json does not gate are
listed too, unflagged. Exits 1 if any run fails, is incorrect or invalid
(exits non-zero), or any gated spread is over its bound. Run from the
repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    p = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                       stdout=subprocess.PIPE, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, {}
    result = json.loads(lines[-1])
    report = {}
    for line in lines:
        if line.startswith("report "):
            report = json.loads(line[len("report "):])
    return result, report


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    gated = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")

    bad = False
    for w in names:
        values, extra = {}, {}
        for i in range(a.runs):
            seed = a.seed_base + i
            result, report = run_once(bench["command"], w, seed, seconds)
            if result is None or not result["correct"]:
                print("%s seed %d: run failed or incorrect: %s" % (w, seed, result))
                bad = True
                continue
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            for k, m in report.items():
                if k not in result["metrics"]:
                    extra.setdefault(k, []).append((m["value"], m["unit"]))
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, m["value"]) for k, m in sorted(result["metrics"].items()))),
                flush=True)
        print("\n== %s (%d runs, %d s each)" % (w, a.runs, seconds))
        print("%-34s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
        for k in sorted(values):
            if len(values[k]) < 2:
                continue
            q1, med, q3, s = spread(values[k])
            bound = gated.get(k, {}).get("bound")
            flag = ""
            if bound is not None and s > bound:
                flag = "  OVER"
                bad = True
            elif bound is not None and s > bound / 3:
                flag = "  (> bound/3)"
            print("%-34s %12.5g %12.5g %12.5g %8.3f %6s%s" % (
                k, q1, med, q3, s, "-" if bound is None else bound, flag))
        for k in sorted(extra):
            vals = [v for v, _ in extra[k]]
            if len(vals) < 2:
                continue
            q1, med, q3, s = spread(vals)
            print("%-34s %12.5g %12.5g %12.5g %8.3f %6s  (report only, %s)" % (
                k, q1, med, q3, s, "-", extra[k][0][1]))
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
