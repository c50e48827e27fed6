#!/usr/bin/env python3
"""Steadiness self-check for the pipeline benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 20] [--out FILE]
        [--seed 1000]

Run it from the root of the repository. It runs every workload --runs times
(at least 10) with --trace 0, each run in a fresh process with its own seed,
as two interleaved sets: run i belongs to set A when i is even and to set B
when it is odd, and each round runs every workload once, so host drift falls
on both sets and on every workload alike. For each end-to-end metric of each
workload it prints the median, the quartiles, the spread (quartile distance
over the median) and the difference between the two sets' medians, against
the bound BENCHMARK.json declares. It exits 1 when a spread (setup_s
excepted) or a set difference exceeds its bound, or when a run is incorrect.
The metrics run.py prints without gating them get the same statistics,
against no bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import REPORTED  # noqa: E402  (printed, not gated; no bound)
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    host = next((l for l in lines if l.startswith("host ")), "host ?")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("reported "):
            result["reported"] = json.loads(line[len("reported "):])
    return result, host


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if better == "higher":
        return (first - second) / first
    return (second - first) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of the first run; run i uses seed + i")
    parser.add_argument("--out", help="also write the report here")
    args = parser.parse_args()
    if args.runs < 10:
        parser.error("--runs must be at least 10")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    seconds = args.seconds or declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]

    values = {w: {} for w in workloads}   # workload -> metric -> [(set, v)]
    report = []
    ok = True
    hosts = set()
    started = time.time()
    for i in range(args.runs):
        label = "AB"[i % 2]
        for w in workloads:
            result, host = run(w, args.seed + i, seconds)
            hosts.add(host)
            if not result["correct"] or result["failed"]:
                ok = False
                report.append("run %d %s: INCORRECT (%d of %d failed)" %
                              (i, w, result["failed"], result["attempted"]))
            for name, m in list(result["metrics"].items()) + list(
                    result.get("reported", {}).items()):
                values[w].setdefault(name, []).append((label, m["value"]))
            print("round %d set %s %s done (%.0f s)" %
                  (i, label, w, time.time() - started), file=sys.stderr)

    report.append("runs per workload: %d (sets A and B interleaved), "
                  "seconds: %d, seeds %d..%d" %
                  (args.runs, seconds, args.seed, args.seed + args.runs - 1))
    report.extend(sorted(hosts))
    header = "%-15s %-25s %11s %11s %11s %7s %9s %7s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "A-vs-B",
        "bound", "verdict")
    report.append(header)
    specs = declared["end_to_end"] + [
        {"name": n, "better": b, "bound": None} for n, b in REPORTED]
    for w in workloads:
        for spec in specs:
            name, bound = spec["name"], spec["bound"]
            pairs = values[w].get(name, [])
            if len(pairs) < 2:
                continue
            all_v = [v for _, v in pairs]
            a = [v for s, v in pairs if s == "A"]
            b = [v for s, v in pairs if s == "B"]
            med = statistics.median(all_v)
            q1, _, q3 = statistics.quantiles(all_v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            diff = worse_by(statistics.median(a), statistics.median(b),
                            spec["better"])
            if bound is None:
                report.append("%-15s %-25s %11.4f %11.4f %11.4f %7.3f %+9.3f "
                              "%7s  not gated" % (w, name, med, q1, q3, spread,
                                                  diff, "-"))
                continue
            failed = []
            if name != "setup_s" and spread > bound:
                failed.append("SPREAD>BOUND")
            if abs(diff) > bound:
                failed.append("SETS-DISAGREE")
            verdict = " ".join(failed) or "ok"
            if not failed and name != "setup_s" and spread > bound / 3:
                verdict += " (spread above a third of the bound)"
            ok = ok and not failed
            report.append("%-15s %-25s %11.4f %11.4f %11.4f %7.3f %+9.3f "
                          "%7.2f  %s" % (w, name, med, q1, q3, spread, diff,
                                         bound, verdict))
    report.append("RESULT: " + ("PASS" if ok else "FAIL"))
    text = "\n".join(report) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
