#!/usr/bin/env python3
"""Builds and runs the store-backed pipeline benchmark for one workload.

    python3 perfbench/run.py --workload ingest_durable --seed 7 \
        --seconds 20 --trace 0

Run it from the root of the repository. It builds perfbench/ (which compiles
the repository's own sources) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, runs the workload in a fresh process and prints, last, one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end set; with --trace 1 they are its
per_layer set, taken from a traced run that follows an untraced one; the
traced run's extra CPU over the measured phases is trace_overhead_pct.
perfbench/README.md defines every metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_durable", "serve_warm", "live_tick")
# A traced invocation runs pipeline_bench twice and must end within 180 s.
RUN_TIMEOUT_S = 80

# End-to-end metrics every run prints but BENCHMARK.json does not gate, with
# the direction that is better: wall-clock ones swing with hypervisor steal
# on a shared VM, and memory-bound query CPU drifts with the host's load
# (README.md, "Steadiness"). measured_cpu_s is what trace_overhead_pct
# compares; its spread is that figure's noise.
REPORTED = (("ingest_aps", "higher"), ("fresh_ms_p50", "lower"),
            ("fresh_ms_p95", "lower"), ("query_qps", "higher"),
            ("query_ms_p50", "lower"), ("query_ms_p99", "lower"),
            ("query_cpu_ms_p50", "lower"), ("query_cpu_ms_p99", "lower"),
            ("setup_wall_s", "lower"), ("measured_cpu_s", "lower"))

# Per-layer metric -> the end-to-end metric it should move, and where.
# ingest_cpu_us_per_action is the gated twin of ingest_aps, and
# query_cpu_ms_p50 the CPU side of query_ms_p50 and query_qps.
INGEST = "ingest_cpu_us_per_action, ingest_aps @ ingest_durable"
SHOULD_MOVE = [
    ("tdaccess.", INGEST + "; fresh_ms_p50 @ live_tick"),
    ("tstorm.empty_run_ms",
     "fresh_ms_p50 @ live_tick; no move @ ingest_durable"),
    ("tstorm.tuples_per_action", INGEST),
    ("tstorm.busy_us_per_action.", INGEST + "; fresh_ms_p95 @ live_tick"),
    ("engine.ctx_", INGEST),
    ("engine.", "setup_s @ all"),
    ("topo.query.", "query_cpu_ms_p50, query_qps @ serve_warm; "
                    "query_ms_p50 @ live_tick"),
    ("topo.query_cache.", "query_cpu_ms_p50, query_qps @ serve_warm"),
    ("topo.", "none (quality guard against the serial kernel)"),
    ("tdstore.reads_per_query", "query_cpu_ms_p50, query_qps @ serve_warm"),
    ("tdstore.invocations_per_query",
     "query_cpu_ms_p50, query_qps @ serve_warm"),
    ("tdstore.wal_", INGEST + " only"),
    ("tdstore.fsyncs_", INGEST + " only"),
    ("tdstore.keys.", "peak_rss_mb @ ingest_durable"),
    ("tdstore.snapshot_mb", "peak_rss_mb @ ingest_durable"),
    ("tdstore.checkpoint_ms", "peak_rss_mb @ ingest_durable"),
    ("tdstore.", INGEST + "; fresh_ms_p50 @ live_tick"),
    ("core.", "none (single-threaded baseline; same-run ratio)"),
    ("driver.", "none (checks the benchmark itself)"),
    ("trace_overhead_pct", "none (checks the benchmark itself)"),
]


def should_move(name):
    for prefix, target in SHOULD_MOVE:
        if name.startswith(prefix):
            return target
    return ""


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configures and builds pipeline_bench; incremental after the first run."""
    cmake_dir = os.path.join(build_root, "cmake")
    log_path = os.path.join(build_root, "build.log")
    os.makedirs(build_root, exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", cmake_dir],
            ["cmake", "--build", cmake_dir, "--target", "pipeline_bench",
             "-j", str(os.cpu_count() or 1)],
        ):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "pipeline_bench")


def run_once(binary, build_root, workload, seed, seconds, trace):
    """Runs pipeline_bench in a fresh process and returns its parsed result."""
    work_dir = os.path.join(build_root, "work",
                           "%s-%d-%d" % (workload, os.getpid(), trace))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    if trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("%s exited with %d" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)

    base = run_once(binary, build_root, args.workload, args.seed,
                    args.seconds, 0)
    runs = [base]
    metrics = dict(base["metrics"])
    wanted = declared["end_to_end"]
    if args.trace:
        traced = run_once(binary, build_root, args.workload, args.seed,
                          args.seconds, 1)
        runs.append(traced)
        metrics = dict(traced["metrics"])
        # Both runs do the same work, so the CPU of the measured phases
        # differs by what the spans and counter probes cost.
        plain = base["metrics"]["measured_cpu_s"]["value"]
        with_trace = traced["metrics"]["measured_cpu_s"]["value"]
        metrics["trace_overhead_pct"] = {
            "value": 100.0 * (with_trace / plain - 1.0), "unit": "%"}
        wanted = declared["per_layer"]

    out = {}
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail("metric %s missing or not in %s" % (spec["name"],
                                                     spec["unit"]))
        out[spec["name"]] = {"value": got["value"], "unit": got["unit"]}

    host = base["host"]
    print("host nproc=%d cpu=%r calib_ms=%.1f" %
          (host["nproc"], host["cpu"], host["calib_ms"]))
    print("samples " + json.dumps(base["samples"]))
    reported = {n: base["metrics"][n] for n, _ in REPORTED}
    rows = [(s["name"], base["metrics"][s["name"]], "gated")
            for s in declared["end_to_end"]]
    rows += [(n, m, "not gated") for n, m in reported.items()]
    if args.trace:
        rows += [(n, m, "moves: " + should_move(n)) for n, m in out.items()]
    for name, m, note in rows:
        print("%-44s %14.4f %-16s %s" % (name, m["value"], m["unit"], note))
    print("reported " + json.dumps(reported))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": out,
    }))


if __name__ == "__main__":
    main()
