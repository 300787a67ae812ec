#!/usr/bin/env python3
"""Runs one PARK benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload serve_payroll --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root. Builds perfbench (park_bench.cc plus the
engine from src/, Release) under $CARGO_TARGET_DIR (default
.bench_build), runs the workload, checks its outputs and prints one line
per metric followed, as the last line, by a JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(BENCHMARK.json lists both). --workload all runs every workload in turn.
Exits 1 when an output check fails and 2 when the benchmark cannot run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402
from benchstats import median, percentile  # noqa: E402

WORKLOADS = ("serve_payroll", "maintain_kilorule", "closure_recompute")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src",
                                       "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench"), build_dir


def run_workload(binary, build_dir, workload, seed, seconds, trace):
    tag = "%s-%d" % (workload, os.getpid())
    work_dir = os.path.join(build_dir, "work-" + tag)
    raw_path = os.path.join(build_dir, "raw-" + tag + ".json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", work_dir, "--out", raw_path]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            fail("%s exited with %d" % (workload, done.returncode))
        with open(raw_path) as f:
            return json.load(f)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.exists(raw_path):
            os.remove(raw_path)


def end_to_end(raw):
    """The user-visible metrics of an untraced run: name -> (value, unit,
    note). Latency and throughput are medians over the run's slices."""
    phase = raw["untraced"]
    commit_ns, query_ns = phase["commit_ns"], phase["query_ns"]
    c_counts = raw["slice_commit_samples"]
    q_counts = raw["slice_query_samples"]
    slices = len(c_counts)

    def over_slices(values, counts, p):
        return benchstats.median_over_slices(
            values, counts, lambda s: percentile(s, p))

    rates = [n / (ns / 1e9) for n, ns in zip(c_counts,
                                             raw["slice_elapsed_ns"])]
    per_slice = "median of %d slices, %d samples" % (slices, len(commit_ns))
    per_slice_q = "median of %d slices, %d samples" % (slices, len(query_ns))
    return {
        "setup_s": (median(raw["setup_ns"]) / 1e9, "s",
                    "median of %d groups of %d set-ups"
                    % (len(raw["setup_ns"]), raw["setup_group"])),
        "commits_per_s": (median(rates), "1/s",
                          "median of %d slices, %d clients"
                          % (slices, raw["clients"])),
        "commit_p50_ms": (over_slices(commit_ns, c_counts, 50) / 1e6, "ms",
                          per_slice),
        "commit_p90_ms": (over_slices(commit_ns, c_counts, 90) / 1e6, "ms",
                          per_slice),
        "query_p50_us": (over_slices(query_ns, q_counts, 50) / 1e3, "us",
                         per_slice_q),
        "query_p90_us": (over_slices(query_ns, q_counts, 90) / 1e3, "us",
                         per_slice_q),
        "recovery_s": (benchstats.median_of_reopens(raw["recovery_ns"]), "s",
                       "median of %d reopens" % len(raw["recovery_ns"])),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MiB",
                        "after set-up and 50 commits"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw):
    """Per-layer metrics of a traced run: name -> (value, unit, note)."""
    spans = [tuple(s) for s in raw["spans"]]
    own = benchstats.self_times_by_name(spans)

    def span_median(name, scale):
        if name not in own:
            fail("traced run recorded no %s span" % name)
        return median(own[name]) / scale

    traced = raw["traced"]
    c = traced["counters"]
    reports = c["reports"]
    serving = raw["serving"]
    evaluate = median(traced["evaluate_ns"]) / 1e6
    apply_ = median(traced["apply_ns"]) / 1e6
    journal = median(traced["journal_ns"]) / 1e6
    wait = median(traced["wait_ns"]) / 1e6
    traced_p50 = percentile(traced["commit_ns"], 50) / 1e6
    untraced_p50 = percentile(raw["untraced"]["commit_ns"], 50) / 1e6
    if serving["batches"]:
        mean_batch = serving["batched_txns"] / serving["batches"]
    else:
        mean_batch = ratio(c["batch_size"], reports)
    return {
        "lang.parse_rules_ms": (span_median("lang.parse_rules", 1e6), "ms",
                                "LoadRules / ParseProgram"),
        "lang.pattern_parse_us": (span_median("lang.pattern_parse", 1e3),
                                  "us", "ParseAtomPattern"),
        "storage.load_facts_ms": (span_median("storage.load_facts", 1e6),
                                  "ms", "LoadFacts"),
        "storage.snapshot_pin_us": (span_median("storage.snapshot_pin", 1e3),
                                    "us", "Session::Snapshot()"),
        "storage.query_us": (span_median("storage.query", 1e3), "us",
                             "Snapshot::Query / QueryDatabase"),
        "storage.atoms": (raw["atoms"], "count", "final instance"),
        "core.stabilize_ms": (span_median("core.stabilize", 1e6), "ms",
                              "initial Stabilize"),
        "core.park_ms": (median(raw["park_ns"]) / 1e6, "ms",
                         "direct Park(D, P, U), %d calls"
                         % len(raw["park_ns"])),
        "core.gamma_steps": (ratio(c["gamma_steps"], reports), "count",
                             "per commit"),
        "core.derived_marks": (ratio(c["derived_marks"], reports), "count",
                               "per commit"),
        "core.maint_ratio": (ratio(c["maint_commits"], reports), "ratio",
                             "maintained / commits"),
        "core.maint_rederived": (ratio(c["maint_rederived"], reports),
                                 "count", "per commit"),
        "engine.rule_evaluations": (ratio(c["rule_evaluations"], reports),
                                    "count", "per commit"),
        "engine.sched_skip_ratio": (ratio(c["sched_skipped"],
                                          c["sched_considered"]),
                                    "ratio", "skipped / considered"),
        "engine.plan_cache_hit_ratio": (
            ratio(c["plan_cache_hits"],
                  c["plan_cache_hits"] + c["plans_compiled"]),
            "ratio", "hits / (hits + compiles)"),
        "util.pool_sections": (ratio(c["pool_sections"], reports), "count",
                               "per commit"),
        "util.tasks_per_section": (ratio(c["pool_tasks"], c["pool_sections"]),
                                   "count", "pool tasks / sections"),
        "eca.evaluate_ms": (evaluate, "ms", "CommitTimings, median"),
        "eca.apply_ms": (apply_, "ms", "CommitTimings, median"),
        "eca.journal_ms": (journal, "ms", "CommitTimings, median"),
        "eca.reopen_s": (span_median("eca.reopen", 1e9), "s",
                         "Open of the durable directory"),
        "serve.mean_batch_size": (mean_batch, "count",
                                  "transactions per group commit"),
        "serve.wait_publish_ms": (wait, "ms",
                                  "Commit() span minus timings.total"),
        "bench.commit_path_ms": (evaluate + apply_ + journal + wait, "ms",
                                 "sum of the commit-path layers above"),
        "bench.trace_overhead_ms": (traced_p50 - untraced_p50, "ms",
                                    "traced minus untraced commit p50 "
                                    "(%.4f ms untraced)" % untraced_p50),
        "bench.commit_samples": (len(raw["untraced"]["commit_ns"]), "count",
                                 "untraced half"),
        "bench.query_samples": (len(raw["untraced"]["query_ns"]), "count",
                                "untraced half"),
    }


def report(raw, trace):
    """Prints the metric lines and returns the contract's result object."""
    name = raw["workload"]
    metrics = per_layer(raw) if trace else end_to_end(raw)
    phases = [raw["untraced"]] + ([raw["traced"]] if trace else [])
    attempted = sum(p["commits"] + p["queries"] for p in phases)
    failed = sum(p["failed_commits"] + p["failed_queries"] for p in phases)
    for metric, (value, unit, note) in metrics.items():
        print("%-18s %-28s %14.6f %-6s %s" % (name, metric, value, unit, note))
    print("%-18s %-28s %14.6f %-6s %d of %d operations" % (
        name, "failed_frac", ratio(failed, attempted), "ratio", failed,
        attempted))
    correct = True
    for check in raw["checks"]:
        print("%-18s check %-40s %s (%s)" % (
            name, check["name"], "ok" if check["passed"] else "FAILED",
            check["detail"]))
        correct = correct and check["passed"]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u, _) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    binary, build_dir = build()
    print("perfbench: built in %.1f s" % (time.monotonic() - started),
          file=sys.stderr)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        raw = run_workload(binary, build_dir, name, args.seed, args.seconds,
                           args.trace)
        try:
            result = report(raw, args.trace)
        except benchstats.TooFewSamples as e:
            fail("%s: %s" % (name, e))
        all_correct = all_correct and result["correct"]
        print(json.dumps(result), flush=True)
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
