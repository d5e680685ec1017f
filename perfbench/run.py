#!/usr/bin/env python3
"""Repo benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload alg4_n128 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 --trace 1

Builds the benchmark (CMake, into .bench_build/ at the repo root), runs
one workload (or, with --all, every workload in BENCHMARK.json), checks
the run against the committed reference row, prints every metric by name
with its unit, writes the full report to .bench_build/results/, and
prints as its LAST stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics. Exit code 0 only if the run was correct.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")

# The alg4_n128 reference run must match this committed row.
REFERENCE_FILE = os.path.join(ROOT, "BENCH_f2_scaling.json")
REFERENCE_LABEL = "alg4/mixed/n128"
REFERENCE_FIELDS = ("rounds", "records", "honest_bits")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in a process group of its own: on timeout (or any other
    exit from here) the whole process group is killed and reaped, so no
    compiler or benchmark process outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def build():
    """Configure (once) and build the benchmark. Raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found beside "
                           "perfbench/")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = [["cmake", "--build", BUILD_DIR, "-j",
              str(max(1, min(4, os.cpu_count() or 1)))]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        done = run_group(cmd, max(1.0, deadline - time.monotonic()),
                         stdout=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("%s exited %d" % (" ".join(cmd),
                                                 done.returncode))


def git_commit():
    """HEAD of the checkout, or 'unknown' outside a git work tree. The
    ceiling stops git from looking above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_reference(report):
    """Errors from comparing the seed-7 alg4_n128 run to the committed row."""
    ref = report.get("reference")
    if ref is None:
        return []
    with open(REFERENCE_FILE) as fp:
        rows = [r for r in json.load(fp)["runs"]
                if r["label"] == REFERENCE_LABEL]
    if len(rows) != 1:
        return ["reference row %s not found in %s" % (REFERENCE_LABEL,
                                                      REFERENCE_FILE)]
    errors = []
    for key in REFERENCE_FIELDS:
        if ref.get(key) != rows[0][key]:
            errors.append("reference seed %d: %s %s != committed %s" %
                          (ref["seed"], key, ref.get(key), rows[0][key]))
    return errors


def metric_key(name):
    """Kind names may hold ':' (ext's 'base:*'); metric names may not."""
    return name.replace(":", ".")


def select_metrics(report, bench, trace):
    """The metrics BENCHMARK.json declares for this mode, from the report.
    Per-kind bit counts become bb.bits.<kind>; a kind the workload's
    protocol does not have reads 0. Returns (metrics, errors)."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    have = {m["name"]: m for m in report["metrics"]}
    for kind, bits in report["bits_by_kind"].items():
        name = "bb.bits." + metric_key(kind)
        have[name] = {"name": name, "value": bits, "unit": "bit"}
    out, errors = {}, []
    for d in declared:
        m = have.get(d["name"])
        if m is None and d["name"].startswith("bb.bits."):
            m = {"value": 0, "unit": "bit"}
        if m is None or m["value"] is None:
            errors.append("metric %s was not measured" % d["name"])
            continue
        if m["unit"] != d["unit"]:
            errors.append("metric %s: unit %s, declared %s" %
                          (d["name"], m["unit"], d["unit"]))
        out[d["name"]] = {"value": m["value"], "unit": d["unit"]}
    return out, errors


def print_table(report, errors):
    prov = report["provenance"]
    wl = prov["workload"]
    print("== perfbench %s  seed=%d trace=%d  (%s %s n=%d f=%d L=%d net=%s%s)"
          % (report["workload"], report["seed"], report["trace"],
             wl["protocol"], wl["adversary"], wl["n"], wl["f"], wl["L"],
             wl["net"], " payload=%dB" % wl["payload_bytes"]
             if wl["payload_bytes"] else ""))
    print("   provenance: nproc=%d compiler=%s build=%s commit=%s "
          "engine_jobs=%d node_jobs=%d setup_reps=%d timed_reps=%d traced_reps=%d"
          % (prov["nproc"], prov["compiler"], prov["build_type"],
             prov["git_commit"], prov["engine_jobs"], prov["node_jobs"],
             prov["setup_reps"], prov["timed_reps"], prov["traced_reps"]))
    for m in report["metrics"]:
        v = m["value"]
        print("   %-34s %16s %s" % (m["name"], "n/a" if v is None else
                                   "%.6g" % v, m["unit"]))
    for kind, bits in sorted(report["bits_by_kind"].items()):
        print("   %-34s %16.6g bit" % ("bb.bits." + metric_key(kind), bits))
    if "traced" in report:
        t = report["traced"]
        print("   trace: %d traced runs, %d slots; tail = %s (%d slots beyond); "
              "spans in %s" % (t["runs"], t["slots"], t["tail_percentile"],
                               t["slots_beyond_tail"], t["spans_file"]))
    print("   runs attempted %d, failed %d" % (report["attempted"],
                                              report["failed"]))
    for e in errors:
        print("   ERROR: %s" % e)


def run_one(args, bench, workload):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(RESULTS_DIR, workload + ".spans.tsv")]
    proc = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                     stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark binary exited %d without a report"
                           % proc.returncode)
    report = json.loads(lines[-1])
    report["provenance"]["git_commit"] = git_commit()
    errors = list(report["errors"])
    errors += check_reference(report)
    metrics, metric_errors = select_metrics(report, bench, args.trace)
    errors += metric_errors
    correct = proc.returncode == 0 and not errors and report["failed"] == 0
    report["correct"] = correct
    report["all_errors"] = errors
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as fp:
        json.dump(report, fp, indent=1, sort_keys=True)
    print_table(report, errors)
    return correct, report["attempted"], report["failed"], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true",
                       help="run every workload of BENCHMARK.json in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.all else [args.workload]
    if not set(workloads) <= set(names):
        ap.error("unknown workload %s; known: %s" % (args.workload,
                                                     ", ".join(names)))
    try:
        build()
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    results = {}
    ok_all = True
    for w in workloads:
        try:
            results[w] = run_one(args, bench, w)
        except (OSError, ValueError, KeyError, RuntimeError,
                subprocess.SubprocessError) as e:
            log("perfbench: %s: %s" % (w, e))
            return 1
        ok_all = ok_all and results[w][0]

    if args.all:
        line = {w: {"correct": c, "attempted": a, "failed": f, "metrics": m}
                for w, (c, a, f, m) in results.items()}
    else:
        c, a, f, m = results[workloads[0]]
        line = {"correct": c, "attempted": a, "failed": f, "metrics": m}
    print(json.dumps(line), flush=True)
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
