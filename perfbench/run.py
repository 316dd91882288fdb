#!/usr/bin/env python3
# Copyright 2026 the pdblb authors. MIT license.
"""The pdblb repository benchmark (see README.md in this directory).

Builds the pdblb library and the pdblb_perfbench binary from the checkout's
sources, runs one workload, checks the simulated results and prints every
metric by name, unit and host/sim tag, then one JSON result line:

    python3 perfbench/run.py --workload join-scaleout --seed 42 \
        --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics (tracing off); --trace 1 runs the
traced pass and the layer probes and reports the per-layer metrics.
--workload all runs every workload in both modes.  Run from anywhere; all
build and result files stay inside the checkout (.bench_build, .bench_out).
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["join-scaleout", "mixed-oltp", "memory-bound"]
DEFAULT_SEED = 42
REFERENCE = os.path.join(HERE, "reference", "digests.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "engine", "cluster.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError("pdblb sources not found: missing " + needed)
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "pdblb_perfbench")


# Columns of runner::ResultsCsv that the results digest leaves out: they
# count what the simulator's kernel did (events dispatched, inline
# hand-offs), not answers of the model, so a perf-only change may move them.
DIGEST_EXCLUDED = ("kernel_events", "kernel_handoffs")


def digest(path):
    """SHA-256 of the results CSV without the DIGEST_EXCLUDED columns."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    keep = [i for i, name in enumerate(rows[0]) if name not in DIGEST_EXCLUDED]
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps([row[i] for i in keep]).encode() + b"\n")
    return h.hexdigest()


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check_digest(reference, workload, seed, actual):
    """None when no reference exists for (workload, seed), else the match."""
    expected = reference.get(workload, {}).get(str(seed))
    return None if expected is None else expected == actual


def run_binary(binary, mode, workload, seed, seconds):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s.%s.%d" % (workload, mode, seed))
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", stem + ".json",
           "--csv", stem + ".csv"]
    if mode == "layers":
        cmd += ["--spans", stem + ".spans.json"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=RUN_TIMEOUT_S)
    with open(stem + ".json") as f:
        raw = json.load(f)
    raw["csv_digest"] = digest(stem + ".csv")
    return raw


def evaluate(raw, reference):
    """Returns (correct, failed points, problems, digest match or None)."""
    problems = ["check failed: " + k for k, ok in raw["checks"].items()
                if not ok]
    for p in raw["failed_points"]:
        problems.append("point failed: %s (%s)" % (p["name"], p["reason"]))
    match = check_digest(reference, raw["workload"], raw["seed"],
                         raw["csv_digest"])
    if match is False:
        problems.append("results digest differs from the reference")
    for p in raw.get("probes", []):
        if not p["path_ok"]:
            problems.append("probe off its path: %s (%s)" %
                            (p["metric"], p["detail"]))
    failed = len(raw["failed_points"])
    return not problems, failed, problems, match


def print_report(raw, match, problems):
    print("== %s  mode=%s  seed=%d  jobs=%d  points=%d" %
          (raw["workload"], raw["mode"], raw["seed"], raw["jobs"],
           raw["points"]))
    if "rounds" in raw:
        print("  %d rounds; round 0 re-run at jobs=%d for the output check" %
              (raw["rounds"], raw["check_jobs"]))
    for m in raw["metrics"]:
        print("  %-40s %22.10g %-6s %s" %
              (m["name"], m["value"], m["unit"], m["tag"]))
    for key, samples in raw.get("samples", {}).items():
        print("  %s: %d samples" % (key, len(samples)))
    for p in raw.get("probes", []):
        print("  probe %-30s %s" % (p["metric"], p["detail"]))
    print("  results digest %s (%s)" % (
        raw["csv_digest"][:16],
        {None: "no reference for this seed", True: "matches reference",
         False: "DIFFERS from reference"}[match]))
    print("  points attempted %d, failed %d" %
          (raw["attempted"], len(raw["failed_points"])))
    for p in problems:
        print("  PROBLEM: " + p)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default 0; both with --workload all)")
    ap.add_argument("--write-reference", action="store_true",
                    help="record this run's results digest as the reference "
                         "for (workload, seed); only for deliberate model "
                         "changes")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.trace is not None:
        modes = [args.trace]
    else:
        modes = [0, 1] if args.workload == "all" else [0]
    reference = load_reference()
    prefix = args.workload == "all"

    correct, attempted, failed, metrics = True, 0, 0, {}
    print("perfbench: root seed %d" % args.seed)
    for workload in workloads:
        for trace in modes:
            mode = "layers" if trace else "measure"
            started = time.monotonic()
            try:
                raw = run_binary(binary, mode, workload, args.seed,
                                 args.seconds)
            except (OSError, subprocess.SubprocessError) as e:
                log("perfbench: %s %s failed: %s" % (workload, mode, e))
                return 1
            ok, n_failed, problems, match = evaluate(raw, reference)
            print_report(raw, match, problems)
            print("  (%.1f s)" % (time.monotonic() - started))
            if args.write_reference:
                reference.setdefault(workload, {})[str(args.seed)] = \
                    raw["csv_digest"]
                with open(REFERENCE, "w") as f:
                    json.dump(reference, f, indent=2, sort_keys=True)
                    f.write("\n")
            correct = correct and ok
            attempted += raw["attempted"]
            failed += n_failed
            for m in raw["metrics"]:
                name = workload + "/" + m["name"] if prefix else m["name"]
                metrics[name] = {"value": m["value"], "unit": m["unit"]}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
