#!/usr/bin/env python3
"""The repo benchmark: builds tapo_perfbench from the checkout's sources and
runs one workload (or all of them) in its own process.

    python3 perfbench/run.py --workload cloud_storage --seed 2015 \
        --seconds 30 --trace 0

Run from the root of a checkout. Without --workload every workload runs, one
process each. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
correctness check passed. README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD_DIR, "tapo_perfbench")

WORKLOADS = ["cloud_storage", "web_search_srto", "pcap_live_diagnose"]
DEFAULT_SEED = 2015   # seed used while the benchmark was written
HELDOUT_SEED = 4242   # seed kept back for confirming a claimed gain
RUN_TIMEOUT_S = 170   # one workload process; the contract allows 180 s
DEFAULT_SECONDS = 30  # BENCHMARK.json's run_seconds when that file is absent


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the benchmark binary; the log stays in the build
    directory and its tail goes to stderr on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", "4"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def load_spec():
    """BENCHMARK.json, or None when the file is not there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if the
    file is there."""
    spec = load_spec()
    if spec is None:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name, args):
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [BINARY, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", os.path.join(spans_dir, "%s-seed%d.jsonl" % (name, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (name, RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode not in (0, 1):
        fail("%s exited with code %d" % (name, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % name)
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        print("CHECK FAILED: metrics %s do not match BENCHMARK.json %s"
              % (sorted(result["metrics"]), sorted(want)))
        result["correct"] = False
    if proc.returncode != 0:
        result["correct"] = False
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %d; held-out seed %d)"
                    % (DEFAULT_SEED, HELDOUT_SEED))
    spec = load_spec()
    seconds = spec["run_seconds"] if spec else DEFAULT_SECONDS
    ap.add_argument("--seconds", type=int, default=seconds,
                    help="seconds one run measures on the reference host "
                    "(default %d, BENCHMARK.json's run_seconds)" % seconds)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    names = [args.workload] if args.workload else WORKLOADS
    results = {name: run_workload(name, args) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
