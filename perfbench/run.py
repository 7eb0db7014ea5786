#!/usr/bin/env python3
"""The DataCell benchmark: builds dcbench from source and runs one workload.

    python3 perfbench/run.py --workload wire_sql|lroad|mqo_batch \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke    # tiny run of every workload, both modes

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or
.bench_build when unset. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}, where the metrics are the
end-to-end ones of BENCHMARK.json (--trace 0) or its per-layer ones
(--trace 1). The line before it is dcbench's full report: host
fingerprint, arguments, thread and connection counts, run length and every
metric. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds dcbench; returns its path or exits 1."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "dcbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "dcbench")


def run_dcbench(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns dcbench's report or exits 1."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("dcbench timed out: " + " ".join(cmd))
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("dcbench failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
        sys.exit(1)
    return json.loads(lines[-1])


def result_line(spec, report, trace):
    """The contract's result object for one run, or None if incomplete."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = report["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            log("metric %s missing from the %s report" %
                (m["name"], report["workload"]))
            return None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": bool(report["correct"]) and report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        log("cannot read %s: %s" % (path, e))
        sys.exit(1)


def smoke(spec, binary):
    """Tiny run of every workload in both modes; exit 0 when all pass."""
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            report = run_dcbench(binary, w["name"], 1, 2, trace, smoke=True)
            line = result_line(spec, report, trace)
            passed = line is not None and line["correct"]
            ok = ok and passed
            print("%-10s trace=%d %s %s" % (
                w["name"], trace, "ok" if passed else "FAIL",
                "; ".join(report["errors"])[:300]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        log("unknown workload %r (have %s)" % (args.workload, names))
        return 2
    if args.seconds < 1:
        log("--seconds must be at least 1")
        return 2
    binary = build()
    if args.smoke:
        return smoke(spec, binary)

    report = run_dcbench(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    line = result_line(spec, report, args.trace)
    if line is None:
        return 1
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
