#!/usr/bin/env python3
"""Runs the physnet benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload eval_corpus --seed 1 --seconds 12 --trace 0

Builds perfbench_workloads from the sources in the checkout (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
workload in its own process, and prints the workload's per-metric table
followed, as the last line of standard output, by one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of the one workload named;
--workload all runs the three in turn, one process each, and sums them up
with metric names prefixed by their workload. --trace 1 is the separate
traced run: it runs every workload, each in its own process, whatever
--workload names. Every other slice of each timed window is traced, and
the run reports every per-layer metric plus the tracing overhead per
workload.

The metric names are checked against BENCHMARK.json at the checkout root.
Exit codes: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 for bad arguments or a checkout without the
physnet sources, 3 when the build fails, 4 when a workload process crashes or
runs out of time (no result is printed in those cases).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("eval_corpus", "campaign_replay", "serve_mixed")
TIME_LIMIT_S = 170.0  # the whole invocation, build excluded

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_child = None  # the workload process running now, if any


def on_sigterm(*_):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    os._exit(143)


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the workloads binary; returns its dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "physnet sources not found under " + ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_workloads",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(3, "build failed: " + " ".join(cmd))
    return bdir


def run_workload(binary, workdir, workload, seed, seconds, trace, deadline):
    """Runs one workload process; returns (result dict, exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--repo", ".", "--workdir", workdir]
    global _child
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    _child = proc
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(4, workload + ": out of time")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(4, "%s: no result (exit code %d)" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1):
        fail(4, "%s: exit code %d" % (workload, proc.returncode))
    return result, proc.returncode


def merge(results, trace):
    """One result from the results of several workloads, by workload.

    End-to-end names take their workload as a prefix. Per-layer names
    already name their layer and stay as they are, except host.probe_ms,
    which every workload reports: the merged one is their median.
    """
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {}}
    probes = []
    for w, r in results.items():
        for name, m in r["metrics"].items():
            if not trace:
                merged["metrics"][w + "." + name] = m
            elif name == "host.probe_ms":
                probes.append(m["value"])
            else:
                merged["metrics"][name] = m
    if probes:
        merged["metrics"]["host.probe_ms"] = {
            "value": statistics.median(probes), "unit": "ms"}
    return merged


def check_names(result, trace):
    """The printed metric names and units must match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(4, "metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit differs %s" % (missing, extra, wrong))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds <= 0 or a.seed < 0:
        fail(2, "--seconds must be positive and --seed non-negative")

    # A workload still running when we are terminated is stopped with us.
    signal.signal(signal.SIGTERM, on_sigterm)

    bdir = build()
    binary = os.path.join(bdir, "perfbench_workloads")
    workdir = os.path.join(bdir, "run")
    os.makedirs(workdir, exist_ok=True)
    # Unix socket paths are short: hand the workloads a relative work dir.
    workdir = os.path.relpath(workdir, ROOT)

    # The traced run and --workload all run every workload, in a fixed
    # order, one process each; the traced run ignores --workload.
    names = WORKLOADS if a.trace or a.workload == "all" else (a.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * (1 if a.trace else len(names))
    results = {}
    code = 0
    for w in names:
        r, c = run_workload(binary, workdir, w, a.seed, a.seconds, a.trace,
                            deadline)
        if not a.trace:
            check_names(r, False)
        results[w] = r
        code = max(code, c)
    result = results[names[0]] if len(names) == 1 else merge(results, a.trace)
    if a.trace:
        check_names(result, True)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
