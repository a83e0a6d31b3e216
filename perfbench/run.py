#!/usr/bin/env python3
"""dgiwarp benchmark runner.

    python3 perfbench/run.py --workload <stream|rd_lossy|sip_fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark binary (perfbench/ is
its own CMake project over ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; build output goes to stderr.

Each pass of a workload runs in its own process. Passes repeat until
--seconds have elapsed (at least MIN_PASSES). Every pass of one seed must
produce identical deterministic outputs -- events, allocation counts,
virtual-time metrics, registry counters and a digest of the registry JSON;
otherwise the run fails and names the first output that differs.

--trace 0 reports the end-to-end metrics: wall-clock figures are medians
over the passes, virtual-time figures come from the (identical) passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics; traced passes must reproduce every virtual-time output of the
untraced ones, and trace.overhead_frac compares their run_s medians.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Exit status is 0 when
every output check holds, 1 when one fails (the JSON then has correct
false), 2 when the benchmark cannot run at all.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream", "rd_lossy", "sip_fleet")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    bdir = os.path.join(base, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--parallel", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")
    exe = os.path.join(bdir, "dgibench")
    if not os.path.isfile(exe):
        die(f"build produced no {exe}")
    return exe


def run_pass(exe, workload, seed, traced):
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} pass timed out after {PASS_TIMEOUT_S} s", 1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 3) or not lines:
        die(f"{' '.join(cmd)} exited {r.returncode}", 1)
    try:
        return json.loads(lines[-1])
    except ValueError:
        die(f"{' '.join(cmd)} printed no JSON result", 1)


def first_difference(a, b, groups):
    """Name of the first output that differs between passes a and b."""
    tops = ["ops", "failed"] + (["registry_fnv"] if "repro" in groups else [])
    for top in tops:
        if a[top] != b[top]:
            return top, a[top], b[top]
    for g in groups:
        for k in sorted(set(a[g]) | set(b[g])):
            if a[g].get(k) != b[g].get(k):
                return k, a[g].get(k), b[g].get(k)
    return None


def check_same(ref, passes, groups, what):
    for i, p in enumerate(passes):
        d = first_difference(ref, p, groups)
        if d:
            return (f"determinism divergence ({what}, pass {i + 1}): "
                    f"{d[0]} = {d[1]!r} vs {d[2]!r}")
    return None


def repeat(seconds, step):
    """Call step() until `seconds` have elapsed and MIN_PASSES were run."""
    t0 = time.monotonic()
    n = 0
    while n < MIN_PASSES or time.monotonic() - t0 < seconds:
        step()
        n += 1


def median_of(passes, group, key):
    return statistics.median(p[group].get(key, 0.0) for p in passes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be a non-negative integer")

    spec = load_spec()
    exe = build()

    untraced, traced = [], []
    if args.trace:
        def step():
            untraced.append(run_pass(exe, args.workload, args.seed, False))
            traced.append(run_pass(exe, args.workload, args.seed, True))
    else:
        def step():
            untraced.append(run_pass(exe, args.workload, args.seed, False))
    repeat(args.seconds, step)

    ref = untraced[0]
    errors = [e for p in untraced + traced for e in p["errors"]]
    divergence = (check_same(ref, untraced, ("det", "repro"), "untraced")
                  or check_same(ref, traced, ("det",), "traced vs untraced"))
    if divergence:
        errors.insert(0, divergence)

    run_s = median_of(untraced, "wall", "run_s")
    if args.trace:
        names = spec["per_layer"]
        traced_run_s = median_of(traced, "wall", "run_s")
        derived = {
            "simnet.events_per_s": ref["det"]["simnet.events"] / run_s,
            "trace.overhead_frac": traced_run_s / run_s - 1.0,
        }

        def value(name):
            if name in derived:
                return derived[name]
            if name in traced[0]["traced"]:
                return median_of(traced, "traced", name)
            for group in ("det", "repro"):
                if name in ref[group]:
                    return ref[group][name]
            return 0.0  # a layer this workload does not exercise
    else:
        names = spec["end_to_end"]

        def value(name):
            if name in ref["wall"]:
                return median_of(untraced, "wall", name)
            return ref["det"][name]

    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
               for m in names}

    passes = untraced + traced
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} "
          f"untraced and {len(traced)} traced passes, each in its own "
          "process; all traffic simulated in-process")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  op latency samples per pass: "
          f"{ref['det']['op_latency_samples']:.0f}")
    print(f"  ops failed: {failed} of {attempted} attempted "
          f"(ops_failed_frac {failed / max(attempted, 1):.6g})")
    for e in errors[:20]:
        print(f"  CHECK FAILED: {e}")

    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
