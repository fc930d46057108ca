#!/usr/bin/env python3
"""End-to-end benchmark of the cut-and-paste file-system stack.

Builds the benchmark binary from source (perfbench/CMakeLists.txt) on first
use, runs one workload, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the run records spans and times client calls, and the metrics
are the per-layer ones. --layers runs the workload three times untraced and
three times traced, alternating, and prints every per-layer metric with the
tracing overhead: the traced median of each end-to-end metric against the
untraced one.

Usage (from the repository root):
    python3 perfbench/run.py --workload sprite-writedelay --seed 1 --seconds 10 --trace 0
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sprite-writedelay", "burst-nvram", "pfs-online")
# How long the binary may run beyond the measured seconds before it is
# killed: set-up, the post-run checks and the restart of pfs-online.
GRACE_SECONDS = 150
# --layers: untraced/traced run pairs behind the tracing-overhead medians.
LAYER_PAIRS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def source_stamp():
    """A digest of every source file's path, size and mtime."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    st = os.stat(path)
                    digest.update(f"{path}:{st.st_size}:{st.st_mtime_ns}\n".encode())
    return digest.hexdigest()


def ensure_binary():
    """Builds the benchmark binary unless a build of the same sources exists."""
    out = build_dir()
    binary = os.path.join(out, "pfs_perfbench")
    stamp_path = os.path.join(out, "sources.stamp")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no program sources (src/) next to the benchmark")
        return None
    stamp = source_stamp()
    if os.path.exists(binary) and os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return binary
    steps = (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4", "--target", "pfs_perfbench"],
    )
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return binary


def run_binary(binary, workload, seed, seconds, trace, inject=None):
    """Runs one workload; returns the binary's result object or None.

    The binary measures set-up time itself, from its own start, so neither
    this script nor a rebuild counts in it."""
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", workdir]
    if inject:
        cmd += ["--inject", inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=seconds + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {seconds + GRACE_SECONDS} s")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: {workload} printed no result (exit code {proc.returncode})")
        return None
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", False):
        log(f"perfbench: {workload} exited with code {proc.returncode}")
        return None
    return result


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def select(result, specs):
    """The result object restricted to `specs`, in their order and units."""
    metrics = {}
    for spec in specs:
        m = result["metrics"].get(spec["name"])
        if m is None:
            raise KeyError(f"the run did not report metric {spec['name']}")
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true",
                        help="run untraced and traced, alternating; print every per-layer "
                             "metric and the tracing overhead")
    parser.add_argument("--inject", help=argparse.SUPPRESS)  # self-tests only
    args = parser.parse_args()

    e2e, per_layer = metric_specs()
    binary = ensure_binary()
    if binary is None:
        return 1

    if args.layers:
        # Alternate untraced and traced runs; the overhead compares medians.
        plain, traced = [], []
        for _ in range(LAYER_PAIRS):
            for runs, trace in ((plain, False), (traced, True)):
                runs.append(run_binary(binary, args.workload, args.seed, args.seconds, trace))
                if runs[-1] is None:
                    return 1
        for spec in per_layer:
            m = traced[0]["metrics"][spec["name"]]
            print(f"{spec['name']:34s} {m['value']:>16.6g} {spec['unit']}")
        for spec in e2e:
            a = statistics.median(r["metrics"][spec["name"]]["value"] for r in plain)
            b = statistics.median(r["metrics"][spec["name"]]["value"] for r in traced)
            change = (b - a) / a * 100 if a else 0.0
            print(f"tracing overhead on {spec['name']:28s} untraced {a:>12.6g}  "
                  f"traced {b:>12.6g}  {change:+.1f}%")
        result = select(traced[0], per_layer)
        result["correct"] = all(r["correct"] for r in plain + traced)
    else:
        raw = run_binary(binary, args.workload, args.seed, args.seconds, args.trace == 1,
                         args.inject)
        if raw is None:
            return 1
        for err in raw.get("errors", []):
            log("perfbench: check failed: " + err)
        result = select(raw, per_layer if args.trace else e2e)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
