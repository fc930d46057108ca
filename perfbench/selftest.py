#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks.

Each case corrupts one of the benchmark's own models or totals (the binary's
--inject option) and expects the run to report "correct": false, name the
failed check and exit non-zero; a clean run of the same workload must pass.

Usage (from the repository root):  python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# (workload, injected fault, text the failed check prints)
CASES = (
    ("pfs-online", "flip-byte", "first wrong byte"),
    ("burst-nvram", "ns-size", "namespace model"),
    ("burst-nvram", "byte-chain", "byte accounting"),
    ("burst-nvram", "early-done", "completed before it was due"),
)


def run(workload, inject=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    failures = 0
    for workload in sorted({c[0] for c in CASES}):
        code, result, err = run(workload)
        ok = code == 0 and result is not None and result["correct"]
        print(f"{'ok  ' if ok else 'FAIL'} clean {workload} passes its checks")
        if not ok:
            print(err[-2000:])
            failures += 1
    for workload, inject, expect in CASES:
        code, result, err = run(workload, inject)
        ok = code != 0 and result is not None and not result["correct"] and expect in err
        print(f"{'ok  ' if ok else 'FAIL'} {inject} on {workload} is caught ({expect!r})")
        if not ok:
            print(err[-2000:])
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
