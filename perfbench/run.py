#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench/Cargo.toml` in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build` at the checkout root), then runs the binary
from the checkout root with the same arguments. The binary's standard
output passes through unchanged; its last line is the JSON result.
Build output goes to standard error. Exits non-zero, printing no
result, if the build or the run fails or overruns its time limit.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run `cmd` to completion; on timeout kill it and wait for it."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
            return 124


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    code = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code or 1
    exe = os.path.join(target, "release", "perfbench")
    return run([exe] + sys.argv[1:], RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
