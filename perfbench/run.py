#!/usr/bin/env python3
"""Builds and runs the phylomic end-to-end benchmark.

Run from the root of a phylomic checkout:

    python3 perfbench/run.py --workload uniform-24x20k --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (release profile, offline; the build
directory is $CARGO_TARGET_DIR, default `.bench_build`) against the
checkout's own `crates/`, then runs it with the same arguments. Build
output goes to stderr; stdout carries the run's configuration record
and, as its last line, the result JSON. Exits non-zero, printing no
result, when the sources are missing, the build fails or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A single run measures for --seconds and must end well within three
# minutes; the build of a fresh checkout is allowed longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, **kw):
    """Runs `cmd` to completion; on timeout kills it and waits for it."""
    with subprocess.Popen(cmd, cwd=ROOT, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"{cmd[0]} did not finish within {timeout} s")
        return proc.returncode, out


def build():
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the root of a full phylomic checkout")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    code, _ = run_child(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail(f"cargo build failed with exit code {code}")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def main():
    binary = build()
    code, out = run_child([binary] + sys.argv[1:], RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {code}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} differ from {sorted(RESULT_KEYS)}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
