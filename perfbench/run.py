#!/usr/bin/env python3
"""relpipe's service benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 30 --trace 0

Run from the repository root.  Builds perfbench/relbench.exe and the
relpipe CLI from source with dune (build directory .bench_build), runs the
workload and passes its output through: summaries on standard error, the
result JSON object as the last line of standard output.  Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["./perfbench/relbench.exe", "./bin/relpipe_cli.exe"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def run_group(cmd, timeout, env=None, stdout=None):
    """Run cmd in its own process group; on timeout kill the whole group
    (the benchmark's spawned daemons included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot-zipf", "cold-distinct", "serve-open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        rc, _ = run_group(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release"] + TARGETS,
            BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if rc != 0:
        print(f"run.py: build failed with exit code {rc}", file=sys.stderr)
        return 1

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "relbench.exe")
    relpipe = os.path.join(BUILD_DIR, "default", "bin", "relpipe_cli.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--relpipe", relpipe]
    try:
        rc, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark run failed: {e}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        print(f"run.py: benchmark exited with code {rc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
