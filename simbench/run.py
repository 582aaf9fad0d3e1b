#!/usr/bin/env python3
"""Build and run one workload of the simulator benchmark.

    python3 simbench/run.py --workload <paper-grid|serve-hot|autotune-fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(simbench/Cargo.toml); it is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build) and the workload runs in a fresh process. Its last
stdout line is the JSON result. Environment variables that would select
the simulator's engine, thread count, pass pipeline or fault plan are
cleared: the benchmark sets all four itself.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = ("SIM_THREADS", "SIM_EXEC", "SIM_PASSES", "FAULT_SEED")
WORKLOADS = ("paper-grid", "serve-hot", "autotune-fleet")
BUILD_TIMEOUT_S = 850
# A run has 180 s; paper-grid, whose rounds take seconds, stops starting
# rounds at PHASE_CAP_S (src/main.rs) so that a slow program stays inside.
RUN_TIMEOUT_S = 170


def clean_env():
    env = {k: v for k, v in os.environ.items() if k not in PINNED}
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return env


def build(env):
    """Build the benchmark binary; return its path or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "simbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    env = clean_env()
    binary = build(env)
    if binary is None:
        return 1
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
           "--out", os.path.join(ROOT, ".simbench")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"run.py: {a.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
