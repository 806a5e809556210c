#!/usr/bin/env python3
"""Build and run one chronusd benchmark run.

    python3 perfbench/run.py --workload churn|fig10_64|fig10_512 \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `chronusd` (repository workspace)
and the load generator (the `perfbench` package) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the load
generator, which starts the daemon, drives it and prints the result as
its last line. Exits non-zero, without a result line, when the build
or the run fails or the run exceeds its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_run")
# Wall-clock limit for one run after the build (the contract allows 180 s).
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, only in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "chronus-daemon", "--bin", "chronusd"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        if not os.path.isfile(manifest):
            fail(f"missing {manifest}")
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest] + only
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    build(target)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "chronus-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--chronusd", os.path.join(release, "chronusd"),
        "--state-dir", os.path.relpath(STATE, ROOT),
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
    ]
    # Own process group, so a timeout takes the daemon down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(STATE, ignore_errors=True)
        fail(f"run exceeded {RUN_LIMIT_S} s; killed")
    shutil.rmtree(STATE, ignore_errors=True)
    if proc.returncode != 0 or not out.rstrip().rsplit("\n", 1)[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"load generator exited with {proc.returncode} and no result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
