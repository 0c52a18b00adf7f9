#!/usr/bin/env python3
"""Builds the kf_serve node and the kfbench binary, then runs the binary.

Run from the repository root:

    python3 kfbench/run.py --workload summarize_batch --seed 1 --seconds 30 --trace 0
    python3 kfbench/run.py --workload doc_qa_shared --seed 1 --seconds 30 --trace 1
    python3 kfbench/run.py --workload chat_stream --seed 1 --seconds 16 --sweep 2,4,6,8

Build output goes to $CARGO_TARGET_DIR (default .bench_build); the binary's
last line of standard output is the JSON result. Exits non-zero when the
build fails or any output is wrong.
"""
import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "kf_serve", "Cargo.toml")):
        print("kfbench: run from the repository root (crates/kf_serve not found)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The node: the repository's own kf_serve binary.
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "kf-serve", "--bin", "kf_serve"],
        # The benchmark binary: this directory's package.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("kfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("kfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    bench = os.path.join(target, "release", "kfbench")
    node = os.path.join(target, "release", "kf_serve")
    cmd = [bench, *sys.argv[1:], "--node-bin", node, "--out-dir", os.path.join(target, "kfbench")]
    # The benchmark and the nodes it boots run in their own process group, which
    # is killed on the way out: a node outlives nothing, even when this script
    # is interrupted or terminated.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
