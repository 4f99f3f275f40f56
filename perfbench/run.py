#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`), offline; its output goes to stderr so the
last line of standard output stays the benchmark's JSON result. Every
other argument is passed to the benchmark binary (see README.md). The
exit code is the binary's, or 1 when the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cmd, **kwargs):
    """Runs `cmd` to completion; the child never outlives this process."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    # Turn SIGTERM into SystemExit so `run` reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    if run(build, env=env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "ghostwriter-perfbench")
    cmd = [
        binary,
        "--expected-dir",
        os.path.join(HERE, "expected"),
        "--out-dir",
        os.path.join(HERE, "out"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    return run(cmd, env=env)


if __name__ == "__main__":
    sys.exit(main())
