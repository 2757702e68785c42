#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-campaign --seed 2 --seconds 30 --trace 0

The benchmark crate is built in release mode into $CARGO_TARGET_DIR
(default `.bench_build` in the current directory); build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. With `--trace 1` the traced run's spans are written to
`<target dir>/perfbench-trace-<workload>-<seed>.tsv`. The exit code is
the build's when the build fails, otherwise the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for at most --seconds plus its minimum unit count; this
# only stops a wedged run so the script still exits in bounded time.
RUN_TIMEOUT_S = 170


def flag(argv, name):
    """The value after `name` in argv, or None."""
    for i, arg in enumerate(argv[:-1]):
        if arg == name:
            return argv[i + 1]
    return None


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target
    # Keep cargo's own cache and lock files inside the checkout too.
    env["CARGO_HOME"] = os.path.join(target, "cargo-home")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    args = [os.path.join(target, "release", "filterwatch-perfbench"), *argv]
    if flag(argv, "--trace") == "1" and flag(argv, "--trace-out") is None:
        name = "perfbench-trace-{}-{}.tsv".format(flag(argv, "--workload"), flag(argv, "--seed"))
        args += ["--trace-out", os.path.join(target, name)]
    try:
        return subprocess.run(args, env=env, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded {} s".format(RUN_TIMEOUT_S), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
