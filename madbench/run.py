#!/usr/bin/env python3
"""Build and run madbench from the root of a checkout.

    python3 madbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `madbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it. With `--trace 0` the workload is
first run once in a separate process whose peak resident set becomes
`peak_rss_mb`, so one workload's peak never includes another's. The last
line of standard output is the benchmark's JSON result; build output goes
to standard error. Exits non-zero, printing no result, when the engine
sources are missing or the build or run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code):
    print(f"madbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("engine sources (crates/) not found next to madbench/", 2)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed", 3)
    binary = os.path.join(ROOT, target, "release", "madbench")

    extra = []
    trace = args[args.index("--trace") + 1] if "--trace" in args else "0"
    if trace == "0":
        child = subprocess.Popen([binary, *args, "--rss"], cwd=ROOT,
                                 stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            fail("workload run for peak RSS failed", 4)
        # ru_maxrss is in KiB on Linux.
        extra = ["--peak-rss-mb", repr(usage.ru_maxrss / 1024.0)]

    run = subprocess.run([binary, *args, *extra], cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
