#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout.  Configures and builds perfbench/ (which
builds the library from src/) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the `aabench` binary with the
same arguments.  The last line of standard output is the binary's JSON
result.  Build output goes to standard error.  Exits non-zero when the
build fails or a correctness check fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    src = os.path.join(ROOT, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "aabench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "aabench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
