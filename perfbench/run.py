#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Arguments are passed on to the harness (see src/main.rs). The harness is
built with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build`). Variables named `CANARY_*` are removed from the
harness's environment, because some change the analyzer's defaults.
The harness's standard output is passed through; its last line is the
JSON result. Exits non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = {k: v for k, v in os.environ.items() if not k.startswith("CANARY_")}
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        ran = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
