#!/usr/bin/env python3
"""Self-test of the benchmark at reduced scale.

Run from the root of the repository:

    python3 perfbench/selftest.py

It runs the harness's unit tests, then every workload of BENCHMARK.json
with `--quick` (small inputs) under `--trace 0` and `--trace 1`, and
checks that:

  * the last line of output is the result object with exactly the keys
    `correct`, `attempted`, `failed` and `metrics`;
  * every metric named in BENCHMARK.json is present, with its unit;
  * every check passes (`failed` is 0, so `failed_share` is 0);
  * one deliberately wrong expected verdict (`--wrong-verdict`) makes
    the run fail, which shows the correctness gate can fail.

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace), "--quick", *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                    "--manifest-path", os.path.join(HERE, "Cargo.toml")], env=env, check=True)
    problems = []
    for w in bench["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = result["metrics"]
            names = {m["name"] for m in wanted}
            if set(got) != names:
                problems.append(f"{where}: metrics {sorted(set(got) ^ names)} missing or extra")
            for m in wanted:
                value = got.get(m["name"], {})
                if value.get("unit") != m["unit"] or not isinstance(value.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} is {value}, want unit {m['unit']}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: failed_share {result['failed']}/{result['attempted']}")
            print(f"ok {where}: {result['attempted']} checks, failed_share 0", flush=True)
        wrong = run(w["name"], 0, "--wrong-verdict")
        if wrong["correct"] or wrong["failed"] == 0:
            problems.append(f"{w['name']}: a wrong expected verdict did not fail the gate")
        else:
            print(f"ok {w['name']} --wrong-verdict: failed_share "
                  f"{wrong['failed']}/{wrong['attempted']} > 0", flush=True)
    for p in problems:
        print(f"FAILED {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
