#!/usr/bin/env sh
# Benchmark driver for the repo's tracked bench artifacts.
#
# bench4 — fresh vs incremental query-family solving: runs the fixed
# corpus (shipped examples, generated workloads, and the query-family
# subjects) under both solver strategies, asserts report identity,
# checks the acceptance gate (detect-phase wall >= 1.5x faster OR
# >= 30% fewer CDCL conflicts+decisions), and writes BENCH_4.json.
#
# bench8 — run-health telemetry overhead: runs the same corpus with
# telemetry off and on (registry + OpenMetrics export), checks the
# <= 3% overhead gate, and writes BENCH_8.json. The self-diff then
# exercises `canary bench diff` as the CI regression gate it is.
#
# Knobs: CANARY_BENCH_REPS (wall samples per configuration; bench4
# default 3, bench8 default 5), CANARY_BENCH_STMTS
# (subject size scale, default 1.0).
set -eu
cd "$(dirname "$0")"
cargo run --release --offline -p canary-bench --bin bench4 -- "${1:-BENCH_4.json}"
cargo run --release --offline -p canary-bench --bin bench8 -- "${2:-BENCH_8.json}"
# A fresh artifact must diff clean against itself — the gate CI runs
# against the committed baseline on every PR.
cargo run --release --offline --bin canary -- bench diff "${2:-BENCH_8.json}" "${2:-BENCH_8.json}" >/dev/null
echo "bench diff self-check: OK"
