#!/usr/bin/env sh
# CI gate: build, test, lint, then re-run the whole test suite with the
# parallel front-end enabled (CANARY_TEST_THREADS overrides the default
# worker count) — the determinism guarantee means both passes must see
# byte-identical analysis output.
set -eux

cargo build --release --offline
cargo test -q --workspace --offline
cargo clippy --workspace --offline -- -D warnings
# The benchmark harness (perfbench/, a package of its own that builds
# against the workspace crates by path) must keep building, so an API
# change that breaks it fails here. Its lock file is committed with the
# benchmark; cargo rewrites it when a workspace crate's dependency set
# changes, so the committed copy is put back after the build.
cp perfbench/Cargo.lock target/perfbench.Cargo.lock
rc=0
cargo build --release --offline --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench || rc=$?
cp target/perfbench.Cargo.lock perfbench/Cargo.lock
[ "$rc" -eq 0 ]
# Differential oracle suite over its fixed 16-seed corpus, serially and
# with the parallel front-end, so witness replay sees both configurations.
cargo test -q --offline --test oracle_differential
CANARY_TEST_THREADS=2 cargo test -q --offline --test oracle_differential
CANARY_TEST_THREADS=2 cargo test -q --workspace --offline
# Memory-model differential gates: the store-buffer oracle must
# certify every finding on the litmus corpus under all three models
# (the suite sweeps sc/tso/pso internally), serially and with the
# parallel front-end; the detector-level model tests ride along.
cargo test -q --offline --test memory_model_differential
CANARY_TEST_THREADS=2 cargo test -q --offline --test memory_model_differential
cargo test -q --offline --test memory_models
# Store-buffering litmus smoke: the Dekker-style double free replays
# on the store-buffer machine under tso/pso but has no SC witness, so
# --verify-witnesses separates the models at the CLI level.
./target/release/canary examples/tso_sb.cir --checkers doublefree \
    --memory-model sc --verify-witnesses > /tmp/canary_sb_sc.out || [ $? -eq 1 ]
grep -q 'witness verification: 0/1' /tmp/canary_sb_sc.out
for model in tso pso; do
    ./target/release/canary examples/tso_sb.cir --checkers doublefree \
        --memory-model "$model" --verify-witnesses \
        > "/tmp/canary_sb_$model.out" || [ $? -eq 1 ]
    grep -q 'witness verification: 1/1' "/tmp/canary_sb_$model.out"
done
# Fn-pointer chain smoke: the fork target only resolves after five
# rounds of fn-pointer propagation, so a Steensgaard pass with a round
# cap misses this use-after-free and exits 0. Exit 1 is required.
rc=0
./target/release/canary examples/fnptr_chain.cir > /tmp/canary_fnptr_chain.out || rc=$?
[ "$rc" -eq 1 ]
grep -q 'use-after-free (concurrent): free x in `main` reaches use y in `worker`' \
    /tmp/canary_fnptr_chain.out
# Trace smoke: the profiler must emit a parseable Chrome trace covering
# every pipeline step plus at least one per-SMT-query span, and the trace
# must stay byte-deterministic across worker counts (timing normalized).
./target/release/canary examples/fig2_variant.cir --stats \
    --trace-out /tmp/canary_trace.json || [ $? -eq 1 ]  # exit 1 = bug reported
# Validate the trace as real JSON when python3 is available; the grep
# fallback is only for environments without python3 (previously the
# `2>/dev/null ||` chain silently masked malformed JSON).
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json; json.load(open("/tmp/canary_trace.json"))'
else
    grep -q '"traceEvents"' /tmp/canary_trace.json
fi
for span in '"callgraph"' '"threads"' '"alg1"' '"mhp"' '"alg2"' '"detect"' 'smt.query:'; do
    grep -q "$span" /tmp/canary_trace.json
done
cargo test -q --offline --test trace
CANARY_TEST_THREADS=2 cargo test -q --offline --test trace
# Solver-strategy equivalence: the incremental query-family back-end
# must agree with the fresh baseline (reports, verdicts, cores), also
# with the parallel front-end.
cargo test -q --offline --test solver_strategy_equivalence
CANARY_TEST_THREADS=2 cargo test -q --offline --test solver_strategy_equivalence
# Report observability gates: the SARIF export must validate against
# the (vendored, minimal) 2.1.0 schema. Prefer a real jsonschema
# validation, fall back to a structural python3 check, then to grep.
./target/release/canary examples/fig2_variant.cir --format sarif \
    > /tmp/canary_fig2.sarif || [ $? -eq 1 ]  # exit 1 = bug reported
if python3 -c 'import jsonschema' 2>/dev/null; then
    python3 -c '
import json, jsonschema
doc = json.load(open("/tmp/canary_fig2.sarif"))
schema = json.load(open("docs/sarif-2.1.0-minimal.schema.json"))
jsonschema.validate(doc, schema)'
elif command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json
doc = json.load(open("/tmp/canary_fig2.sarif"))
assert doc["version"] == "2.1.0"
run = doc["runs"][0]
assert run["tool"]["driver"]["name"] == "canary"
res = run["results"][0]
assert res["message"]["text"]
assert res["partialFingerprints"]["canary/v1"]
assert res["codeFlows"][0]["threadFlows"][0]["locations"]'
else
    grep -q '"version": "2.1.0"' /tmp/canary_fig2.sarif
    grep -q '"threadFlows"' /tmp/canary_fig2.sarif
    grep -q '"partialFingerprints"' /tmp/canary_fig2.sarif
fi
# Two-run baseline smoke: an unchanged corpus must classify every
# finding as persisting (zero new), so the baseline gate exits 0 even
# though the run has findings; `canary diff` of a run against itself
# agrees.
./target/release/canary examples/fig2_variant.cir \
    --baseline /tmp/canary_fig2.sarif > /dev/null
./target/release/canary diff /tmp/canary_fig2.sarif /tmp/canary_fig2.sarif \
    | grep -q '0 new, 0 fixed'
# Determinism of every report artifact across worker counts and solver
# strategies (SARIF, provenance DAG, diff), plus dedup + baseline
# classification regressions.
cargo test -q --offline --test report_determinism
CANARY_TEST_THREADS=2 cargo test -q --offline --test report_determinism
# Lock-discipline gates: the checker matrix (double-lock +
# conflict-lock buggy/safe pairs and seeded corpora), the lock-order
# brute-force differential, and the lock-sharpened-MHP soundness
# envelope — serially and with the parallel front-end.
cargo test -q --offline --test checker_matrix
CANARY_TEST_THREADS=2 cargo test -q --offline --test checker_matrix
cargo test -q -p canary-smt --offline --test lock_order_brute
cargo test -q --offline --test lock_sharpen_equivalence
CANARY_TEST_THREADS=2 cargo test -q --offline --test lock_sharpen_equivalence
# Deadlock example smoke: both lock checkers fire (exit 1) and the
# SARIF export validates like the Fig. 2 document above.
./target/release/canary examples/deadlock.cir --format sarif \
    > /tmp/canary_deadlock.sarif || [ $? -eq 1 ]  # exit 1 = bug reported
if python3 -c 'import jsonschema' 2>/dev/null; then
    python3 -c '
import json, jsonschema
doc = json.load(open("/tmp/canary_deadlock.sarif"))
schema = json.load(open("docs/sarif-2.1.0-minimal.schema.json"))
jsonschema.validate(doc, schema)
rules = [r["ruleId"] for r in doc["runs"][0]["results"]]
assert "canary/double-lock" in rules, rules
assert "canary/conflict-lock" in rules, rules'
elif command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json
doc = json.load(open("/tmp/canary_deadlock.sarif"))
assert doc["version"] == "2.1.0"
run = doc["runs"][0]
rules = [r["ruleId"] for r in run["results"]]
assert "canary/double-lock" in rules, rules
assert "canary/conflict-lock" in rules, rules
for r in run["results"]:
    assert run["tool"]["driver"]["rules"][r["ruleIndex"]]["id"] == r["ruleId"]'
else
    grep -q '"canary/double-lock"' /tmp/canary_deadlock.sarif
    grep -q '"canary/conflict-lock"' /tmp/canary_deadlock.sarif
fi
# Store-buffer litmus SARIF smoke: the tso run of the SB example must
# validate against the schema, report the double free, and record the
# memory model in the run manifest.
./target/release/canary examples/tso_sb.cir --memory-model tso --format sarif \
    > /tmp/canary_tso_sb.sarif || [ $? -eq 1 ]  # exit 1 = bug reported
if python3 -c 'import jsonschema' 2>/dev/null; then
    python3 -c '
import json, jsonschema
doc = json.load(open("/tmp/canary_tso_sb.sarif"))
schema = json.load(open("docs/sarif-2.1.0-minimal.schema.json"))
jsonschema.validate(doc, schema)
run = doc["runs"][0]
rules = [r["ruleId"] for r in run["results"]]
assert "canary/double-free" in rules, rules
assert run["invocations"][0]["properties"]["config"]["memory_model"] == "tso"'
elif command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json
doc = json.load(open("/tmp/canary_tso_sb.sarif"))
assert doc["version"] == "2.1.0"
run = doc["runs"][0]
rules = [r["ruleId"] for r in run["results"]]
assert "canary/double-free" in rules, rules
assert run["invocations"][0]["properties"]["config"]["memory_model"] == "tso"'
else
    grep -q '"canary/double-free"' /tmp/canary_tso_sb.sarif
    grep -q '"memory_model": "tso"' /tmp/canary_tso_sb.sarif
fi
# Run-health telemetry gates: OpenMetrics export smoke, --log flag
# smoke, and the `canary bench diff` regression gate — a fresh
# artifact must self-diff clean and a perturbed copy must fail, so
# the gate itself is gated.
./target/release/canary examples/fig2_variant.cir --log off \
    --metrics-out /tmp/canary_fig2.om > /dev/null || [ $? -eq 1 ]  # exit 1 = bug reported
tail -c 6 /tmp/canary_fig2.om | grep -q '# EOF'
grep -q '^canary_detect_queries_total 1$' /tmp/canary_fig2.om
grep -q '^canary_smt_query_seconds_bucket{kind="use-after-free",le="+Inf"} 1$' /tmp/canary_fig2.om
grep -q '^canary_term_table_bytes ' /tmp/canary_fig2.om
grep -q '^canary_phase_peak_rss_bytes{phase="detect"} ' /tmp/canary_fig2.om
# --log summary heartbeats reach stderr only: stdout matches a quiet run.
./target/release/canary examples/fig2.cir --log summary \
    > /tmp/canary_log.out 2> /tmp/canary_log.err
grep -q 'canary: alg1: level' /tmp/canary_log.err
grep -q '(converged)' /tmp/canary_log.err
./target/release/canary examples/fig2.cir > /tmp/canary_quiet.out
cmp /tmp/canary_log.out /tmp/canary_quiet.out
# The committed bench artifact self-diffs clean (exit 0, no regressions).
./target/release/canary bench diff BENCH_8.json BENCH_8.json > /tmp/canary_bench_self.out
grep -q '0 regressed' /tmp/canary_bench_self.out
# A +25% aggregate-time perturbation must gate exit 1 and name the metric.
if command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json
d = json.load(open("BENCH_8.json"))
d["aggregate"]["telemetry_on_total_s"] *= 1.25
json.dump(d, open("/tmp/canary_bench_slow.json", "w"))'
    base=BENCH_8.json
else
    printf '{"aggregate": {"telemetry_on_total_s": 0.100}}' > /tmp/canary_bench_base.json
    printf '{"aggregate": {"telemetry_on_total_s": 0.125}}' > /tmp/canary_bench_slow.json
    base=/tmp/canary_bench_base.json
fi
rc=0
./target/release/canary bench diff "$base" /tmp/canary_bench_slow.json \
    > /tmp/canary_bench_diff.out || rc=$?
[ "$rc" -eq 1 ]
grep -q 'REGRESSED' /tmp/canary_bench_diff.out
# Shard/thread equivalence of the query-family dispatcher, serially and
# with the parallel front-end.
cargo test -q --offline --test shard_equivalence
CANARY_TEST_THREADS=2 cargo test -q --offline --test shard_equivalence
# Analysis-audit gates (PR-10): the suppression-accounting suite
# (reconciliation invariant + knob-invariant JSONL export + per-layer
# certificates), serially and with the parallel front-end.
cargo test -q --offline --test audit_reconciliation
CANARY_TEST_THREADS=2 cargo test -q --offline --test audit_reconciliation
# The --audit-out export on the three-certificate example must carry
# one record per line that validates against the vendored mini-schema
# (same three-tier fallback as the SARIF gate), and --stats must print
# a reconciled audit line.
./target/release/canary examples/audited.cir --stats \
    --audit-out /tmp/canary_audited.jsonl > /tmp/canary_audited.out
grep -q '^audit: ' /tmp/canary_audited.out
! grep -q 'RECONCILIATION FAILED' /tmp/canary_audited.out
if python3 -c 'import jsonschema' 2>/dev/null; then
    python3 -c '
import json, jsonschema
schema = json.load(open("docs/audit-minimal.schema.json"))
lines = [l for l in open("/tmp/canary_audited.jsonl") if l.strip()]
assert lines, "empty audit export"
tags = set()
for i, line in enumerate(lines):
    rec = json.loads(line)
    jsonschema.validate(rec, schema)
    assert rec["seq"] == i, (rec["seq"], i)
    tags.add(rec["disposition"])
assert {"pruned_mhp", "pruned_lock_sharpen", "unsat_core"} <= tags, tags'
elif command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json
lines = [l for l in open("/tmp/canary_audited.jsonl") if l.strip()]
assert lines, "empty audit export"
tags = set()
for i, line in enumerate(lines):
    rec = json.loads(line)
    assert rec["seq"] == i, (rec["seq"], i)
    assert rec["layer"] in ("interference", "detect"), rec
    assert isinstance(rec["certificate"], dict), rec
    tags.add(rec["disposition"])
assert {"pruned_mhp", "pruned_lock_sharpen", "unsat_core"} <= tags, tags'
else
    grep -q '"disposition":"pruned_mhp"' /tmp/canary_audited.jsonl
    grep -q '"disposition":"pruned_lock_sharpen"' /tmp/canary_audited.jsonl
    grep -q '"disposition":"unsat_core"' /tmp/canary_audited.jsonl
fi
# why-not smoke: the reported fig2_variant pair answers "reported",
# each suppressed audited.cir pair prints its layer's certificate, and
# a never-enumerated pair exits 1.
./target/release/canary why-not examples/fig2_variant.cir l7 l4 \
    | grep -q 'reported: confirmed finding'
./target/release/canary why-not examples/audited.cir l24 l11 \
    | grep -q 'pruned by MHP analysis'
./target/release/canary why-not examples/audited.cir l15 l22 \
    | grep -q 'pruned by lock-sharpened MHP'
./target/release/canary why-not examples/audited.cir l3 l19 \
    | grep -q 'refuted by the solver'
rc=0
./target/release/canary why-not examples/audited.cir l1 l2 \
    > /tmp/canary_whynot_none.out || rc=$?
[ "$rc" -eq 1 ]
grep -q 'never enumerated' /tmp/canary_whynot_none.out
# why smoke: the fig2_variant fingerprint round-trips from the SARIF
# export back into an explanation.
fp=$(grep -o '"canary/v1": "[0-9a-f]*"' /tmp/canary_fig2.sarif \
    | head -1 | cut -d'"' -f4)
./target/release/canary why examples/fig2_variant.cir "$fp" \
    | grep -q 'reported: confirmed finding'
