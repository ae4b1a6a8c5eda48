#!/usr/bin/env bash
# The full local CI gate. Run from anywhere; exits nonzero on the first
# failure. Mirrors what a PR must pass:
#
#   1. release build of the whole workspace
#   2. the full test suite (unit, integration, differential, fuzz)
#   3. the in-tree repo lint (unsafe/mmap/opcode containment, signal
#      safety, unwrap policy)
#   4. translation validation end-to-end + mutation detection over the
#      PolyBench kernels, the SPEC proxies and synthetic modules
#   5. elision-regression gate: no PolyBench kernel's or SPEC proxy's
#      static elision ratio may fall below its recorded floor
#      (scripts/elision_floors.tsv)
#   6. profiler smoke: one kernel sampled at 997 Hz, the chrome trace
#      must re-parse and the attribution percentages must sum to ~100
#   7. serving smoke: a short closed-loop serve_bench run; every admitted
#      request must resolve exactly once and the latency histogram must
#      be populated
#   8. plan identity at Small scale: every workload module's analysis plan,
#      under both configurations (interprocedural on and off), must match
#      its recorded digest (crates/analysis/tests/plan_digests.tsv); the
#      Mini digests are already checked by step 2
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

run cargo build --release --workspace
run cargo test -q --workspace
run cargo test -q -p lb-analysis --test repo_lint
run cargo test -q --test verify_e2e
run cargo test -q --test verify_mutation
run cargo run --release -p lb-bench --bin analysis_report -- \
  --check scripts/elision_floors.tsv
run env LB_PROF=sample:997 LB_PROF_OUT=target/prof-smoke \
  cargo run --release -p lb-bench --bin prof_report -- --smoke
run cargo run --release -p lb-bench --bin serve_bench -- --smoke true
run cargo test --release -p lb-analysis --test plan_stability -- --ignored \
  small_plans_match_recorded_digests

echo "==> ci.sh: all gates passed"
