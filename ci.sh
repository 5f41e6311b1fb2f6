#!/usr/bin/env sh
# Pre-merge gate for this workspace (see docs/determinism.md).
#
#   ./ci.sh            # full gate: fmt, clippy, docs, simlint, tests
#   ./ci.sh --fast     # skip clippy (useful while iterating)
#
# Every step must pass; the script stops at the first failure. A run
# leaves the tree clean: the gated benches write their results to
# target/bench/ and only read the committed BENCH_*.json baselines.
# Re-recording a baseline is an explicit step, done at an unchanged
# parent commit so the new numbers measure the host, not a change: run
# the bench there, copy target/bench/BENCH_<name>.json over the
# committed file, and commit that copy on its own.

set -eu

cd "$(dirname "$0")"

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --all -- --check

if [ "$fast" -eq 0 ]; then
    step cargo clippy --workspace --all-targets -- -D warnings
fi

# API docs build without a warning: no broken, private or ambiguous
# intra-doc link.
step env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Determinism & robustness lints (rules 1-9: wall-clock, ambient RNG,
# unordered iteration, library panics, WAL expects, journal coverage,
# float accumulation order, shared mutability, wildcard event matches).
# The JSON report is committed alongside the BENCH_*.json artifacts so
# lint drift shows up in review; the --check gate then fails on any
# finding not in simlint.baseline.
echo
echo "==> cargo run -q -p simlint -- --format json > SIMLINT_report.json"
cargo run -q -p simlint -- --format json > SIMLINT_report.json
step cargo run -q -p simlint -- --check

step cargo test --workspace -q

# Paper captures: every figure and ablation at the paper's scale, in
# the `paper` binary's print order, diffed against the committed
# captures under docs/outputs/. crates/bench/tests/paper.rs asserts the
# shape claims at reduced scale; this step also sees the ones that only
# hold at full scale. Like chaos digest drift, a difference only prints
# a notice: captures move when behaviour changes on purpose, and are
# then re-recorded from `paper <name>` at that commit.
echo
echo "==> paper (release) vs docs/outputs/"
mkdir -p target/paper
env -u LOBSTER_SCALE cargo run -q --release -p lobster-bench --bin paper \
    > target/paper/all.txt 2> target/paper/wall-clock.txt
for name in fig02_eviction fig03_tasksize fig04_data_access \
    fig05_proxy_scaling fig06_cache_modes fig07_merging \
    fig08_runtime_table fig09_data_volume fig10_processing_run \
    fig11_simulation_run ablation_adaptive ablation_alien_cache \
    ablation_chirp ablation_foremen; do
    cat "docs/outputs/$name.txt"
done > target/paper/expected.txt
if ! diff -u target/paper/expected.txt target/paper/all.txt; then
    echo "notice: paper output differs from docs/outputs/ (diff above)"
fi

# Release-mode cluster-run smoke: fixed seed, failure-policy machinery
# included; writes throughput numbers to BENCH_cluster.json plus the
# ops-plane snapshot METRICS_cluster.json. Schema drift against the
# committed snapshot fails the gate; value drift prints a notice.
step cargo run -q --release -p lobster-bench --bin bench_cluster

# Render the ops dashboard straight from the committed snapshot — proves
# the HTML view needs nothing but metrics.json. The artifact is
# regenerated, not committed.
step cargo run -q --release -p scenario --bin lobster -- \
    dashboard METRICS_cluster.json --out DASHBOARD_cluster.html

# Scale-campaign sweep (2.5k -> 20k cores with fault windows). Writes
# target/bench/BENCH_scale.json and fails if any sweep point loses more
# than 20% of the committed BENCH_scale.json's events/sec, or peaks
# above its committed peak heap (exact: the peak depends only on seed,
# code and toolchain).
step cargo run -q --release -p lobster-bench --bin bench_scale

# Recovery bench: WAL v3 snapshot+tail vs full replay. Writes
# target/bench/BENCH_recovery.json and fails on a resume over 100 ms, a
# >20% resume-latency regression vs the committed BENCH_recovery.json,
# or any growth of either leg's journal bytes (both are exact, seeded
# baselines).
step cargo run -q --release -p lobster-bench --bin bench_recovery

# Multi-tenant sweep (1 -> 100 masters over one shared pool). Writes
# target/bench/BENCH_multitenant.json; fails if any contended point's
# Jain fairness drops below 0.9 or any point loses more than 20% of the
# committed BENCH_multitenant.json's events/sec.
step cargo run -q --release -p lobster-bench --bin bench_multitenant

# Crash-consistency matrix in release: boundary, in-commit-window,
# torn-append and mid-compaction crashes, resume and convergence, plus
# the full 64-point sweep (`full_crash_matrix`), which compacts every
# 200 records, so every crash site also exercises the incremental
# snapshot encoder's frozen-row cache.
step cargo test --release -q -p lobster --test crash_matrix

# The benchmark's own tests (perfbench/ is a separate cargo workspace):
# its copy of the drive loop is pinned to lobster::Session through the
# three ClusterSim wrappers kept for it (run, run_durable_until_crash,
# resume_run), so a driver change that drifts from it fails here.
step cargo test --offline -q --manifest-path perfbench/Cargo.toml

# Chaos-sweep conformance: every scenarios/*.json library file plus ten
# seeded random fault schedules, each checked against the four global
# invariants (no hang, conservation, determinism, crash/resume).
# Writes target/bench/CONFORMANCE_chaos.json and only reads the
# committed CONFORMANCE_chaos.json; invariant violations fail the gate,
# trace-digest drift against the committed baseline (per scenario and
# per tenant) only prints a notice.
step cargo run -q --release -p lobster-bench --bin bench_chaos

echo
echo "ci.sh: all gates passed"
