#!/usr/bin/env bash
# The repo's offline quality gate: static analysis (twelve structural
# lints + clippy + rustfmt), build, the full test suite (with and
# without per-operation invariant audits), the exhaustive 2x2 model
# checker, the fault-injection smoke (self-healing harness + resume),
# the observability smoke (metrics-registry golden + disabled overhead),
# the SoA hot-path smoke, the chaos soak smoke (recovery protocols under
# randomized fault storms, minimized-reproducer loop), and rustdoc with
# warnings denied (`#![deny(missing_docs)]` in the crates turns any
# missing doc into a hard failure here).
#
# Every gate propagates its exit code: `set -euo pipefail` aborts on the
# first failing command (including inside pipelines), and the ERR trap
# names the gate that failed so CI logs point at the culprit.
#
# Usage: scripts/check.sh                  # run every gate
#        scripts/check.sh analyze          # just the static-analysis gate
#        scripts/check.sh fault-smoke      # just the fault-injection smoke
#        scripts/check.sh obs-smoke        # just the observability smoke
#        scripts/check.sh soa-smoke        # just the SoA hot-path smoke
#        scripts/check.sh chaos-smoke      # just the chaos soak smoke
set -Eeuo pipefail
cd "$(dirname "$0")/.."

CURRENT_GATE="startup"
trap 'echo "check.sh: FAILED in gate: $CURRENT_GATE" >&2' ERR

gate() {
    CURRENT_GATE="$1"
    echo "== $1 =="
}

# Satellite gate: the tiny fault sweep through the self-healing harness.
# Asserts (1) a forced-panic and a wedged cell are isolated, not fatal
# (the damq-bench integration test); (2) the smoke grid completes end to
# end through the real binary; (3) `--resume` on a truncated checkpoint
# replays only the missing cell and still reports every cell.
fault_smoke() {
    gate "fault-smoke: forced-panic + wedged cells stay isolated"
    cargo test -q -p damq-bench --test self_healing

    gate "fault-smoke: tiny fault sweep completes"
    local tmp
    tmp="$(mktemp -d)"
    DAMQ_RESULTS_DIR="$tmp" \
        cargo run -q -p damq-bench --bin fault_degradation -- --smoke \
        > /dev/null

    gate "fault-smoke: resume replays only the missing cell"
    local sidecar="$tmp/json/fault_degradation_smoke.cells.jsonl"
    local total
    total="$(wc -l < "$sidecar")"
    # Drop the last completed cell, as if the sweep died mid-run.
    head -n "$((total - 1))" "$sidecar" > "$sidecar.tmp"
    mv "$sidecar.tmp" "$sidecar"
    DAMQ_RESULTS_DIR="$tmp" \
        cargo run -q -p damq-bench --bin fault_degradation -- --smoke --resume \
        > /dev/null
    local report="$tmp/json/fault_degradation_smoke.json"
    grep -q "\"resumed\": $((total - 1))" "$report"
    grep -q '"cells": 1' "$report"
    grep -q '"ok": 1' "$report"
    # The assembled report still carries every cell of the grid.
    [ "$(grep -c '"buffer":' "$report")" -eq "$total" ]
    rm -rf "$tmp"
}

# Satellite gate: the observability layer. Asserts (1) the obs_report
# metrics-registry snapshot on the golden 2x2 run is byte-identical to
# the committed golden (regenerate an intentional change with
# `cargo run --release -p damq-bench --bin obs_report`); (2) the
# always-on registry really is free when disabled (the
# no_op_registry_overhead bench fails past a 25% overhead ratio).
obs_smoke() {
    gate "obs-smoke: registry snapshot matches the committed golden"
    local tmp
    tmp="$(mktemp -d)"
    cargo run -q --release -p damq-bench --bin obs_report -- \
        --out "$tmp/obs_report.json" > /dev/null
    diff -u results/json/obs_report.json "$tmp/obs_report.json"
    rm -rf "$tmp"

    gate "obs-smoke: disabled metrics registry is free"
    cargo bench -p damq-bench --bench no_op_registry_overhead
}

# Satellite gate: the SoA hot path. Asserts (1) the SoA slot pool and
# its AoS twins stay equivalent with every per-operation invariant audit
# enabled (`strict-audit`); (2) the end-to-end AoS-vs-SoA network
# fingerprints (all five designs, faulted runs included) are
# byte-identical; (3) a network forced fully idle takes the quiescence
# fast path every switch-cycle and an idle-skip-off run fingerprints
# identically (`idle_skip_correctness`); (4) the always-on registry that
# carries `net.idle_skipped` is still free when disabled.
soa_smoke() {
    gate "soa-smoke: SoA pool vs AoS twins under strict-audit"
    cargo test -q -p damq-core --features strict-audit --test soa_equivalence

    gate "soa-smoke: AoS-vs-SoA network fingerprints are byte-identical"
    cargo test -q -p damq-net --test dispatch_equivalence

    gate "soa-smoke: idle-skip on/off fingerprints agree"
    cargo test -q -p damq-net --test idle_skip idle_skip_correctness

    gate "soa-smoke: disabled metrics registry is still free"
    cargo bench -p damq-bench --bench no_op_registry_overhead
}

# Satellite gate: the chaos soak harness around the recovery protocols.
# Asserts (1) a seeded invariant mutation surfaces as a minimized,
# replayable reproducer through the crash flight recorder (the
# damq-bench integration test); (2) the CI-sized soak grid — randomized
# per-epoch fault storms against live retransmission and rerouting,
# invariants re-audited every epoch — completes clean through the real
# binary.
chaos_smoke() {
    gate "chaos-smoke: seeded mutation yields a working reproducer"
    cargo test -q -p damq-bench --test chaos_soak

    gate "chaos-smoke: tiny soak grid stays clean"
    local tmp
    tmp="$(mktemp -d)"
    DAMQ_RESULTS_DIR="$tmp" \
        cargo run -q --release -p damq-bench --bin chaos_soak -- --smoke \
        > /dev/null
    # A clean soak leaves no flight dumps behind.
    [ ! -d "$tmp/chaos_dumps" ] || [ -z "$(ls -A "$tmp/chaos_dumps")" ]
    rm -rf "$tmp"
}

# Tentpole gate: the in-tree static analyzer. The twelve structural lints
# (lexer-backed, no regex) must report zero findings, and — in the full
# run — clippy and rustfmt must agree. The bare-lint pass is budgeted at ~2s so it stays
# cheap enough to run on every edit; the xtask prints per-lint timings.
analyze() {
    gate "analyze: twelve structural lints"
    cargo xtask lint --no-cargo

    gate "analyze: clippy + rustfmt"
    cargo xtask lint
}

case "${1:-all}" in
analyze)
    analyze
    echo "analyze passed"
    exit 0
    ;;
fault-smoke)
    fault_smoke
    echo "fault-smoke passed"
    exit 0
    ;;
obs-smoke)
    obs_smoke
    echo "obs-smoke passed"
    exit 0
    ;;
soa-smoke)
    soa_smoke
    echo "soa-smoke passed"
    exit 0
    ;;
chaos-smoke)
    chaos_smoke
    echo "chaos-smoke passed"
    exit 0
    ;;
all) ;;
*)
    echo "usage: scripts/check.sh [analyze|fault-smoke|obs-smoke|soa-smoke|chaos-smoke]" >&2
    exit 2
    ;;
esac

analyze

gate "build (release)"
cargo build --release --workspace

gate "tests"
cargo test --workspace -q

gate "tests under strict-audit (audit every buffer op)"
cargo test -q -p damq-core --features strict-audit
cargo test -q -p damq-net --features strict-audit
cargo test -q -p damq-microarch --features strict-audit

gate "model checker (2x2 exhaustive, small bound)"
cargo run -q -p damq-verify --bin model_check -- --quick

gate "telemetry: golden 2x2 trace is byte-stable"
cargo test -q -p damq-net --test telemetry

gate "telemetry: disabled instrumentation compiles away"
cargo bench -p damq-bench --bench no_op_sink_overhead

gate "dispatch smoke: all three dispatch paths agree"
cargo bench -p damq-bench --bench sim_throughput -- --smoke

fault_smoke

obs_smoke

soa_smoke

chaos_smoke

gate "rustdoc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "all checks passed"
