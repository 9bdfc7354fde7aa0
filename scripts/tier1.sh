#!/usr/bin/env bash
# Tier-1 gate: formatting, release build (examples included), full test
# suite, lint-clean clippy and warning-free rustdoc.
# Run from the repository root. Fails fast on the first broken step.
# Pass --slow to also run the #[ignore]d long-horizon experiment tests
# (release mode; adds a few minutes).
set -euo pipefail
cd "$(dirname "$0")/.."

SLOW=0
for arg in "$@"; do
  case "$arg" in
    --slow) SLOW=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cargo fmt --all --check
cargo build --release --workspace
cargo build --examples --workspace
cargo test -q --workspace
cargo clippy --all-targets --workspace -- -D warnings
# Rustdoc gate: a doc link to a renamed, deleted or private item fails
# here rather than rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Golden pass, per backend, in release (the debug run above skips the
# full matrices): the HBM matrix must match
# tests/fixtures/golden_pipeline.json and the LP5X matrix
# tests/fixtures/golden_lp5x.json byte for byte (DESIGN.md §4j). Each
# simulation runs on one thread, so one pass covers every sweep width.
cargo test -q --release --test golden_pipeline

# The paper-level end-to-end checks (tests/end_to_end.rs): PIM-First
# starves the GPU kernel, F3FS switches less than FR-RR-FCFS, VC2 raises
# MEM-First's arrival rate, runs are deterministic, and more. Seven of
# them are ignored in the debug pass above as too slow there; in
# release the whole file takes under a second.
cargo test -q --release --test end_to_end

# The fast-path oracles (tests/fast_forward.rs), including the 248-run
# matrix the debug pass skips as too slow there: the default simulator
# against `Runner::reference`, every fast path off, on cycles, merged
# McStats and every kernel's completion log, on both DRAM backends under
# VC1 and VC2. About 3 s in release.
cargo test -q --release --test fast_forward

# Backend-registry smoke (DESIGN.md §4j): both registries must round-trip
# names and agree on the error dialect, every registered backend must be
# reachable from the CLI, and a short LP5X run must complete end to end —
# the whole chain spec string → registry → SystemConfig → simulator.
# Co-execution and collaborative runs also complete on the smallest and
# largest rank counts, whose SM split (`SystemConfig::pim_sms`) differs
# from HBM's 72 + 8.
cargo test -q --release --test backend_registry
# grep -q exits at the first match and closes the pipe; the CLI treats
# the closed pipe as a normal end (exit 0, nothing on stderr).
cargo run -q --release -p pimsim-cli --bin pimsim -- list | grep -q "lp5x"
cargo run -q --release -p pimsim-cli --bin pimsim -- \
  standalone --pim P1 --dram lp5x:ranks=4 --scale 0.01 >/dev/null
for dram in lp5x:ranks=2 lp5x:ranks=8; do
  cargo run -q --release -p pimsim-cli --bin pimsim -- \
    coexec --gpu G11 --pim P4 --dram "$dram" --scale 0.01 >/dev/null
  cargo run -q --release -p pimsim-cli --bin pimsim -- \
    collab --dram "$dram" --scale 0.01 >/dev/null
done

# Figure smoke (crates/bench/tests/regen.rs): every row of `regen`'s
# table renders at `--quick --scale 0.01` on its own backend and budget,
# besides the CLI checks the debug pass already ran (usage errors exit 2,
# a budget overrun exits 1, a closed stdout exits 0, one row per
# results/*.txt). The smoke is ignored in debug as too slow there; about
# 15 s in release.
cargo test -q --release -p pimsim-bench

# Hot-loop smoke (DESIGN.md §4g): per scenario, one profiled pass in the
# default configuration and one untimed pass with fast-forward off, which
# must simulate the same number of cycles. The profiled pass fails the
# smoke when a deterministic counter moves the wrong way against
# BENCH_hotloop.json: fewer fast-forward skips; more memory-stage,
# reply-network or completion-stage ticks; more replayed partition
# visits; more controller full steps; or fewer replayed cycles of the
# controller's replay window (stall or burst plan) or burst plans
# (DESIGN.md §4g-§4k). The completion
# stage collects PIM acks on every stepped cycle while a PIM kernel is
# mounted (§4i), so on the PIM scenarios its tick count equals the
# stepped cycles. It also fails if burst retirement disengages (zero
# burst hit rate on standalone_pim, §4h), or if partition lag or span
# replay of plans disengages (on both standalone PIM scenarios, HBM and
# lp5x:ranks=4, the memory stage must run at least 3x fewer ticks than
# stepped cycles and `MemoryController::replay_span` must replay at
# least one span of a plan window, §4g/§4k). Tick counts are deterministic, so
# those gates are structural — immune to host noise. The one wall-clock
# check is a floor of 25 000 simulated cycles/s on the profiled pass,
# several times below the slowest scenario: it trips on asymptotic
# regressions (a per-tick scan creeping back into the busy path), not on
# machine noise. The smoke writes no JSON, so the committed file stays.
HOTLOOP_OUT="" cargo run -q --release -p pimsim-bench --bin hotloop

# pimbench (pimbench/README.md) is a package of its own, outside the
# workspace: build and test it here so a change to a public API it
# drives cannot break it unnoticed, and check one sample of every
# workload against the fingerprints pinned for seed 0 and for the
# held-out seed 1 (which runs all nine policies under both VCs).
cargo test -q --offline --manifest-path pimbench/Cargo.toml
cargo run -q --release --offline --manifest-path pimbench/Cargo.toml -- --verify --seed 0
cargo run -q --release --offline --manifest-path pimbench/Cargo.toml -- --verify --seed 1

# Opt-in slow pass: the two #[ignore]d long-horizon experiment tests
# (full QKV collaborative run, PIM-corunner interference sweep). They
# validate paper-level conclusions rather than mechanisms, so they ride
# outside the default gate.
if [ "$SLOW" = 1 ]; then
  cargo test -q --release -p pimsim-sim -- --ignored
fi
