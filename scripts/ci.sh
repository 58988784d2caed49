#!/usr/bin/env bash
# Tier-1 CI gate: release build, test suite, rustfmt-clean sources, zero
# clippy warnings, zero rustdoc warnings, plus a quick instrumented bench
# run that leaves a BENCH_train_timing.json run report behind as a build
# artifact.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The semantics oracle's self-check: exits 0 only when the injected
# miscompile is caught and shrunk to at most 3 blocks.
./target/release/clara difftest --smoke
cargo test -q
# The LSTM training kernel's bit-identity tests (blocked matvec, sparse
# wx merge, pinned weights) also run in the optimized build: that build
# trains the benchmark's models and is the only one that vectorizes.
cargo test --release -q -p tinyml
# The benchmark is a workspace of its own (clara-perf/), so the root test
# run does not build it: a change that breaks its build or its unit tests
# fails here rather than at benchmark time.
cargo test -q --manifest-path clara-perf/Cargo.toml
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# `--all` and `--workspace` stop at the root workspace, so the benchmark's
# sources are linted on their own.
cargo fmt --manifest-path clara-perf/Cargo.toml -- --check
cargo clippy --manifest-path clara-perf/Cargo.toml --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Smoke-run the timing bench with telemetry on; CLARA_REPORT=1 drops the
# run report (spans + metrics JSON) next to the checkout for upload.
CLARA_QUICK=1 CLARA_REPORT=1 cargo run --release -p clara-bench --bin train_timing 2
test -s BENCH_train_timing.json

# The smoke scripts below drive the CLI only: the suites they cover
# (clara-hal, backend_matrix, quant, placement, clara-accel, flow_corpus)
# already ran in `cargo test -q` above.

# hal-matrix: the device-backend CLI surface — cross-device analysis
# matrix and cross-backend difftest.
./scripts/hal_smoke.sh

# quant-smoke: the f64-vs-q16 oracle with a predict-stage speedup floor,
# plus bench-serve at both precisions (q16 with a raised floor).
./scripts/quant_smoke.sh

# place-smoke: the placement CLI surface — a static placement, a
# drifting replay with its migration run report, and the
# infeasible-placement exit code.
./scripts/place_smoke.sh

# corpus-smoke: the stateful-NF corpus + accelerator catalog — the
# `clara corpus` JSON report and per-backend accelerator menus.
./scripts/corpus_smoke.sh

# tenant-smoke: multi-tenant serving — two-tenant fairness under a
# quota-limited burst, typed-rejection exit codes, and the
# tenants x transport x backend matrix (UDS frames must out-serve TCP
# lines), leaving BENCH_serve_tenants.json behind.
./scripts/tenant_smoke.sh
