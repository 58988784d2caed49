#!/usr/bin/env bash
# HAL smoke test (CI job `hal-matrix`): exercise the device-backend CLI
# surface end to end — list backends, produce a cross-device analysis
# matrix, and run a cross-backend difftest. The manifest validation
# suite (`-p clara-hal`), the backend matrix and the typed exit code 8
# for an unknown backend name (`tests/backend_matrix.rs`) run in the
# tier-1 `cargo test -q`.
# Run from the repository root: ./scripts/hal_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MODEL="${CLARA_HAL_MODEL:-hal-smoke-model.json}"
BIN=target/release/clara

cargo build --release --bin clara

rm -f "$MODEL"

# The four built-in manifests must all load and be listed.
backends="$("$BIN" backends)"
echo "$backends"
for name in agilio-cx wimpy-onpath dpu-offpath accel-poor; do
  echo "$backends" | grep -q "$name" || {
    echo "hal_smoke: builtin $name missing from 'clara backends'" >&2
    exit 1
  }
done

# Cross-device analysis matrix (trains once, persists the model), then a
# single-device analysis on a non-default backend reusing it.
"$BIN" analyze cmsketch --model "$MODEL" --backend all --packets 200
"$BIN" analyze cmsketch --model "$MODEL" --backend dpu-offpath --packets 200

# Cross-backend differential oracle: semantics must be device-invariant
# across every builtin while cost profiles differ (difftest exits 6 on
# any divergence).
"$BIN" difftest --seeds 40 --packets 24 --backends all

rm -f "$MODEL"
echo "hal_smoke: ok (4 builtins listed, cross-device matrix + difftest clean)"
