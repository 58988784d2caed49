#!/usr/bin/env bash
# Quantization smoke test: run the f64-vs-q16 oracle over the full
# extended corpus in an optimized build with a predict-stage speedup
# floor. The quantization suite (`tests/quant.rs`) and the exit code of
# a missed floor (9, `tests/backend_matrix.rs`) run in the tier-1
# `cargo test -q`.
# Run from the repository root: ./scripts/quant_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MODEL="${CLARA_QUANT_MODEL:-quant-smoke-model.json}"
BIN=target/release/clara

cargo build --release --bin clara

rm -f "$MODEL"

# Train and persist first, so the oracle's timed runs load the model.
"$BIN" predict cmsketch --model "$MODEL" --packets 200 > /dev/null

# The oracle proper: all 27 corpus NFs within the pinned tolerance,
# suggested offload levels identical between precisions, and the q16
# predict stage measurably faster than f64. The floor is 1.3x: the
# integer path measures ~1.7-1.9x on a quiet machine, and the margin
# absorbs shared-runner timing noise.
"$BIN" quantcheck --model "$MODEL" --packets 200 --reps 3 --require-speedup 1.3

rm -f "$MODEL"
echo "quant_smoke: ok (corpus within tolerance, q16 speed floor met)"
