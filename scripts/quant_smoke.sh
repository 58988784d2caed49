#!/usr/bin/env bash
# Quantization smoke test (CI job `quant-smoke`): run the f64-vs-q16
# oracle over the full extended corpus with a predict-stage speedup
# floor, require the typed exit code for a violated tolerance knob, and
# drive `bench-serve` against daemons serving at both precisions (the
# q16 daemon with a raised warm-vs-one-shot floor: the integer predict
# stage must not eat into the serving win). The quantization suite
# (`tests/quant.rs`) runs in the tier-1 `cargo test -q`.
# Run from the repository root: ./scripts/quant_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${CLARA_QUANT_ADDR:-127.0.0.1:49163}"
MODEL="${CLARA_QUANT_MODEL:-quant-smoke-model.json}"
BIN=target/release/clara

cargo build --release --bin clara

rm -f "$MODEL" BENCH_serve_f64.json BENCH_serve_q16.json

# Train once and persist; every phase below reloads the same model.
"$BIN" predict cmsketch --model "$MODEL" --packets 200 > /dev/null

# The oracle proper: all 27 corpus NFs within the pinned tolerance,
# suggested offload levels identical between precisions, and the q16
# predict stage measurably faster than f64. The floor is 1.3x: the
# integer path measures ~1.7-1.9x on a quiet machine, and the margin
# absorbs shared-runner timing noise.
"$BIN" quantcheck --model "$MODEL" --packets 200 --reps 3 --require-speedup 1.3

# An impossible speed floor must fail with the typed exit code 9 (same
# code a tolerance violation uses), not a generic error.
set +e
"$BIN" quantcheck --model "$MODEL" --packets 200 --reps 1 --require-speedup 1000000
code=$?
set -e
if [ "$code" -ne 9 ]; then
  echo "quant_smoke: missed speedup floor exited $code (expected 9)" >&2
  exit 1
fi

# bench-serve at both precisions. Warm serving beats one-shot CLI by 2x
# at f64 (the historical floor); at q16 the daemon must clear a raised
# 3x floor — the integer path makes the served predict stage cheaper
# while the one-shot baseline still pays process startup + model load.
for precision in f64 q16; do
  floor=2
  [ "$precision" = q16 ] && floor=3
  "$BIN" serve --addr "$ADDR" --workers 2 --queue-cap 8 \
    --model "$MODEL" --precision "$precision" &
  SERVER=$!
  trap 'kill "$SERVER" 2>/dev/null || true' EXIT
  "$BIN" bench-serve --addr "$ADDR" \
    --requests 200 --conns 4 --packets 200 \
    --baseline 3 --model "$MODEL" \
    --precision "$precision" --require-speedup "$floor" \
    --drain --report "BENCH_serve_$precision.json"
  wait "$SERVER"
  code=$?
  trap - EXIT
  if [ "$code" -ne 0 ]; then
    echo "quant_smoke: $precision daemon exited $code after drain (expected 0)" >&2
    exit 1
  fi
  test -s "BENCH_serve_$precision.json"
done

rm -f "$MODEL"
echo "quant_smoke: ok (corpus within tolerance, exit 9 pinned, both precisions served)"
