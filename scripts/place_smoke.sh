#!/usr/bin/env bash
# Placement smoke test: exercise the `clara place` surface end to end —
# a static multi-NF placement, and a drifting replay that must re-solve
# at least once and leave a migration RunReport artifact behind. The
# placement test suite (ILP-vs-greedy difftest + golden matrix + replay
# properties, `tests/placement.rs`) and the exit code of an infeasible
# placement (10, `tests/backend_matrix.rs`) run in the tier-1
# `cargo test -q`.
# Run from the repository root: ./scripts/place_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MODEL="${CLARA_PLACE_MODEL:-place-smoke-model.json}"
BIN=target/release/clara

cargo build --release --bin clara

rm -f "$MODEL" BENCH_place_replay.json

# Train once and persist; every phase below reloads the same model.
"$BIN" predict cmsketch --model "$MODEL" --packets 200 > /dev/null

# Static placement: two corpus NFs through the typed request path. The
# deterministic JSON must carry the ILP plan and the greedy fallback.
static="$("$BIN" place firewall,mazunat --model "$MODEL" --packets 200)"
echo "$static" | grep -q '"op":"place"' || {
  echo "place_smoke: static placement response missing op tag" >&2
  exit 1
}
echo "$static" | grep -q '"greedy_total_objective"' || {
  echo "place_smoke: static placement response missing greedy fallback" >&2
  exit 1
}

# Replay with injected drift: the shift schedule flips udpcount's access
# mix at the phase boundary (~14% relative L1), so a 10% threshold must
# trigger at least one re-solve. The run report is the CI artifact that
# carries the migration counters.
replay="$("$BIN" place udpcount --model "$MODEL" --replay shift --epochs 4 \
  --drift-threshold 0.1 --packets 150 --seed 31 \
  --report BENCH_place_replay.json)"
resolves="$(echo "$replay" | sed -n 's/.*"resolves":\([0-9]*\).*/\1/p')"
if [ -z "$resolves" ] || [ "$resolves" -lt 1 ]; then
  echo "place_smoke: drifting replay re-solved ${resolves:-0} times (expected >= 1)" >&2
  exit 1
fi
test -s BENCH_place_replay.json
for counter in place.requests place.epochs place.resolves; do
  grep -q "$counter" BENCH_place_replay.json || {
    echo "place_smoke: run report missing counter $counter" >&2
    exit 1
  }
done

rm -f "$MODEL"
echo "place_smoke: ok (static plan, $resolves re-solve(s) on drift)"
