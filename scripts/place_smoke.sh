#!/usr/bin/env bash
# Placement smoke test (CI job `place-smoke`): exercise the `clara place`
# surface end to end — a static multi-NF placement, a drifting replay
# that must re-solve at least once and leave a migration RunReport
# artifact behind, and the typed exit code for an infeasible placement
# against a capacity-starved device manifest. The placement test suite
# (ILP-vs-greedy difftest + golden matrix + replay properties,
# `tests/placement.rs`) runs in the tier-1 `cargo test -q`.
# Run from the repository root: ./scripts/place_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MODEL="${CLARA_PLACE_MODEL:-place-smoke-model.json}"
BIN=target/release/clara
TINY="$(mktemp -d)"
trap 'rm -rf "$TINY"' EXIT

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

# Infeasible placements are typed errors, exit code 10: a device whose
# whole memory hierarchy holds half a kilobyte cannot place cmsketch.
cat > "$TINY/tiny.toml" <<'EOF'
schema_version = 1
name = "tiny-smoke"
description = "capacity-starved device for the infeasible-placement pin"
class = "on-path"

[cores]
count = 4
freq_ghz = 1.0

[io]
max_mpps = 10.0
line_rate_gbps = 10.0

[[memory]]
level = "CLS"
capacity_bytes = 64
latency_cycles = 25
bandwidth = 2.5

[[memory]]
level = "CTM"
capacity_bytes = 128
latency_cycles = 55
bandwidth = 1.8

[[memory]]
level = "IMEM"
capacity_bytes = 256
latency_cycles = 150
bandwidth = 0.45

[[memory]]
level = "EMEM"
capacity_bytes = 512
latency_cycles = 500
bandwidth = 0.085

[memory_cache]
capacity_bytes = 256
hit_latency_cycles = 130
bandwidth = 0.40

[[accelerator]]
op = "checksum"
accel_cycles = 300
sw_cycles = 2000

[[accelerator]]
op = "crc"
base_cycles = 30
per_iter_cycles = 0.25

[[accelerator]]
op = "lpm-cam"
hit_cycles = 50
insert_cycles = 120
entries = 64

[vendor_lib]
call_overhead_cycles = 12

[[port]]
id = 0
speed_gbps = 10.0
EOF
set +e
"$BIN" place cmsketch --model "$MODEL" --backend "$TINY/tiny.toml" --packets 200
code=$?
set -e
if [ "$code" -ne 10 ]; then
  echo "place_smoke: infeasible placement exited $code (expected 10)" >&2
  exit 1
fi

rm -f "$MODEL"
echo "place_smoke: ok (static plan, $resolves re-solve(s) on drift, exit 10 pinned)"
