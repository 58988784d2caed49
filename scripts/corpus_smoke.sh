#!/usr/bin/env bash
# Corpus smoke test (run by scripts/ci.sh): the stateful-NF corpus and
# the accelerator-variant catalog at the CLI — `clara corpus` must emit
# valid JSON with every flow-table NF classified as flow-state and the
# expected catalog hits, and `clara backends` must list each manifest's
# accelerator menu including dpu-offpath's non-default crc64-ecma
# variant. The flow-state acceptance suite (`tests/flow_corpus.rs`) and
# the catalog unit tests run in the tier-1 `cargo test -q`.
# Run from the repository root: ./scripts/corpus_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/clara

cargo build --release --bin clara

corpus="$("$BIN" corpus)"

# The report must be machine-readable JSON, not merely JSON-shaped.
if command -v python3 >/dev/null 2>&1; then
  echo "$corpus" | python3 -m json.tool >/dev/null || {
    echo "corpus_smoke: 'clara corpus' emitted invalid JSON" >&2
    exit 1
  }
fi

# Every flow-table NF from the stateful corpus engine is present and
# classified as flow-state.
for name in natchurn fwstate conntrack dnscache flowlimiter; do
  echo "$corpus" | grep -q "\"name\":\"$name\",\"state_class\":\"flow-state\"" || {
    echo "corpus_smoke: $name missing or not flow-state in 'clara corpus'" >&2
    exit 1
  }
done

# The catalog matcher recovers known algorithm constants from NF code.
for hit in crc32-ieee crc16-ccitt hash-lookup3; do
  echo "$corpus" | grep -q "\"$hit\"" || {
    echo "corpus_smoke: catalog hit $hit missing from 'clara corpus'" >&2
    exit 1
  }
done

# Each backend row prints its accelerator menu; dpu-offpath declares the
# non-default wide-register CRC engine.
backends="$("$BIN" backends)"
echo "$backends" | grep -q "ACCELERATORS" || {
  echo "corpus_smoke: 'clara backends' lost its ACCELERATORS column" >&2
  exit 1
}
echo "$backends" | grep "dpu-offpath" | grep -q "crc64-ecma" || {
  echo "corpus_smoke: dpu-offpath menu missing crc64-ecma" >&2
  exit 1
}
echo "$backends" | grep "agilio-cx" | grep -q "csum-fold16,crc32-ieee,lpm-w32" || {
  echo "corpus_smoke: agilio-cx menu is not the catalog defaults" >&2
  exit 1
}

echo "corpus_smoke: ok (5 flow NFs classified, catalog hits present, menus listed)"
