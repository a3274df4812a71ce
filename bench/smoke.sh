#!/usr/bin/env bash
# Smoke test for a CI leg: every workload untraced and traced at --quick
# scale (tables and rounds cut to a tenth, one-second windows) plus the unit
# tests, in under a minute once built. Never record --quick numbers.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- all --quick --seconds 1 >/dev/null
echo "bench smoke: ok"
