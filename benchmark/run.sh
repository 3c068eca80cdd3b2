#!/usr/bin/env bash
# The benchmark's one command (see ../BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark package from source (it path-depends on
# ../crates/core, so it fails — non-zero, nothing printed — where the
# repository is absent), then runs the end-to-end binary (--trace 0) or
# the traced binary (--trace 1) from the checkout's root. Cargo is the
# only process started before `exec`; it has ended by then.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

trace=0
prev=""
for arg in "$@"; do
  if [ "$prev" = "--trace" ]; then trace="$arg"; fi
  prev="$arg"
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bins >&2

bin=bench-e2e
if [ "$trace" = "1" ]; then bin=bench-layers; fi
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
