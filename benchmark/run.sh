#!/usr/bin/env bash
# The benchmark's one entry point. Picks `layers` when the arguments say
# `--trace 1` and `e2e` otherwise, builds `connectit-serve` from the root
# workspace and that one binary into one target directory, and runs it:
#
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   (the driver's form)
#   bash benchmark/run.sh run --seed S [--smoke] [--out FILE]             (all five workloads)
#   bash benchmark/run.sh layers run --seed S [--smoke]                   (all five, traced)
#   bash benchmark/run.sh compare <setA> <setB>
#
# Run it from the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac

bin=e2e
if [ "${1:-}" = layers ]; then
    bin=layers
    shift
fi
prev=
for arg in "$@"; do
    if [ "$prev" = --trace ] && [ "$arg" != 0 ]; then bin=layers; fi
    prev="$arg"
done

# Only the binary asked for is built: `e2e` must go on building and
# judging when a refactor has broken `layers.rs`. Build output goes to
# stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p cc-server --bin connectit-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
