#!/usr/bin/env bash
# What a CI job should call: the stable-surface rule, the benchmark's own
# tests (validators, drivers, wire client), and a smoke run of all five
# workloads and both ladders at toy sizes (n = 2^14; every value printed
# as `null`). Run it from anywhere; it takes well under a minute once built.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# `e2e` and the library may touch the system only through the
# `connectit-serve` CLI, PROTOCOL.md, `Service`/`Client::submit` and
# `connectivity_timed`; `layers.rs` alone may call deeper. ROADMAP items
# 2-3 rewrite exactly the modules named here.
deep='cc_server::(binproto|evloop|net|engine|generation|analytics|subs|wal)|connectit::liveness|BinClient|GenerationEngine'
if grep -nE "$deep" $(find "$here/src" -name '*.rs' ! -path '*/bin/layers.rs'); then
    echo "ci.sh: the lines above reach below the benchmark's stable surfaces" >&2
    exit 1
fi

# `e2e` first and on its own — library tests, its build, its smoke — so
# that it is checked even when `layers.rs` no longer compiles.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo test --offline --quiet --manifest-path "$here/Cargo.toml" --lib --bin e2e

start=$(date +%s)
bash "$here/run.sh" run --smoke --seed 1
echo "ci.sh: e2e smoke took $(( $(date +%s) - start )) s"

start=$(date +%s)
bash "$here/run.sh" layers run --smoke --seed 1
echo "ci.sh: layers smoke took $(( $(date +%s) - start )) s"
