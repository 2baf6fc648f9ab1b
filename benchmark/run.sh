#!/usr/bin/env bash
# One command for the ledger: build the harness (release, offline), then run it.
#
#   benchmark/run.sh                      every workload, seed 1, record + history line
#   benchmark/run.sh --seed 7 --trace     ... with the traced per-layer pass as well
#   benchmark/run.sh --workload cnn.seq --seed 3 --seconds 12 --trace 0  one workload
#   benchmark/run.sh --smoke              fmt + clippy gates, then all workloads at 1/16 size
#   benchmark/run.sh compare a.json b.json
set -euo pipefail

invoked_from=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# Share the repo's target/ unless told otherwise; a relative CARGO_TARGET_DIR
# means relative to where the caller stands, not to where cargo runs.
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$invoked_from/$target ;; esac
export CARGO_TARGET_DIR=$target

# cargo finds .cargo/config.toml (target-cpu=native, as for the workspace)
# from the working directory, so build from the repo root.
cd "$root"
manifest=benchmark/Cargo.toml
if [[ ${1:-} == --smoke ]]; then
  cargo fmt --manifest-path "$manifest" --check
  cargo clippy --offline --release --all-targets --manifest-path "$manifest" -- -D warnings
fi
cargo build --offline --release --quiet --manifest-path "$manifest" >&2

# `compare` names files relative to the caller.
cd "$invoked_from"
exec "$target/release/pbp-ledger" "$@"
