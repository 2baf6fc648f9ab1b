#!/usr/bin/env bash
# Repo health gate: formatting, lints, release build, full test suite.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== one executor of stage semantics, one rank loop (grep lint) =="
# Per-stage schedule semantics live in crates/pipeline/src/{cell,group}.rs
# and nowhere else (DESIGN §12): a second interpreter of the action stream
# must not reappear unnoticed. delayed.rs is the App. G.2 whole-network,
# batch-granular simulator — a different machine. Likewise the scheduling
# decision above the executor lives in rank.rs: only it (and the
# sequential sweep in scheduled.rs) may drive a group.
lint_only_in() {
  local pattern=$1 allowed=$2 stray
  stray=$(grep -rlF "$pattern" crates/*/src | grep -Ev "/($allowed)\.rs$" || true)
  if [[ -n $stray ]]; then
    echo "'$pattern' outside {$allowed}.rs:" >&2
    echo "$stray" >&2
    exit 1
  fi
}
lint_only_in 'push_next_version(' 'cell|group'
lint_only_in 'Action::BackwardInput' 'schedule|group|delayed'
lint_only_in 'can_forward(' 'group|rank'
lint_only_in 'group.forward(' 'scheduled|rank'
lint_only_in 'group.backward(' 'scheduled|rank'
lint_only_in '.loss(&' 'scheduled|rank'
# The update path writes the next forward version in the update's own
# sweep (DESIGN §optimizer): the allocating clone+axpy prediction stays
# behind StageOptimizer::forward_weights and may not be called around it.
lint_only_in 'predict_velocity_form(' 'lwp|stage_opt'

echo "== release build =="
cargo build --release

echo "== ledger build (the APIs benchmark/ pins still exist) =="
# Same target directory benchmark/run.sh builds into.
CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$PWD/target} \
  cargo build --offline --release --manifest-path benchmark/Cargo.toml

echo "== ledger smoke (fmt + clippy on the harness, all 7 workloads at 1/16 size, every output check live) =="
# Writes only under git-ignored benchmark/out/; appends no history line.
benchmark/run.sh --smoke

echo "== tier-1 tests (root package) =="
cargo test -q

echo "== full workspace tests =="
cargo test --workspace -q

echo "== snapshot kill-and-resume smoke (threaded engine, bit-identical resume) =="
cargo run --release -q -p pbp-bench --bin snapshot_smoke

echo "== schedule smoke (1F1B + 2BP delay histograms, split-backward bit-identity) =="
cargo run --release -q -p pbp-bench --bin schedule_smoke

echo "== chaos smoke (seeded panic + stall, supervised recovery) =="
# Injects a stage panic and a stage stall into a supervised threaded run;
# the one worker-panic backtrace printed mid-run is the injection itself.
cargo run --release -q -p pbp-bench --bin chaos_smoke

echo "== trace smoke (Chrome-trace schema, bubble ordering, MFU bounds) =="
cargo run --release -q -p pbp-bench --bin trace_smoke

echo "== dist smoke (2-rank unix-socket run, bit-identical to the emulator) =="
cargo run --release -q -p pbp-bench --bin dist_smoke

echo "== dist bench lane (socket runner vs threaded engine, results/BENCH_dist.json) =="
PBP_BENCH_SMOKE=1 cargo run --release -q -p pbp-bench --bin bench_dist

echo "== chaos dist smoke (4-rank net-fault soak: drops/dups/partition + single-rank kill) =="
PBP_BENCH_SMOKE=1 cargo run --release -q -p pbp-bench --bin chaos_dist

echo "== kernel bench smoke (compile + one tiny timed pass) =="
cargo bench -p pbp-bench --bench layer_kernels -- --test
# The bench asserts every lane (tiled, SIMD, parallel, batched eval) is
# bit-identical to the naive reference internally, so these runs double as
# differential smoke tests. The second run exercises the PBP_SIMD=0 escape
# hatch; on CPUs without AVX2+FMA both runs degrade to the scalar tile and
# still pass.
PBP_THREADS=2 PBP_BENCH_SMOKE=1 cargo run --release -q -p pbp-bench --bin bench_kernels >/dev/null
PBP_THREADS=2 PBP_BENCH_SMOKE=1 PBP_SIMD=0 cargo run --release -q -p pbp-bench --bin bench_kernels >/dev/null

echo "== serving smoke (dynamic batching coalesces, replies bit-identical, p50/p99 schema) =="
cargo run --release -q -p pbp-bench --bin serving_smoke

echo "== serving bench lane (baseline vs closed/open loop, smoke scale) =="
PBP_THREADS=1 PBP_BENCH_SMOKE=1 cargo run --release -q -p pbp-bench --bin bench_serving >/dev/null

echo "All checks passed."
