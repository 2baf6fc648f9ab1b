#!/usr/bin/env bash
# Repo health gate: formatting, lints, release build, the ledger smoke,
# the full test suite and the multi-process chaos soak.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors: no broken, private or ambiguous links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== one executor of stage semantics, one rank loop, three engines (grep lint) =="
# Per-stage schedule semantics live in crates/pipeline/src/{cell,group}.rs
# and nowhere else (DESIGN §12): a second interpreter of the action stream
# must not reappear unnoticed. delayed.rs is the App. G.2 whole-network,
# batch-granular simulator (SGDM, fixed and sampled delays, Adam) — a
# different machine, written straight-line with no action stream at all.
# Likewise the scheduling decision above the executor lives in rank.rs:
# only RankLoop::step may drive a group — the sequential engine is a world
# of one stepping it — and the one direct sweep left is the reference in
# rank.rs's own test module.
lint_only_in() {
  local pattern=$1 allowed=$2 stray
  stray=$(grep -rlF "$pattern" crates/*/src | grep -Ev "/($allowed)\.rs$" || true)
  if [[ -n $stray ]]; then
    echo "'$pattern' outside {$allowed}.rs:" >&2
    echo "$stray" >&2
    exit 1
  fi
}
# The same gate for a regular expression.
lint_re_only_in() {
  local pattern=$1 allowed=$2 stray
  stray=$(grep -rlE "$pattern" crates/*/src | grep -Ev "/($allowed)\.rs$" || true)
  if [[ -n $stray ]]; then
    echo "/$pattern/ outside {$allowed}.rs:" >&2
    echo "$stray" >&2
    exit 1
  fi
}
lint_only_in 'push_next_version(' 'cell|group'
lint_only_in 'Action::BackwardInput' 'schedule|group'
lint_only_in 'can_forward(' 'group|rank'
lint_only_in 'group.forward(' 'rank'
lint_only_in 'group.backward(' 'rank'
lint_only_in '.loss(&' 'rank'
# One lent backward (DESIGN §15): a backward that takes one own-window
# microbatch's update, or two consecutive ones', runs one path at every
# layer — one ParamStep, one StageOptimizer::step_outer_into, one sweep
# family generic over the count, one backward step carrying its count.
# The pair-only copies of each stay retired. Needles are split so this
# file does not contain them.
stray=$(git grep -lE 'Pair''Step|Lent''Pair|backward_input''_pair|step_outer_pair''_into|sweep_param''_pair|sweep_pair''_|Backward''Pair' \
  -- . ':!*.md' || true)
if [[ -n $stray ]]; then
  echo "a retired pair-only lent backward is named again:" >&2
  echo "$stray" >&2
  exit 1
fi
# One backward and one parameter view per layer (DESIGN §10, §15): a
# layer's backward is its two halves, Layer::backward_input then
# Layer::backward_weight, composed into a whole only by Stage::backward and
# Network::backward (network.rs); group.rs's is the executor's
# StageGroup::backward. Parameters are read through Layer::params and
# written beside their gradients through Layer::params_and_grads, whose
# parameter half is derived once, as Stage::params_mut. The fused layer
# backward and the per-layer params_mut / grads copies stay retired.
# Needles are split so this file does not contain them.
lint_only_in 'fn back''ward(' 'network|group'
stray=$(grep -rlE 'fn (params''_mut|gr''ads)\(' crates/*/src | grep -vx 'crates/nn/src/network\.rs' || true)
if [[ -n $stray || $(grep -cE 'fn (params''_mut|gr''ads)\(' crates/nn/src/network.rs) != 1 ]]; then
  echo "a second parameter or gradient accessor is defined (only Stage's params_mut may be):" >&2
  grep -rnE 'fn (params''_mut|gr''ads)\(' crates/*/src >&2
  exit 1
fi
# Only the virtual host (timeline.rs) writes virtual spans, each for an
# action a RankLoop::step it just ran executed: a second scheduler drawing
# the schedule from its own rules must not reappear. pbp-trace's lib.rs and
# analysis.rs define and read the process.
lint_only_in 'PID_VIRTUAL' 'timeline|lib|analysis'
# One Fig. 2 model: the panels, the bubble and the engines' occupancy are
# read off what the executor runs. The analytic step-grid twin (its model,
# its activity cells and its closed-form PB occupancy) stays retired.
# Needles are split so this file does not contain them.
# Markdown notes may name it in the project's history.
stray=$(git grep -lE 'Schedule''Model|Stage''Activity|pb''_utilization' -- . \
  ':!*.md' || true)
if [[ -n $stray ]]; then
  echo "the retired analytic schedule model is named again:" >&2
  echo "$stray" >&2
  exit 1
fi
# One way into rank 0: every host — the sequential engine, a threaded
# worker 0, a dist rank 0, the virtual host — feeds it through
# Upstream::Feed, a closure the rank's own thread calls: its RankHost's
# feed, written where the host is built (in the sequential engine, the
# sample train_sample was handed). The threaded engine's calling thread
# only supervises and collects: a feeder handing samples to worker 0 over
# a channel, with its timed sends, stays retired (the channel shim has no
# timed send: see the one-queue lint below).
lint_only_in 'Message::sample(' 'rank|scheduled|threaded|runner|timeline'
# One host of a rank: a worker thread, a rank process and each loop of the
# virtual host step their RankLoop through RankHost::step (host.rs), which
# alone holds rank 0's feed, consults the injected faults and records rank
# 0's losses. Only the sequential engine — a world of one, with no link
# and no fault — calls RankLoop::step itself (and rank.rs's tests, which
# check its contract); a call, or an Upstream built, anywhere else is a
# second host.
lint_re_only_in '\.step\([^;]*, up,' 'rank|host|scheduled'
lint_re_only_in 'Upstream::(<[^>]*>::)?(Feed|Link)\(' 'rank|host|scheduled'
# One host shape: a threaded worker is a rank over its run of
# partition_bounds, as many as the thread budget holds. The FLOP
# heuristic that guessed which of S stage threads deserved a core stays
# retired. Needles are split so this file does not contain them;
# benchmark/ is frozen and its README still tells the old story.
stray=$(git grep -lE 'heavy_stage''_count|reserve_stage''_cores' -- . \
  ':!ISSUE.md' ':!CHANGES.md' ':!ROADMAP.md' ':!benchmark' || true)
if [[ -n $stray ]]; then
  echo "the retired core-reservation heuristic is named again:" >&2
  echo "$stray" >&2
  exit 1
fi
# The update path writes the next forward version in the update's own
# sweep (DESIGN §optimizer): the allocating clone+axpy prediction stays
# behind StageOptimizer::forward_weights and may not be called around it.
lint_only_in 'predict_velocity_form(' 'lwp|stage_opt'
# Three engines: the whole-network simulator and the stage executor's two
# substrates. A further training loop, in the experiment registry
# (crates/*/src covers crates/bench/src/experiments, whose every run goes
# through suite.rs::sweep) or anywhere else, is a DelayedConfig row or a
# MicrobatchSchedule plan first.
lint_only_in 'impl TrainEngine for' 'delayed|scheduled|threaded'

echo "== one fault script, one restart loop, one snapshot codec (grep lint) =="
# The fault vocabulary lives in crates/pipeline/src/fault.rs and the retry
# arithmetic in supervisor.rs::supervise_retries (DESIGN §9): a second
# one-shot flag, seeded plan generator or `random:` parser is a second
# script, and a second place that polls child processes is a second
# restart loop.
lint_only_in 'fired.swap(' 'fault'
lint_only_in 'fn splitmix64' 'fault'
lint_only_in 'strip_prefix("random:")' 'fault'
lint_only_in '.try_wait()' 'launch'
# The retired spellings: the crash-injection variable, the wire-only plan
# type and the pre-container checkpoint magic. Needles are split so this
# file does not contain them.
stray=$(git grep -lE 'PBP_DIST_''ABORT_AT|NetFault''Plan|PBP''CKPT1' -- . \
  ':!ISSUE.md' ':!CHANGES.md' ':!ROADMAP.md' || true)
if [[ -n $stray ]]; then
  echo "a retired fault/checkpoint vocabulary is back:" >&2
  echo "$stray" >&2
  exit 1
fi
# One rank host and one fault type (DESIGN §9, §12): a worker thread and a
# rank process are the same RankHost, and both supervisors report a
# PipelineFault. The threaded worker shell with its report type, the
# launcher's own fault enum and the process abort that stood in for an
# injected crash (a panic on every host now) stay retired. Needles are
# split so this file does not contain them.
stray=$(git grep -lE 'Stage''Worker|Stage''Done|Launch''Fault|process::''abort' -- . \
  ':!*.md' || true)
if [[ -n $stray ]]; then
  echo "a retired rank shell or second fault type is back:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== one restart arc for a stage group and a threaded run (grep lint) =="
# Every rank fault ends the same way (DESIGN §14): pbp-launch kills the
# whole group and respawns it from the newest snapshot counter every rank
# holds. The surviving-rank rewind with its barrier token and rewind
# generations, and rank identity read from the environment, stay retired:
# a rank is the --rank flag its parent appends. Bare "fine-grained" is the
# paper's vocabulary and is not linted. A supervised threaded run recovers
# the same way (DESIGN §9): retry from the newest valid snapshot under one
# RecoveryPolicy, then return the last fault. The fallback to the
# sequential engine (its spec mapping, its opt-out, its event and trace
# phase) and the recurring fault that only existed to force it stay
# retired. Needles are split so this file does not contain them.
stray=$(git grep -lE -e '--fine''-grained|--gene''ration|Stale''Generation|begin''_generation|rewind''_token|rewind''_or_fail|env''_rank|env''_world|PBP''_RANK|PBP''_WORLD' \
  -e 'degraded''_spec|no''_degrade|Degra''ded|\.recur''ring\(' \
  -- . ':!*.md' || true)
if [[ -n $stray ]]; then
  echo "a retired restart arc, recurring fault or rank-identity variable is named again:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== one snapshot family for every host (grep lint) =="
# Every host's snapshot files — an engine's, each rank's — are one
# SnapshotFamily (pbp-snapshot's container.rs, DESIGN §8), which alone
# names, saves, prunes and scans them: the file-name format is spelled
# nowhere else in crates/*/src, and the rank-only policy, the per-rank
# path helper and the prefix-taking scans stay retired. Needles are split
# so this file does not contain them.
lint_only_in '.pbps' 'container'
stray=$(git grep -lE 'RankSnap''shots|rank_snapshot''_path|latest_snapshot''_with_prefix|latest_valid_snapshot''_with_prefix' \
  -- . ':!*.md' || true)
if [[ -n $stray ]]; then
  echo "a retired snapshot helper is named again:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== one way to watch a run (grep lint) =="
# A run reports through its return values and one Tracer (DESIGN §11):
# run_supervised installs it on every engine it builds and is the only
# author of the supervisor lane. The observer callbacks, their adapters,
# the JSON run sink and the tracer carried in the threaded config stay
# retired. Needles are split so this file does not contain them;
# benchmark/ is frozen and its README still names the config's tracer.
lint_only_in '"supervisor"' 'supervisor'
stray=$(git grep -lE 'Train''Hooks|No''Hooks|Trace''Hooks|Json''Sink|on_supervision''_event|with''_tracer' \
  -- crates src tests examples shims scripts README.md DESIGN.md || true)
if [[ -n $stray ]]; then
  echo "a retired observer or tracer hand-off is named again:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== one queue per batcher (grep lint) =="
# Every receiver in the workspace, the serving batcher included, waits on
# one channel (DESIGN §13): shutdown's drain order rides the ingress FIFO
# behind the requests. The two-channel select with its waiter latch, the
# timed send and the serving env knobs stay retired, in the channel shim
# and everywhere else. Needles are split so this file does not contain
# them. Markdown is scanned only in the documents that describe the
# current program; the change log and roadmap name the retired items.
needles='select''2|Select''2|Select''Signal|send''_timeout|SendTimeout''Error|macro_rules! ''select|from''_env|PBP''_SERVE_'
stray=$({ git grep -lE "$needles" -- . ':!*.md'
          git grep -lE "$needles" -- README.md DESIGN.md EXPERIMENTS.md; } || true)
if [[ -n $stray ]]; then
  echo "a second wait, a timed send or a serving env knob is back:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== batch size one has no batch statistics (grep lint) =="
# Every net normalizes with GroupNorm (DESIGN §2), and in eval mode no
# layer stashes anything (Layer::set_training). The batch- and
# streaming-statistics normalizers, the response normalizer with its
# thresholded unit, and the group-norm VGG builder stay retired. Needles
# are split so this file does not contain them.
stray=$(git grep -lE 'Batch''Norm2d|Online''Norm|FilterResponse''Norm|Tlu''::|vgg''_gn' \
  -- crates src tests examples shims scripts README.md DESIGN.md || true)
if [[ -n $stray ]]; then
  echo "a retired normalizer or builder is named again:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== one conv path per direction: layers name no lowered entry point (grep lint) =="
# Conv2d / WsConv2d run the direct kernels in both modes and, when
# training, keep the input activation they popped (DESIGN §7): neither the
# k²-fold column stash of the lowered path nor an eval-only kernel choice
# may regrow in a layer. `conv2d(` catches conv2d_backward*( as well as the
# lowered forward; the direct kernels are spelled conv2d_direct*.
stray=$(grep -rnE '\b(im2col|col2im|conv2d_reusing|cols)\b|conv2d(_backward\w*|_batched\w*)?\(' \
  crates/nn/src/layers || true)
if [[ -n $stray ]]; then
  echo "column lowering named under crates/nn/src/layers:" >&2
  echo "$stray" >&2
  exit 1
fi
# The batched im2col lowering, its scratch type, its strip budget and the
# layers' field for it stay retired. Needles are split so this file does
# not contain them.
stray=$(git grep -lE 'conv2d_batched''_reusing|ConvBatch''Scratch|COLS_STRIP''_FLOATS|batch''_scratch' -- . \
  ':!ISSUE.md' ':!CHANGES.md' ':!ROADMAP.md' || true)
if [[ -n $stray ]]; then
  echo "the retired batched conv lowering is named again:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== one source per micro-kernel (grep lint) =="
# The register tile, the axpy sweep, the `A·Bᵀ` row and the three direct
# convolution kernels are each written once over `Lanes` in
# crates/tensor/src/ops/simd.rs (DESIGN §7): the only vfmadd intrinsics are
# the two `impl Lanes` blocks', the hand-written tiles, the "did it
# dispatch?" shims and the scalar `A·Bᵀ` dot chains stay retired, and
# gemm.rs, policy only, spells out no fma chain of its own.
fma_sites=$(grep -rE '_mm256_fmadd_ps|_mm512_fmadd_ps' crates | wc -l)
if [[ $fma_sites -ne 2 ]]; then
  echo "vfmadd intrinsic call sites under crates/: $fma_sites, want the 2 in impl Lanes:" >&2
  grep -rnE '_mm256_fmadd_ps|_mm512_fmadd_ps' crates >&2
  exit 1
fi
# Needles are split so this file does not contain them.
stray=$(git grep -lE 'tile_full''_width|tile''_ragged|micro''_scalar|tile_avx2''_ragged|tile_avx512''_ragged|nt''_chains' -- . \
  ':!ISSUE.md' ':!CHANGES.md' ':!ROADMAP.md' || true)
if [[ -n $stray ]]; then
  echo "a retired hand-written kernel or dispatch shim is named again:" >&2
  echo "$stray" >&2
  exit 1
fi
stray=$(grep -nF 'mul_add(' crates/tensor/src/ops/gemm.rs | grep -vE '^[0-9]+: *//' || true)
if [[ -n $stray ]]; then
  echo "gemm.rs spells out an fma chain (a row is simd::axpy_row or simd::nt_row):" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== one source for the update sweep (grep lint) =="
# Every optimizer step is one per-tier kernel family, simd::sgdm_sweep and
# its two-update front sgdm_sweep_pair (DESIGN §15), reached only through
# SgdmState in sgdm.rs: a second update loop beside it would be a second
# rounding of SGDM + SC + LWP. Prefetch
# hints are the kernels' business, issued through `Lanes` in simd.rs.
lint_only_in 'sgdm_sweep(' 'simd|sgdm'
lint_only_in 'sgdm_sweep_pair(' 'simd|sgdm'
lint_only_in '_mm_prefetch' 'simd'

echo "== one source for the GroupNorm statistics (grep lint) =="
# A group's mean and squared deviation are f64 chains in element order,
# computed by one per-tier kernel, simd::group_moments (DESIGN §7), which
# GroupNorm reaches only through norm.rs's group_stats — the training
# forward and the eval pass alike. A second chain loop over a group, the
# retired stepped-chain helper among them, must not regrow beside it.
lint_only_in 'group_moments(' 'simd|norm'
if ! awk '/^fn group_stats/ { inside = 1 }
          /group_moments\(/ { calls++; if (inside) ours++ }
          inside && /^}/ { inside = 0 }
          END { exit !(calls == 1 && ours == 1) }' crates/nn/src/layers/norm.rs; then
  echo "norm.rs calls group_moments( other than once, from group_stats:" >&2
  grep -n 'group_moments(' crates/nn/src/layers/norm.rs >&2
  exit 1
fi
# The needle is split so this file does not contain it.
stray=$(git grep -lF 'run''_sums' -- crates src tests examples shims scripts benchmark || true)
if [[ -n $stray ]]; then
  echo "the retired GroupNorm chain helper is named again:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== one hand-off of an output across threads (grep lint) =="
# Batch kernels share their output with the pool through
# pool::for_each_sample_chunk, the GEMM through its tile pointer in gemm.rs,
# and parallel_for shares its body through pool.rs's Region (DESIGN §7): a
# Send/Sync wrapper anywhere else is a second, unreviewed way of handing
# one buffer to several threads. The needle is split so this file does not
# contain it.
stray=$(git grep -lE 'unsafe ''impl(<[^>]*>)? +(Send|Sync)\b' -- crates src tests examples shims \
  | grep -vE '^crates/tensor/src/(pool|ops/gemm)\.rs$' || true)
if [[ -n $stray ]]; then
  echo "a Send/Sync pointer wrapper outside pool.rs / gemm.rs:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== one correctness gate, one speed gate, one experiment runner (no second path) =="
# `cargo test` decides correctness and benchmark/ decides speed: timing
# lanes, smoke binaries that re-run an integration test and criterion
# benches do not come back beside them, and a table, figure or ablation
# is a row of pbp_bench::EXPERIMENTS, not a binary of its own.
stray=$(
  ls crates/bench/src/bin | grep -vxE 'chaos_dist\.rs|pbp-experiments\.rs' || true
  ls -d crates/bench/benches shims/criterion 2>/dev/null || true
  # The needle is split so this file does not contain it.
  git grep -lF 'results/BENCH''_' -- . \
    ':!ISSUE.md' ':!CHANGES.md' ':!ROADMAP.md' ':!benchmark' || true
)
if [[ -n $stray ]]; then
  echo "a per-experiment binary or a pre-ledger measurement path is back:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== release build =="
cargo build --release

echo "== ledger build (the APIs benchmark/ pins still exist) =="
# Same target directory benchmark/run.sh builds into.
CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$PWD/target} \
  cargo build --offline --release --manifest-path benchmark/Cargo.toml

echo "== ledger smoke (fmt + clippy on the harness, all 7 workloads at 1/16 size, every output check live) =="
# Writes only under git-ignored benchmark/out/; appends no history line.
benchmark/run.sh --smoke

echo "== paper claims on the committed records (trains nothing) =="
# Every results/<name>.txt against its registered verdict; tier-1's
# tests/paper_claims.rs also re-runs the experiments behind them.
cargo run --release -q -p pbp-bench --bin pbp-experiments -- --check

echo "== tier-1 tests (root package) =="
cargo test -q

echo "== full workspace tests =="
cargo test --workspace -q

echo "== env escape hatches (PBP_SIMD / PBP_THREADS read from the environment, not set_tier / set_max_threads) =="
# Suites whose bit-identity asserts run on whatever tier / thread cap
# the process resolves first: the kernel differentials on the default tier
# (so the portable and, on an AVX-512 box, the middle tier are reached
# through the environment too), eval ≡ training-mode forward per layer and
# batch-size invariance per builder on those tiers as well, batched
# evaluation on the default pool, and serving's coalesced reply ≡ solo
# forward, whose batched `Linear` runs the tier's own pack and tile height.
# Every optimizer step is the tier's own update sweep, so the optimizer
# suite and the engines' bit-identity run on each tier too.
for tier in 0 avx2; do
  PBP_SIMD=$tier cargo test -q --test proptest_kernels
  PBP_SIMD=$tier cargo test -q -p pbp-dist --test pair_equivalence
  PBP_SIMD=$tier cargo test -q -p pbp-optim
  PBP_SIMD=$tier cargo test -q --test engine_equivalence
  PBP_SIMD=$tier cargo test -q -p pbp-nn --test eval_equivalence
  PBP_SIMD=$tier cargo test -q -p pbp-pipeline --test batched_eval
  PBP_SIMD=$tier cargo test -q -p pbp-serve
done
PBP_THREADS=2 cargo test -q -p pbp-pipeline --test batched_eval
# Eval-mode batch kernels split the batch over the pool: per-layer eval
# equivalence and serving's bit-identical replies start from one thread
# and from more threads than chunks (the suites sweep 1|2|64 themselves;
# batched_eval runs in the pipeline lanes below).
for threads in 1 64; do
  PBP_THREADS=$threads cargo test -q -p pbp-nn --test eval_equivalence
  PBP_THREADS=$threads cargo test -q -p pbp-serve
done
# The threaded runtime's worker count is the thread budget: one worker,
# the host's count (the default lanes above) and one worker per stage are
# all reached through the environment on any box, and every bit-identity,
# golden-trace, snapshot and chaos assertion must hold at each.
PBP_THREADS=1 cargo test -q -p pbp-pipeline
PBP_THREADS=64 cargo test -q -p pbp-pipeline
PBP_THREADS=1 cargo test -q --test engine_equivalence
# Two workers whatever the host's core count: the cost partition cuts the
# vgg_cnn case unevenly (4 + 2, before fc0) and must stay bit-identical.
PBP_THREADS=2 cargo test -q --test engine_equivalence
PBP_THREADS=64 cargo test -q --test engine_equivalence

echo "== chaos dist soak (4 rank processes: drops/dups/partition + single-rank kill) =="
# The one check with no in-test twin: real rank processes, re-executed
# under the pbp_dist::launch supervisor.
PBP_BENCH_SMOKE=1 cargo run --release -q -p pbp-bench --bin chaos_dist

echo "All checks passed."
