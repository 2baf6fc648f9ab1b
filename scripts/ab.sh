#!/usr/bin/env bash
# Paired A/B of ledger workloads: a parent revision against the current
# checkout (tracked and untracked-but-not-ignored files, uncommitted edits
# included).
#
#   scripts/ab.sh <parent-rev> <workload[,workload...]> [pairs=10] [ledger args...]
#   scripts/ab.sh HEAD~1 cnn.dist2                   ten pairs at the ledger's run length
#   scripts/ab.sh HEAD~1 cnn.seq,cnn.threaded,cnn.dist2,serve.vgg   one sitting, four workloads
#   scripts/ab.sh HEAD~1 cnn.seq 4 --seconds 8       a quick look, not a claim
#
# Each side is copied into its own temporary directory and built there with
# its own CARGO_TARGET_DIR, so neither build touches the other or this
# checkout's target/. For each workload in turn, the pairs then run
# `benchmark/run.sh --workload <w> --trace 0` on the two sides in turn, in
# ABBA / BAAB blocks of four runs (parent = A): pairs 1-2 run A B, B A,
# pairs 3-4 run B A, A B, and so on, so each side runs first equally often
# and neither owns a position in the sitting. Printed per workload: every
# pair's samples_per_s, each side's median and quartiles, the change's win
# count (ties count for neither side) and the gap between the medians beside
# the parent's quartile distance — the reading rule of a claimed gain: at
# least nine wins in ten and a gap wider than the parent's spread — the wins
# split by which side ran first, then for samples_per_s and
# cpu_us_per_sample the median paired log-ratio ln(change/parent) with its
# distribution-free interval (order statistics of the sign test, the
# widest-coverage pair of them at or above 95 %, or the extremes when too
# few pairs reach it), then each side's median of the other end-to-end
# metrics the benchmark check bounds (setup_s, peak_rss_mb, loss_mean). A
# run with failed operations stops the script.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,9p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
parent_rev=$1 workloads=$2
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive integer: $pairs" >&2; exit 2; }
IFS=, read -r -a workload_list <<<"$workloads"
[[ ${#workload_list[@]} -gt 0 ]] || { echo "no workload named: $workloads" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
cd "$root"
parent_commit=$(git rev-parse --verify "$parent_rev^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/pbp-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
git archive "$parent_commit" | tar -x -C "$work/parent"
git ls-files -z --cached --others --exclude-standard \
  | while IFS= read -r -d '' f; do if [[ -e $f ]]; then printf '%s\0' "$f"; fi; done \
  | tar -c --null -T - | tar -x -C "$work/change"

for side in parent change; do
  echo "building $side ..." >&2
  # From the copy's root, so its .cargo/config.toml (target-cpu=native)
  # applies as it does to benchmark/run.sh.
  (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" \
    cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml)
done

# The end-to-end metrics a run reports, samples_per_s first.
metrics=(samples_per_s cpu_us_per_sample setup_s peak_rss_mb loss_mean)

# One run of `side` on `workload`; appends each metric's value to
# $work/<side>.<metric> and prints samples_per_s.
run() {
  local side=$1 workload=$2 out m value
  shift 2
  out=$(CARGO_TARGET_DIR="$work/target-$side" \
    "$work/$side/benchmark/run.sh" --workload "$workload" --trace 0 "$@" 2>&1 | tail -n 1 || true)
  if ! grep -q '"correct":true,"attempted":[0-9]*,"failed":0' <<<"$out"; then
    echo "$side run of $workload failed or reported failed operations:" >&2
    echo "$out" >&2
    exit 1
  fi
  for m in "${metrics[@]}"; do
    value=$(grep -o "\"$m\":{\"value\":[0-9.eE+-]*" <<<"$out" | head -n 1 | sed 's/.*://')
    echo "${value:-nan}" >>"$work/$side.$m"
  done
  tail -n 1 "$work/$side.samples_per_s"
}

# Median and quartiles by linear interpolation between order statistics.
quartiles() {
  sort -g "$1" | awk '{ x[NR] = $1 }
    function q(f,   h, i) { h = (NR - 1) * f + 1; i = int(h); return i >= NR ? x[NR] : x[i] + (h - i) * (x[i + 1] - x[i]) }
    END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

for workload in "${workload_list[@]}"; do
  for side in parent change; do
    for m in "${metrics[@]}"; do : >"$work/$side.$m"; done
  done
  echo "parent $parent_commit vs the current checkout: $workload, $pairs pairs" \
    "${*:+(ledger args: $*)}"
  printf '%-5s %-7s %14s %14s %8s\n' pair first parent change ratio
  : >"$work/first"
  for ((p = 1; p <= pairs; p++)); do
    # ABBA, BAAB, ABBA, ...: the parent runs first in pairs 1, 4, 5, 8, ...
    if (((p - 1) / 2 % 2 == (p - 1) % 2)); then first=parent; else first=change; fi
    echo "$first" >>"$work/first"
    if [[ $first == parent ]]; then
      a=$(run parent "$workload" "$@") b=$(run change "$workload" "$@")
    else
      b=$(run change "$workload" "$@") a=$(run parent "$workload" "$@")
    fi
    awk -v p="$p" -v f="$first" -v a="$a" -v b="$b" \
      'BEGIN { printf "%-5d %-7s %14.1f %14.1f %8.3f\n", p, f, a, b, b / a }'
  done
  read -r pq1 pmed pq3 < <(quartiles "$work/parent.samples_per_s")
  read -r cq1 cmed cq3 < <(quartiles "$work/change.samples_per_s")
  pair_up() { paste "$work/parent.samples_per_s" "$work/change.samples_per_s"; }
  wins=$(pair_up | awk '$2 > $1 { n++ } END { print n + 0 }')
  losses=$(pair_up | awk '$2 < $1 { n++ } END { print n + 0 }')
  echo "samples_per_s  parent median $pmed [q1 $pq1, q3 $pq3]  change median $cmed [q1 $cq1, q3 $cq3]"
  awk -v pm="$pmed" -v cm="$cmed" -v pq1="$pq1" -v pq3="$pq3" -v w="$wins" -v l="$losses" -v n="$pairs" \
    'BEGIN { printf "change wins %d of %d pairs (%d losses); median %+.1f%%, gap %.1f vs parent quartile distance %.1f\n",
             w, n, l, 100 * (cm - pm) / pm, cm - pm, pq3 - pq1 }'
  paste "$work/first" "$work/parent.samples_per_s" "$work/change.samples_per_s" | awk '
    { n[$1]++; if ($3 > $2) w[$1]++ }
    END { printf "wins by first runner: parent first %d of %d, change first %d of %d\n",
          w["parent"], n["parent"], w["change"], n["change"] }'
  for m in samples_per_s cpu_us_per_sample; do
    paste "$work/parent.$m" "$work/change.$m" | awk '$1 > 0 && $2 > 0 { print log($2 / $1) }' \
      | sort -g | awk -v m="$m" '{ x[NR] = $1 }
      END {
        n = NR
        if (n == 0) { printf "%-18s no paired values\n", m; exit }
        med = n % 2 ? x[(n + 1) / 2] : (x[n / 2] + x[n / 2 + 1]) / 2
        # Sign-test interval [x_k, x_(n+1-k)]: the largest k whose two
        # tails, P(Bin(n, 1/2) <= k - 1) each, leave at least 95 % (k = 1,
        # the extremes, when even they leave less).
        p = 0.5 ^ n; cdf = p; k = 1
        for (j = 1; j < n / 2; j++) {
          p = p * (n - j + 1) / j
          if (2 * (cdf + p) > 0.05) break
          cdf += p; k = j + 1
        }
        cover = 1 - 2 * cdf
        printf "%-18s median log-ratio %+.4f (%+.1f%%), interval [%+.4f, %+.4f] at %.1f%% sign-test coverage\n",
          m, med, 100 * (exp(med) - 1), x[k], x[n + 1 - k], 100 * cover
      }'
  done
  for m in "${metrics[@]:1}"; do
    read -r _ pm _ < <(quartiles "$work/parent.$m")
    read -r _ cm _ < <(quartiles "$work/change.$m")
    awk -v m="$m" -v pm="$pm" -v cm="$cm" \
      'BEGIN { printf "%-18s parent median %12.6g  change median %12.6g  (%+.1f%%)\n",
               m, pm, cm, pm == 0 ? 0 : 100 * (cm - pm) / pm }'
  done
  echo
done
