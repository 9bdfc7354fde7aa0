#!/usr/bin/env bash
# A/B wall-clock comparison of two hotloop binaries under the interleaved
# best-of protocol: N alternating pairs (baseline run, then candidate
# run), each run itself best-of-M reps inside the binary (HOTLOOP_REPS).
# Alternating exposes both binaries to the same slow drift in background
# host load; best-of-M inside each run shields against per-run scheduler
# hiccups. Reports every per-run rate, the medians, and best-vs-best of
# the fast-forward-on rate for each requested scenario.
#
# Usage:
#   scripts/bench_compare.sh BASELINE_BIN CANDIDATE_BIN [scenarios] [pairs] [reps]
#
#   BASELINE_BIN / CANDIDATE_BIN  prebuilt hotloop binaries (e.g. the
#                                 candidate from target/release/hotloop and
#                                 a baseline built from an earlier commit
#                                 in a scratch worktree)
#   scenarios                     comma-separated hotloop scenario names
#                                 (default: every scenario the baseline's
#                                 first run wrote). Every run executes all
#                                 scenarios anyway, so reporting them all
#                                 costs nothing — the rates are pulled from
#                                 the same JSON — and a regression on one
#                                 scenario cannot hide behind a win on
#                                 another.
#   pairs                         alternating A/B pairs, N (default 5)
#   reps                          best-of reps per run, M (default 3)
#
# Exit status is always 0 on a completed measurement; the judgement
# (e.g. a >=1.3x target) is the caller's.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 BASELINE_BIN CANDIDATE_BIN [scenarios] [pairs] [reps]" >&2
  exit 2
fi
A_BIN=$1
B_BIN=$2
SCENARIOS=${3:-}
PAIRS=${4:-5}
REPS=${5:-3}

for bin in "$A_BIN" "$B_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "not an executable: $bin" >&2
    exit 2
  fi
done

TMPDIR_CMP=$(mktemp -d)
trap 'rm -rf "$TMPDIR_CMP"' EXIT

# Pulls the scenario's best-of-reps fast-forward-on rate out of the
# hand-formatted JSON the binary writes (no jq dependency).
rate_of() { # rate_of <json-file> <scenario>
  awk -v want="$2" '
    /"scenario":/ { in_block = index($0, "\"" want "\"") > 0 }
    in_block && /"cycles_per_sec_ff_on":/ {
      gsub(/[^0-9.]/, "", $2); print $2; exit
    }' "$1"
}

median_of() { # median_of <rates...>
  printf '%s\n' "$@" | sort -n | awk '
    { a[NR] = $1 }
    END {
      if (NR % 2) { print a[(NR + 1) / 2] }
      else { printf "%.1f\n", (a[NR / 2] + a[NR / 2 + 1]) / 2 }
    }'
}

best_of() { # best_of <rates...>
  printf '%s\n' "$@" | sort -n | tail -1
}

scenarios_of() { # scenarios_of <json-file> — comma-separated, in run order
  awk -F'"' '/"scenario":/ { printf "%s%s", sep, $4; sep = "," }' "$1"
}

run_one() { # run_one <bin> <out-json>
  # HOTLOOP_FF_GATE=0 waives the wall-clock fast-forward assertion of
  # older baseline binaries; current ones gate on counters only.
  HOTLOOP_REPS=$REPS HOTLOOP_FLOOR=0 HOTLOOP_FF_GATE=0 HOTLOOP_OUT=$2 "$1" >/dev/null
}

echo "interleaving $PAIRS pairs of best-of-$REPS runs"
for i in $(seq 1 "$PAIRS"); do
  run_one "$A_BIN" "$TMPDIR_CMP/a_$i.json"
  run_one "$B_BIN" "$TMPDIR_CMP/b_$i.json"
  if [ -z "${SCENARIO_LIST+set}" ]; then
    SCENARIOS=${SCENARIOS:-$(scenarios_of "$TMPDIR_CMP/a_1.json")}
    IFS=',' read -r -a SCENARIO_LIST <<<"$SCENARIOS"
    echo "scenarios: ${SCENARIO_LIST[*]}"
  fi
  line="  pair $i:"
  for sc in "${SCENARIO_LIST[@]}"; do
    a=$(rate_of "$TMPDIR_CMP/a_$i.json" "$sc")
    b=$(rate_of "$TMPDIR_CMP/b_$i.json" "$sc")
    if [ -z "$a" ] || [ -z "$b" ]; then
      echo "pair $i: scenario '$sc' not found in one of the outputs" >&2
      exit 1
    fi
    printf '%s\n' "$a" >>"$TMPDIR_CMP/rates_a_$sc"
    printf '%s\n' "$b" >>"$TMPDIR_CMP/rates_b_$sc"
    line="$line  $sc ${a}/s vs ${b}/s"
  done
  echo "$line"
done

for sc in "${SCENARIO_LIST[@]}"; do
  mapfile -t A_RATES <"$TMPDIR_CMP/rates_a_$sc"
  mapfile -t B_RATES <"$TMPDIR_CMP/rates_b_$sc"
  A_MED=$(median_of "${A_RATES[@]}")
  B_MED=$(median_of "${B_RATES[@]}")
  A_BEST=$(best_of "${A_RATES[@]}")
  B_BEST=$(best_of "${B_RATES[@]}")
  echo
  echo "scenario $sc"
  echo "  baseline : rates [${A_RATES[*]}]  median $A_MED  best $A_BEST"
  echo "  candidate: rates [${B_RATES[*]}]  median $B_MED  best $B_BEST"
  awk -v am="$A_MED" -v bm="$B_MED" -v ab="$A_BEST" -v bb="$B_BEST" 'BEGIN {
    printf "  speedup (candidate/baseline): median %.3fx   best-vs-best %.3fx\n",
      bm / am, bb / ab
  }'
done
