#!/usr/bin/env bash
# A/B wall-clock comparison of two pimbench binaries by the protocol in
# pimbench/README.md ("A/B protocol"): per workload, PAIRS pairs of
# single-workload runs, alternating which side runs first, each pair on
# a seed of its own that both sides share. The workloads, the end-to-end
# metrics and their bounds are read from BENCHMARK.json.
#
# Usage:
#   scripts/bench_compare.sh PARENT_BIN CHANGE_BIN [workloads] [pairs] [seconds]
#
#   PARENT_BIN / CHANGE_BIN  prebuilt pimbench binaries, e.g. one built in
#                            a copy of the parent commit and one in the
#                            change's tree, each into its own target
#                            directory
#   workloads                comma-separated workload names (default:
#                            every workload in BENCHMARK.json)
#   pairs                    pairs per workload, at least 10, the
#                            protocol's minimum (default 10)
#   seconds                  pimbench --seconds of every run (default:
#                            BENCHMARK.json's run_seconds)
#
# Pair i runs seed i on both sides; the parent goes first in odd pairs,
# the change in even ones. Every run prints its end-to-end metrics and
# failed-sample count as it finishes. Then, per workload and metric, one
# summary line:
#
#   workload metric parent change wins parent_iqr spread failed verdict
#
#   parent, change  the two sides' medians over the pairs
#   wins            pairs the change won, of all pairs (ties count for
#                   neither side)
#   parent_iqr      the parent's interquartile range (the exclusive
#                   method of Python's statistics.quantiles), and spread
#                   that IQR over the parent's median
#   failed          failed samples summed over all runs, parent/change
#   verdict         the first that holds of
#                   gain        the change won at least 9 in 10 pairs,
#                               its median beats the parent's by more than
#                               the parent's IQR, and it failed no more
#                               samples than the parent
#                   unresolved  the parent's spread exceeds the metric's
#                               bound and some run of the change does not
#                               beat every run of the parent
#                   worse       the change's median is worse than the
#                               parent's by more than the bound
#                   no change   otherwise
#
# Exit status: 0 on a completed measurement, whatever the verdicts; 1 if
# a run printed no result line or a metric is missing from it; 2 on a
# usage error.
set -euo pipefail

SPEC="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

usage() {
  echo "usage: $0 PARENT_BIN CHANGE_BIN [workloads] [pairs] [seconds]" >&2
  exit 2
}

[ $# -ge 2 ] && [ $# -le 5 ] || usage
PARENT_BIN=$1
CHANGE_BIN=$2
for bin in "$PARENT_BIN" "$CHANGE_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "not an executable: $bin" >&2
    exit 2
  fi
done

# BENCHMARK.json is hand-formatted with one array entry per line, so awk
# reads it without a JSON parser: the `name` (and `better`, `bound`) of
# every entry of one top-level array.
spec_entries() { # spec_entries <array>
  awk -F'"' -v array="$1" '
    $0 ~ "\"" array "\":" { on = 1; next }
    on && /^[[:space:]]*\]/ { exit }
    on && /"name":/ {
      name = better = bound = ""
      for (i = 1; i < NF; i++) {
        if ($i == "name") name = $(i + 2)
        if ($i == "better") better = $(i + 2)
        if ($i == "bound") { bound = $(i + 1); gsub(/[^0-9.]/, "", bound) }
      }
      print name, better, bound
    }' "$SPEC"
}

mapfile -t SPEC_WORKLOADS < <(spec_entries workloads | awk '{ print $1 }')
mapfile -t METRICS < <(spec_entries end_to_end)
if [ ${#SPEC_WORKLOADS[@]} -eq 0 ] || [ ${#METRICS[@]} -eq 0 ]; then
  echo "no workloads or end-to-end metrics found in $SPEC" >&2
  exit 2
fi

if [ -n "${3:-}" ]; then
  IFS=',' read -r -a WORKLOADS <<<"$3"
  for w in "${WORKLOADS[@]}"; do
    case " ${SPEC_WORKLOADS[*]} " in
      *" $w "*) ;;
      *) echo "unknown workload '$w' (BENCHMARK.json has: ${SPEC_WORKLOADS[*]})" >&2; exit 2 ;;
    esac
  done
else
  WORKLOADS=("${SPEC_WORKLOADS[@]}")
fi
PAIRS=${4:-10}
RUN_SECONDS=${5:-$(awk -F'[:,]' '/"run_seconds":/ { gsub(/[^0-9.]/, "", $2); print $2 }' "$SPEC")}
case $PAIRS in '' | *[!0-9]*) usage ;; esac
[ "$PAIRS" -ge 10 ] || usage

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# `key`'s value in pimbench's result line, the last line it prints:
#   {"correct": …, "attempted": …, "failed": N, "metrics": {"run_s": {"value": V, …}, …}}
field() { # field <result-line> <key>
  awk -v key="$2" '{
    i = index($0, key)
    if (i) { rest = substr($0, i + length(key)); sub(/[,}].*/, "", rest); print rest }
  }' <<<"$1"
}

run_one() { # run_one <side> <bin> <workload> <seed>
  local side=$1 out=$TMP/out err=$TMP/err result line
  # pimbench exits 1 when a sample failed; its result line still counts.
  "$2" --workload "$3" --seed "$4" --seconds "$RUN_SECONDS" --trace 0 >"$out" 2>"$err" || true
  result=$(grep '^{"correct"' "$out" | tail -1 || true)
  if [ -z "$result" ]; then
    echo "$side ($2) printed no result line on $3, seed $4:" >&2
    cat "$err" >&2
    exit 1
  fi
  line="  $3 seed $4 $side:"
  for m in "${METRICS[@]%% *}" failed; do
    key="\"$m\": {\"value\": "
    if [ "$m" = failed ]; then key='"failed": '; fi
    v=$(field "$result" "$key")
    if [ -z "$v" ]; then
      echo "$side ($2) printed no $m on $3, seed $4: $result" >&2
      exit 1
    fi
    echo "$v" >>"$TMP/$side.$m"
    line="$line $m $v"
  done
  echo "$line"
}

# One summary line from the parent's and the change's values, in pair
# order, one per line.
summarize() { # summarize <workload> <metric> <better> <bound> <failed> <parent-file> <change-file>
  awk -v w="$1" -v m="$2" -v better="$3" -v bound="$4" -v failed="$5" '
    function sort(a, n,    i, j, t) {
      for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
      }
    }
    function median(a, n) {
      return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    # statistics.quantiles(a, n=4)[k - 1], exclusive method, a sorted.
    function quartile(a, n, k,    j, d) {
      j = int(k * (n + 1) / 4)
      if (j < 1) j = 1
      if (j > n - 1) j = n - 1
      d = k * (n + 1) - 4 * j
      return (a[j] * (4 - d) + a[j + 1] * d) / 4
    }
    # How much better x is than y, in the direction the metric improves.
    function gain(x, y) { return better == "lower" ? y - x : x - y }
    FNR == NR { p[FNR] = $1 + 0; n = FNR; next }
    { c[FNR] = $1 + 0 }
    END {
      wins = 0
      for (i = 1; i <= n; i++) if (gain(c[i], p[i]) > 0) wins++
      sort(p, n); sort(c, n)
      pm = median(p, n); cm = median(c, n)
      iqr = n > 1 ? quartile(p, n, 3) - quartile(p, n, 1) : 0
      spread = pm != 0 ? iqr / pm : 0
      # Every run of the change beats every run of the parent.
      dominates = better == "lower" ? gain(c[n], p[1]) > 0 : gain(c[1], p[n]) > 0
      split(failed, f, "/")
      if (10 * wins >= 9 * n && gain(cm, pm) > iqr && f[2] + 0 <= f[1] + 0) verdict = "gain"
      else if (spread > bound && !dominates) verdict = "unresolved"
      else if (pm != 0 && -gain(cm, pm) / pm > bound) verdict = "worse"
      else verdict = "no change"
      printf "%-16s %-12s %10.4g %10.4g %7s %10.4g %6.1f%% %7s  %s\n",
        w, m, pm, cm, wins "/" n, iqr, 100 * spread, failed, verdict
    }' "$6" "$7"
}

echo "$PAIRS pairs per workload, --seconds $RUN_SECONDS, parent $PARENT_BIN, change $CHANGE_BIN"
SUMMARY=$TMP/summary
for w in "${WORKLOADS[@]}"; do
  rm -f "$TMP"/parent.* "$TMP"/change.*
  for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) -eq 1 ]; then
      run_one parent "$PARENT_BIN" "$w" "$i"
      run_one change "$CHANGE_BIN" "$w" "$i"
    else
      run_one change "$CHANGE_BIN" "$w" "$i"
      run_one parent "$PARENT_BIN" "$w" "$i"
    fi
  done
  failed=$(awk 'FNR == NR { p += $1; next } { c += $1 } END { print p "/" c }' \
    "$TMP/parent.failed" "$TMP/change.failed")
  for spec in "${METRICS[@]}"; do
    read -r m better bound <<<"$spec"
    summarize "$w" "$m" "$better" "$bound" "$failed" "$TMP/parent.$m" "$TMP/change.$m" >>"$SUMMARY"
  done
done

echo
printf '%-16s %-12s %10s %10s %7s %10s %7s %7s  %s\n' \
  workload metric parent change wins parent_iqr spread failed verdict
cat "$SUMMARY"
