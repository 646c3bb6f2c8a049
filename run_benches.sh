#!/bin/bash
# Runs bench binaries sequentially, echoing a banner per binary, and
# assembles the machine-readable rows the benches emit (via
# PRISM_BENCH_JSON, see bench/bench_util.h) into ONE document, grouped
# by figure tag: $PRISM_BENCH_OUT, default BENCH_pr4.json.
#
# Committed BENCH_pr<N>.json files from earlier PRs are immutable
# baselines for scripts/bench_compare.py — this script never rewrites
# them. (It used to regenerate every document on every run, so a
# filtered run would silently replace a full baseline with a partial
# row set.) To regenerate an old document on purpose:
#   PRISM_BENCH_OUT=BENCH_pr2.json ./run_benches.sh fig16 fig12
#
# Usage: ./run_benches.sh [name-filter ...]
#   With no arguments every build/bench/* binary runs and the document
#   is assembled; with filters, only matching binaries run and the
#   document is only assembled when PRISM_BENCH_OUT is set (a partial
#   run makes a partial document, which must be opted into).
#
# PRISM_IO_BACKEND={sim,posix,uring,auto} runs Prism against a real-
# file I/O backend instead of the simulator (docs/IO_BACKENDS.md); the
# rows then carry a "backend" field and the default document is NOT
# assembled — real-file rows are a different machine, not a new
# simulator baseline. Set PRISM_BENCH_OUT explicitly to collect them.
cd "$(dirname "$0")"

OUT="${PRISM_BENCH_OUT:-}"
BACKEND="${PRISM_IO_BACKEND:-sim}"
if [ -z "$OUT" ] && [ "$#" -eq 0 ] && [ "$BACKEND" = sim ]; then
  OUT=BENCH_pr4.json
fi

ROWS=$(mktemp /tmp/prism_bench_rows.XXXXXX)
trap 'rm -f "$ROWS"' EXIT
export PRISM_BENCH_JSON="$ROWS"

for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  if [ "$#" -gt 0 ]; then
    keep=0
    for f in "$@"; do
      case "$(basename "$b")" in *"$f"*) keep=1 ;; esac
    done
    [ "$keep" = 1 ] || continue
  fi
  echo ""
  echo "##### $(basename $b) #####"
  timeout 1800 "$b" 2>&1
  echo "##### exit=$? #####"
done

# Regroup the JSON-lines rows into one document, one array per figure
# tag, in first-seen order.
if [ -n "$OUT" ] && [ -s "$ROWS" ]; then
  awk '
    match($0, /"figure": ?"[A-Za-z0-9_]+"/) {
      tag = substr($0, RSTART, RLENGTH)
      sub(/^"figure": ?"/, "", tag)
      sub(/"$/, "", tag)
      if (!(tag in cnt)) order[n++] = tag
      rows[tag, cnt[tag]++] = $0
    }
    END {
      print "{"
      for (i = 0; i < n; i++) {
        tag = order[i]
        printf "  \"%s\": [\n", tag
        for (j = 0; j < cnt[tag]; j++)
          printf "    %s%s\n", rows[tag, j], (j + 1 < cnt[tag] ? "," : "")
        printf "  ]%s\n", (i + 1 < n ? "," : "")
      }
      print "}"
    }
  ' "$ROWS" > "$OUT"
  echo ""
  echo "##### wrote $OUT ($(grep -c '"figure"' "$ROWS") rows) #####"
elif [ -s "$ROWS" ]; then
  echo ""
  echo "##### filtered or non-sim run: not assembling a document (set PRISM_BENCH_OUT to opt in) #####"
fi
