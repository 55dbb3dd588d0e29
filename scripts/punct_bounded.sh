#!/usr/bin/env bash
# Bounded state includes the punctuation store: `peak_punct_entries` of the
# two gated workloads that punctuate by value must not follow the feed's
# length. Runs each at --shrink 1 and --shrink 4 (seed 7, 2 s, tracing off)
# and compares the counter, which repeats exactly for a seed.
#
# Expected figures:
#   auction_punct   64 at both sizes: `concurrent` auctions are open at a
#                   sample, each holding at most its two punctuations, and a
#                   closed auction's pair is forgotten (§5.1).
#   multi_tenant16  0 at both sizes: the schemes on t0.w and t1.w, which no
#                   tenant's predicate reads, store nothing (their
#                   punctuations are counted dropped as they come), and the
#                   six schemes some tenant reads leave none behind at a
#                   sample.
#
#   scripts/punct_bounded.sh
set -euo pipefail
cd "$(dirname "$0")/.."

read -r -a cmd < <(python3 -c 'import json; print(" ".join(json.load(open("BENCHMARK.json"))["command"]))')

peak() { # workload shrink
    "${cmd[@]}" --workload "$1" --seed 7 --seconds 2 --trace 0 --shrink "$2" |
        awk '$1 == "metric" && $2 == "peak_punct_entries" { print int($3) }'
}

status=0
expect() { # workload shrink entries
    got=$(peak "$1" "$2")
    printf '%-16s --shrink %d  peak_punct_entries %6s (expected %s)\n' "$1" "$2" "$got" "$3"
    if [ "$got" != "$3" ]; then
        echo "$1 at --shrink $2: the punctuation store follows the feed" >&2
        status=1
    fi
}

expect auction_punct 1 64
expect auction_punct 4 64
expect multi_tenant16 1 0
expect multi_tenant16 4 0
exit $status
