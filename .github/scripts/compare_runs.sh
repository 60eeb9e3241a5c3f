#!/usr/bin/env bash
# The equivalence check behind the CI smoke jobs:
#
#   .github/scripts/compare_runs.sh <log-a> <journal-a> <log-b> <journal-b>
#
# Two runs of one seeded search are equivalent when their ranking lines
# (RANK and baseline) match and their store journals hold the same record
# history. Binary journals cannot be line-sorted, so both are exported to
# JSONL with build/tools/store_convert and compared as sorted line sets
# (shards, leases and windows may interleave records in any order).
# Run from the repository root after building tool_store_convert.
set -euo pipefail

if [ "$#" -ne 4 ]; then
  echo "usage: $0 <log-a> <journal-a> <log-b> <journal-b>" >&2
  exit 2
fi

rankings() { grep -E '^(RANK|baseline)' "$1"; }
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

rankings "$1" > "$work/a.rank"
rankings "$3" > "$work/b.rank"
diff "$work/a.rank" "$work/b.rank"

./build/tools/store_convert --in "$2" --out "$work/a.jsonl" > /dev/null
./build/tools/store_convert --in "$4" --out "$work/b.jsonl" > /dev/null
test -s "$work/a.jsonl"
diff <(sort "$work/a.jsonl") <(sort "$work/b.jsonl")
echo "equivalent: $1 and $3 ($(wc -l < "$work/a.jsonl") journal records)"
