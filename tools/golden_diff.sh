#!/usr/bin/env bash
# Names the fields that moved when golden_test fails.
#
# golden_test writes each mismatching bug's computed block to
# <dir>/<NN>-<bug>.txt (next to the test binary). This diffs every such block
# against that bug's lines in tests/data/catalogue_golden.txt, then lists
# each key=value field that differs as "<line kind> <field>: old -> new". It
# prints nothing when no block was written.
#
# Usage: tools/golden_diff.sh [dir]   (default build/tests/catalogue_golden.actual)
set -u
root="$(cd "$(dirname "$0")/.." && pwd)"
dir="${1:-build/tests/catalogue_golden.actual}"
golden="$root/tests/data/catalogue_golden.txt"
for actual in "$dir"/*.txt; do
  [ -e "$actual" ] || continue
  bug="$(head -n 1 "$actual" | cut -d' ' -f1)"
  echo "=== $bug ($actual)"
  diff <(awk -v bug="$bug" '$1 == bug' "$golden") "$actual"
  awk -v bug="$bug" '
    FNR == 1 { file++ }
    $1 == bug {
      for (i = 3; i <= NF; i++) {
        eq = index($i, "=")
        key = $2 " " substr($i, 1, eq - 1)
        if (file == 1) { want[key] = substr($i, eq + 1); order[++n] = key }
        else { got[key] = substr($i, eq + 1) }
      }
    }
    END {
      for (j = 1; j <= n; j++) {
        key = order[j]
        now = (key in got) ? got[key] : "(missing)"
        if (now != want[key]) print "  " key ": " want[key] " -> " now
      }
    }' "$golden" "$actual"
done
exit 0
