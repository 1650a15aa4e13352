#!/usr/bin/env bash
# Check that this checkout behaves exactly as the commit REV does: the
# refactor proof of the README's Tests section, in one command.
#
#   tools/same_behaviour.sh REV
#
# REV is exported with `git archive` into a temporary directory, and
# `python -m compileall -q src` runs in both trees.  Then:
#
#   1. this checkout's tools/fingerprint.py runs against each tree's src;
#      every key whose record digest or event-log digest differs is
#      printed under its column, and so is a differing `csv` line;
#   2. each tree runs its own `perfbench/run.py --trace 1 --seconds 15`
#      on both workloads at seed 5, and the count and ratio layer lines
#      are compared, leaving out trace.overhead, a timing.  A run whose
#      output check fails counts as a difference.
#
# Exits 0 when nothing differs, 1 when something does, 2 when REV cannot
# be exported.  It takes about a minute and a half on a 2-core host.
set -uo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
rev=$1
here=$(cd "$(dirname "$0")/.." && pwd)
if ! git -C "$here" rev-parse --quiet --verify "$rev^{commit}" > /dev/null; then
    echo "$0: $rev names no commit" >&2
    exit 2
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/rev"
git -C "$here" archive "$rev" | tar -x -C "$work/rev" || exit 2
python3 -m compileall -q "$here/src" "$work/rev/src" || exit 2

status=0

echo "== fingerprint: $rev (before) against this checkout (after)"
PYTHONPATH="$work/rev/src" python3 "$here/tools/fingerprint.py" > "$work/before.txt" || status=1
PYTHONPATH="$here/src" python3 "$here/tools/fingerprint.py" > "$work/after.txt" || status=1
awk '
    NR == FNR { record[$1] = $2; events[$1] = $3; next }
    !($1 in record) { print "key only after: " $1; next }
    $1 == "csv" && $2 != record[$1] { print "csv line differs" }
    $1 != "csv" && $2 != record[$1] { print "record column differs: " $1 }
    $1 != "csv" && $3 != events[$1] { print "event-log column differs: " $1 }
    { delete record[$1] }
    END { for (key in record) print "key only before: " key }
' "$work/before.txt" "$work/after.txt" > "$work/fingerprint.diff"
if [ -s "$work/fingerprint.diff" ]; then
    cat "$work/fingerprint.diff"
    status=1
fi
echo "$(wc -l < "$work/after.txt") lines, $(wc -l < "$work/fingerprint.diff") differences"

layer_counts() {
    grep -E ' (count|ratio) ->' "$1" | grep -v '^trace\.overhead '
}
for workload in sweep-50 scale-2000; do
    echo "== perfbench --trace 1 on $workload, seed 5 (< $rev, > this checkout)"
    for tree in rev here; do
        dir=$work/rev
        [ "$tree" = here ] && dir=$here
        if ! (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed 5 \
                --seconds 15 --trace 1) > "$work/$tree-$workload.txt" 2>&1; then
            echo "output check failed in the $tree tree:"
            grep -E '^(check failed|output check)' "$work/$tree-$workload.txt"
            status=1
        fi
    done
    diff <(layer_counts "$work/rev-$workload.txt") <(layer_counts "$work/here-$workload.txt") \
        || status=1
    echo "$(layer_counts "$work/here-$workload.txt" | wc -l) count and ratio lines compared"
done

if [ "$status" -eq 0 ]; then
    echo "same behaviour as $rev"
else
    echo "behaviour differs from $rev"
fi
exit "$status"
