#!/usr/bin/env bash
# The masked depth sweep (ROADMAP, sweep protocol) on two source trees, as
# a Markdown report.
#
#     bash tools/sweep_diff.sh BASE_SRC HEAD_SRC
#
# Runs tools/depth_sweep.py on each tree, masks the wall figures and the
# slowest cases, and prints the diff of the two outputs, or "no change".
# It exits non-zero only when the sweep fails on either tree: a non-empty
# diff is a report, not a failure.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 BASE_SRC HEAD_SRC" >&2
    exit 2
fi
sweep="$(dirname "$0")/depth_sweep.py"
mask() { python "$sweep" "$1" |
         sed -E 's/[0-9]+\.[0-9]+ s/- s/; s/, slowest .*//'; }
base=$(mask "$1")
head=$(mask "$2")

echo "### Masked depth sweep: $1 against $2"
status=0
changes=$(diff <(printf '%s\n' "$base") <(printf '%s\n' "$head")) || status=$?
case "$status" in
    0) echo "no change" ;;
    1) printf '```diff\n%s\n```\n' "$changes" ;;
    *) exit "$status" ;;
esac
