#!/usr/bin/env bash
# Net first-party non-test code lines between two git revisions, per file.
#
# A line of a `.rs` file counts when it is neither blank nor a `//`
# comment (doc comments included) and sits above the file's unit-test
# module: the first `#[cfg(test)]` whose next line opens a `mod`. From
# that attribute down nothing counts; a `#[cfg(test)]` on a single item
# higher up does not end the count. Files under `tests/` or `benches/`
# directories are test code and are skipped.
#
# usage: scripts/nontest_loc.sh BASE [HEAD] [-- PATH...]
#   BASE   git revision to count from
#   HEAD   git revision to count to (default: the working tree)
#   PATH   path prefixes or shell patterns to count
#          (default: crates/*/src examples)
#
# Prints one row per file whose count changed (base, head, delta), then
# the total over every matched file.
set -euo pipefail

usage() {
    sed -n '11,15p' "$0" >&2
    exit 2
}

[ $# -ge 1 ] || usage
base=$1
shift
head=
if [ $# -ge 1 ] && [ "$1" != "--" ]; then
    head=$1
    shift
fi
if [ $# -ge 1 ]; then
    [ "$1" = "--" ] || usage
    shift
fi
paths=("$@")
[ ${#paths[@]} -gt 0 ] || paths=('crates/*/src' examples)

cd "$(git rev-parse --show-toplevel)"

# The .rs files of one side that match a path and are not test code.
list() {
    if [ -n "$1" ]; then
        git ls-tree -r --name-only "$1"
    else
        git ls-files --cached --others --exclude-standard
    fi | while read -r f; do
        case $f in
        *.rs) ;;
        *) continue ;;
        esac
        case /$f in
        */tests/* | */benches/*) continue ;;
        esac
        for p in "${paths[@]}"; do
            # shellcheck disable=SC2053 # the path is a pattern on purpose
            if [[ $f == $p/* || $f == $p ]]; then
                echo "$f"
                break
            fi
        done
    done
}

# Counted lines of one file at one side (0 when absent).
count() {
    if [ -n "$1" ]; then
        git show "$1:$2" 2>/dev/null || true
    else
        cat "$2" 2>/dev/null || true
    fi | awk '
        held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { exit }
        held { n++; held = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total_base=0
total_head=0
printf '%-56s %7s %7s %7s\n' file base head delta
while read -r f; do
    b=$(count "$base" "$f")
    h=$(count "$head" "$f")
    total_base=$((total_base + b))
    total_head=$((total_head + h))
    if [ "$b" -ne "$h" ]; then
        printf '%-56s %7d %7d %+7d\n' "$f" "$b" "$h" $((h - b))
    fi
done < <({ list "$base"; list "$head"; } | sort -u)
printf '%-56s %7d %7d %+7d\n' total "$total_base" "$total_head" $((total_head - total_base))
