#!/usr/bin/env bash
# List the public items that only tests use.
#
# An item counts when it is declared `pub` (not `pub(crate)`) as a fn,
# struct, enum, union, trait, type, const or static in a `.rs` file under
# crates/*/src, above that file's unit-test module (the first
# `#[cfg(test)]` whose next line opens a `mod`, as in nontest_loc.sh). It
# is listed when its name appears, as a whole word, on no non-test line
# of crates/*/src, crates/*/benches, examples/ or benchmark/src other
# than a definition of that name. A fn's name must appear called
# (`name(`, `name::<`) or by path (`::name`): reading a field of the
# same name does not count. String literals, comment lines and `pub use`
# re-exports are not appearances; files under `tests/` directories and
# everything below a unit-test module are test code.
#
# The match is by name, so an item whose name is shared with a used one
# (`new`, `len`) is never listed: the scan finds candidates, a reader
# decides.
#
# usage: scripts/testonly_pub.sh
#
# Prints one `file:line: kind name` row per candidate and a count, and
# exits 1 when it lists any (CI runs it as a gate).
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

# Tracked and untracked-but-not-ignored .rs files under the scanned roots,
# test directories left out.
files() {
    git ls-files --cached --others --exclude-standard -- "$@" | while read -r f; do
        case /$f in
        */tests/*) ;;
        *.rs) echo "$f" ;;
        esac
    done
}

mapfile -t defs < <(files 'crates/*/src/*')
mapfile -t corpus < <(files 'crates/*/src/*' 'crates/*/benches/*' examples benchmark/src)

awk '
    # Pass 1 reads the definitions, pass 2 the corpus.
    FNR == 1 { held = 0; intest = 0; inreexport = 0 }
    intest { next }
    held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { intest = 1; next }
    { held = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
    /^[[:space:]]*\/\// { next }
    inreexport { if (/;/) inreexport = 0; next }
    /^[[:space:]]*pub use / { if (!/;/) inreexport = 1; next }
    pass != 2 {
        if (match($0, /^[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|union|trait|type|const|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
            decl = substr($0, RSTART, RLENGTH)
            n = split(decl, w, /[[:space:]]+/)
            name = w[n]; kind = w[n - 1]
            defat[FILENAME ":" FNR] = name
            items[++nitems] = FILENAME ":" FNR ": " kind " " name
            itemname[nitems] = name
            itemfn[nitems] = kind == "fn"
            defined[name] = 1
        }
        next
    }
    {
        self = defat[FILENAME ":" FNR]
        rest = $0
        gsub(/"([^"\\]|\\.)*"/, "\"\"", rest)
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
            t = substr(rest, RSTART, RLENGTH)
            before = substr(rest, 1, RSTART - 1)
            rest = substr(rest, RSTART + RLENGTH)
            if (!(t in defined) || t == self || before ~ /(fn|struct|enum|union|trait|type|const|static)[[:space:]]+$/) continue
            used[t] = 1
            # a fn is used where it is called or named by path, not where
            # a field of the same name is read
            if (rest ~ /^[[:space:]]*(\(|::<)/ || before ~ /::$/) called[t] = 1
        }
    }
    END {
        for (i = 1; i <= nitems; i++) {
            name = itemname[i]
            seen = itemfn[i] ? (name in called) : (name in used)
            if (!seen) { print items[i]; listed++ }
        }
        printf "%d public item(s) used only by tests\n", listed + 0
        exit listed > 0
    }
' pass=1 "${defs[@]}" pass=2 "${corpus[@]}"
