#!/bin/sh
# Counts Rust lines outside tests, per crate and in total: the lines of each
# `.rs` file before its first `#[cfg(test)]`, over the files that git
# tracks or would track (untracked but not ignored) and that are not under
# a `tests/` directory. Files outside `crates/` count as the root package,
# `.`. ROADMAP.md's "outside tests" line counts are the total.
#
# Usage: scripts/loc.sh [TREE]   (TREE: a git checkout; default this repo)
set -eu

cd "${1:-$(dirname "$0")/..}"

git ls-files --cached --others --exclude-standard -- '*.rs' |
    grep -v '\(^\|/\)tests/' |
    while read -r f; do
        case "$f" in
        crates/*) c="$(echo "$f" | cut -d/ -f2)" ;;
        *) c=. ;;
        esac
        awk -v c="$c" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            { n++ } END { print c, n + 0 }' "$f"
    done |
    awk '{ s[$1] += $2; t += $2 }
        END { for (c in s) printf "%-8s %7d\n", c, s[c]; printf "total    %7d\n", t }' |
    sort -k1,1 | awk '$1 != "total"; $1 == "total" { total = $0 } END { print total }'
