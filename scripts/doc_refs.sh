#!/usr/bin/env bash
# Do the documents still point at things that exist?
#
#   scripts/doc_refs.sh                  # one line per dangling reference; exit 1 if any
#
# Over ROADMAP.md, README.md and DESIGN.md:
#   * a backticked `path/file.ext` (rs, sh, py, toml, yml, json, txt, md,
#     allow) names a tracked file — by its path from the repository root or
#     from `crates/`, or, without a directory, by its base name anywhere;
#   * `file.rs:N` (also `file.rs:N–M`) names a file with at least that many lines;
#   * a CI job cited as "CI `name`", "`name` job" or "CI job `name`" is a
#     job of .github/workflows/ci.yml.
# Over README.md only: a `--flag` on a (continuation-joined) line that runs
# `pg-hive` is a flag some command declares in crates/cli/src/opts.rs, and
# one in a backticked span that starts with it is that or a flag of another
# of the repository's binaries (pg-bench, pg-eval, the harness).
# A reference to something a sentence says is gone ("deleted", "removed",
# "gone", "was", "former", "no longer") is history, not a pointer, and is
# skipped. grep and awk only.
set -euo pipefail
cd "$(dirname "$0")/.."
docs=(ROADMAP.md README.md DESIGN.md)
files=$(git ls-files -co --exclude-standard)
status=0
complain() {
    echo "$1"
    status=1
}

# `tok` at doc:line — one record per backticked span.
spans() {
    awk '
        /(deleted|removed|gone|[^a-z]was[^a-z]|former|no longer)/ { next }
        {
            rest = $0
            while (match(rest, /`[^`]+`/)) {
                print FILENAME ":" FNR "\t" substr(rest, RSTART + 1, RLENGTH - 2)
                rest = substr(rest, RSTART + RLENGTH)
            }
        }
    ' "$@"
}

while IFS=$'\t' read -r at tok; do
    # Paths and path:line references.
    if [[ $tok =~ ^([A-Za-z0-9_./-]+\.(rs|sh|py|toml|yml|json|txt|md|allow))(:([0-9]+)([–-][0-9]+)?)?$ ]]; then
        path=${BASH_REMATCH[1]} line=${BASH_REMATCH[4]}
        [[ $path == */* || $path == *.rs || $path == *.sh ]] || continue
        case $path in
        */*) found=$(grep -xE "(crates/)?$path" <<<"$files" || true) ;;
        *) found=$(grep -E "(^|/)$path\$" <<<"$files" || true) ;;
        esac
        if [ -z "$found" ]; then
            complain "$at: \`$tok\`: no such file"
        elif [ -n "$line" ]; then
            longest=$(xargs wc -l <<<"$found" | awk '$2 != "total" && $1 > m { m = $1 } END { print m + 0 }')
            [ "$longest" -ge "$line" ] || complain "$at: \`$tok\`: file has $longest lines"
        fi
    fi
done < <(spans "${docs[@]}")

# CI job names.
jobs=$(awk '/^jobs:/ { on = 1; next } on && /^  [a-z-]+:$/ { sub(/:/, ""); print $1 }' .github/workflows/ci.yml)
while IFS=$'\t' read -r at name; do
    grep -qx -- "$name" <<<"$jobs" || complain "$at: CI job \`$name\`: not in ci.yml"
done < <(grep -noE 'CI( job)? `[a-z][a-z-]+`|`[a-z][a-z-]+` (CI )?job' "${docs[@]}" |
    sed -E 's/^([^:]+:[0-9]+):[^`]*`([a-z-]+)`.*/\1\t\2/')

# README flags against the declared flags.
declared=$(grep -oE '\("--[a-z-]+", (true|false)\)' crates/cli/src/opts.rs | grep -oE -- '--[a-z-]+' | sort -u)
elsewhere=$(grep -ohE -- '"--[a-z][a-z-]*"' crates/bench/src/bin/*.rs crates/eval/src/bin/*.rs \
    crates/eval/src/*.rs benchmark/src/main.rs | tr -d '"' | sort -u)
check_flags() { # <at> <text> <flags it may use> <what they are>
    local f
    for f in $(grep -oE -- '(^|[ `[|(])--[a-z][a-z-]*' <<<"$2" | grep -oE -- '--[a-z-]+' | sort -u); do
        grep -qx -- "$f" <<<"$3" || complain "$1: \`$f\`: $4"
    done
}
while IFS=$'\t' read -r at tok; do
    [[ $tok != --* ]] || check_flags "$at" "$tok" "$declared"$'\n'"$elsewhere" "no binary here takes it"
done < <(spans README.md)
while IFS=$'\t' read -r at text; do
    check_flags "$at" "${text#*pg-hive }" "$declared" "no pg-hive command takes it"
done < <(awk '
    { line = line $0; if (sub(/\\$/, " ", line)) { if (!start) start = FNR; next } }
    { if (line ~ /(^|[ \/])pg-hive [a-z]/ && line !~ /cargo (run|build|test|bench)/) print FILENAME ":" (start ? start : FNR) "\t" line
      line = ""; start = 0 }
' README.md)
exit $status
