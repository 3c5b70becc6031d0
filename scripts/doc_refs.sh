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
#   * a backticked CamelCase name (`HiveSession`, `Registry`) is declared
#     (struct, enum, trait, fn, type, const, static) in a tracked .rs file
#     or is an enum variant there, and so is the type of a `Type::item`
#     (also `path::Type::item`, `Type::item()`, `Type::{a, b}`), whose
#     items are declared as a fn or const, or appear as a field or an enum
#     variant — except the standard-library names in `std_names`;
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

# Type and function names against what the Rust sources declare.
mapfile -t rs < <(grep -E '\.rs$' <<<"$files")
declared_names=$(grep -hoE '^\s*(pub(\([a-z]+\))? )?((unsafe|const|async|extern "C") )*(struct|enum|trait|fn|type|const|static|union) [A-Za-z_][A-Za-z0-9_]*' "${rs[@]}" |
    awk '{ print $NF }' | sort -u)
members=$(grep -hoE '^\s*((pub(\([a-z]+\))? )?[a-z_][a-z0-9_]*:|[A-Z][A-Za-z0-9]*(\(| \{|,|$))' "${rs[@]}" |
    sed -E 's/^\s*(pub(\([a-z]+\))? )?//; s/[:({, ]+$//' | sort -u)
std_names=" Arc AtomicBool BTreeMap Box Cow Debug Eq ErrorKind FromIterator Hash HashMap HashSet
    IntoIterator None Ok Option Ord Result Some String Sum Vec "
is_declared() { [[ $std_names == *" $1 "* ]] || grep -qx -- "$1" <<<"$declared_names"; }
while IFS=$'\t' read -r at tok; do
    tok=${tok%()}
    if [[ $tok =~ ^[A-Z][a-z0-9]+([A-Z][a-z0-9]*)*$ ]]; then
        is_declared "$tok" || grep -qx -- "$tok" <<<"$members" ||
            complain "$at: \`$tok\`: no type, function or variant of that name"
    elif [[ $tok =~ ^([a-z_][a-z0-9_]*::)*([A-Z][A-Za-z0-9]*)::(\{([a-z_A-Z0-9, ]+)\}|[A-Za-z_][A-Za-z0-9_]*)$ ]]; then
        ty=${BASH_REMATCH[2]} items=${BASH_REMATCH[4]:-${BASH_REMATCH[3]}}
        [[ $std_names != *" $ty "* ]] || continue
        if ! is_declared "$ty"; then
            complain "$at: \`$tok\`: no type named $ty"
            continue
        fi
        for item in ${items//,/ }; do
            is_declared "$item" || grep -qx -- "$item" <<<"$members" ||
                complain "$at: \`$tok\`: $ty has no item $item"
        done
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
