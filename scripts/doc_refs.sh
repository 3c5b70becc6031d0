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
#   * a backticked `pg_<crate>::<name>` path (also `…::<name>::<item>`) names a
#     `pub mod`, a `pub` item or a `pub use` re-export of that crate's lib.rs,
#     the crate found by its Cargo.toml `name` (`-` as `_`), and an `<item>`
#     of such a module is one in that module's file.
# Over README.md only: every row of the example table (`| Example |`) names
# an examples/*.rs file, and every such file has a row; and a `--flag` on a (continuation-joined) line that runs
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

# Crate paths against what each crate's lib.rs (and a module's file) exports.
exports() { # <file>: names declared pub there or re-exported by a `pub use`
    awk '
        /^pub use / { on = 1 }
        on {
            line = $0; sub(/^pub use /, "", line); gsub(/[{};]/, " ", line); gsub(/ as /, " ", line)
            n = split(line, parts, /[ ,]+/)
            for (i = 1; i <= n; i++) { w = parts[i]; sub(/^.*::/, "", w); if (w != "") print w }
            if ($0 ~ /;/) on = 0
            next
        }
        match($0, /^pub ((unsafe|const|async) )*(mod|fn|struct|enum|trait|type|const|static|union) [A-Za-z_][A-Za-z0-9_]*/) {
            d = substr($0, RSTART, RLENGTH); sub(/^.* /, "", d); print d
        }
    ' "$1"
}
declare -A crate_dir
for toml in crates/*/Cargo.toml; do
    name=$(awk -F'"' '/^name = / { gsub(/-/, "_", $2); print $2; exit }' "$toml")
    crate_dir[$name]=$(dirname "$toml")/src
done
while IFS=$'\t' read -r at tok; do
    [[ $tok =~ ^(pg_[a-z_]+)::([a-z_A-Z][A-Za-z0-9_]*)(::([A-Za-z_][A-Za-z0-9_]*))?(::.*)?(\(\))?$ ]] || continue
    krate=${BASH_REMATCH[1]} first=${BASH_REMATCH[2]} second=${BASH_REMATCH[4]}
    src=${crate_dir[$krate]:-}
    if [ -z "$src" ]; then
        complain "$at: \`$tok\`: no crate named $krate"
        continue
    fi
    if ! exports "$src/lib.rs" | grep -qx -- "$first"; then
        complain "$at: \`$tok\`: $krate exports no $first"
    elif [ -n "$second" ] && [ -f "$src/$first.rs" ] && ! exports "$src/$first.rs" | grep -qx -- "$second"; then
        complain "$at: \`$tok\`: $krate::$first has no pub $second"
    fi
done < <(spans "${docs[@]}")

# README's example table against examples/.
table=$(awk '/^\| Example \|/ { on = 1; next } on && !/^\|/ { exit } on && match($0, /^\| `[a-z_0-9]+`/) { print substr($0, RSTART + 3, RLENGTH - 4) }' README.md)
for ex in $table; do
    [ -f "examples/$ex.rs" ] || complain "README.md: example \`$ex\`: no examples/$ex.rs"
done
for f in examples/*.rs; do
    ex=$(basename "$f" .rs)
    grep -qx -- "$ex" <<<"$table" || complain "README.md: $f has no row in the example table"
done

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
