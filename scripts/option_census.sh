#!/usr/bin/env bash
# Option census: for every independently settable value, who sets it?
#
#   scripts/option_census.sh            # table on stdout; exit 1 on an orphan
#   scripts/option_census.sh > results/option_census.txt   # the tracked copy
#
# Rows: every `pub` field of HiveConfig, StreamConfig, SessionSpec and
# ServerConfig, and every flag of `command_flags` in crates/cli/src/opts.rs.
# A field is *set* where shipped code — any crate's src/ except the bench
# and paper-experiment crates, each file read up to its `#[cfg(test)]`
# module, the struct's own definition and `Default` impl skipped — names it
# in a literal of its struct, assigns `x.field =` in a file that mentions the
# struct (never `self.field =`, a builder or another type's own field; never
# `x.field = x.field.max(1)`, a clamp) or calls the struct's `.with_field(`
# builder — so tests, examples and benches never keep an option alive. A flag is *passed*
# where the harness, a script or the CI workflow spells it (attributed to
# every command that takes a flag of that name; the harness's own parser
# arms are skipped). An option nobody sets is an orphan: delete it, or list
# it in scripts/option_census.allow as `<row name><TAB or spaces><reason>`.
# An allow line whose option is set after all is an error too, and so is one
# that names no row (its option is gone), so the list stays as short as
# what is true. grep and awk only.
set -euo pipefail
cd "$(dirname "$0")/.."
allow=scripts/option_census.allow

mapfile -t shipped < <(find crates -path '*/src/*' -name '*.rs' \
    ! -path 'crates/bench/*' ! -path 'crates/eval/*' | sort)
mapfile -t callers < <(ls benchmark/src/*.rs benchmark/run.sh benchmark/spread.py \
    scripts/*.sh .github/workflows/ci.yml | grep -v -e option_census.sh -e doc_refs.sh)

# fields <Struct> <defining file>: one `Struct.field<TAB>file …` row each
# (files, not lines, so the tracked table moves only when the traffic does).
fields() {
    local s=$1 def=$2 users
    mapfile -t users < <(grep -lE "(^|[^A-Za-z_])$s([^A-Za-z_]|\$)" "${shipped[@]}")
    awk -v S="$s" '
        $0 ~ "^pub struct " S " \\{" { on = 1; next }
        on && /^}/ { exit }
        on && /^    pub [a-z_]+:/ { f = $2; sub(/:.*/, "", f); print f }
    ' "$def" | while read -r f; do
        printf '%s.%s\t' "$s" "$f"
        awk -v S="$s" -v F="$f" -v BUILDER="$(grep -c "fn with_$f(" "$def")" '
            FNR == 1 { skip = 0; lit = 0; tests = 0 }
            tests { next }
            /^#\[cfg\(test\)\]/ { tests = 1; next }
            $0 ~ "^(pub struct|impl Default for) " S " \\{" { skip = 1; next }
            skip { if (/^}/) skip = 0; next }
            /^[ \t]*\/\// { next }
            {
                line = $0
                if (!lit && line ~ "(^|[^A-Za-z_])" S " \\{" && line !~ "(struct|impl|for) " S " \\{") {
                    lit = 1; depth = 0
                    sub(".*(^|[^A-Za-z_])" S " \\{", "{", line)
                }
                hit = 0
                if (lit) {
                    if (line ~ "(^|[^A-Za-z0-9_.])" F "(:[^:]|,|[ \t]*$)") hit = 1
                    depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                    if (depth <= 0) lit = 0
                }
                if ($0 ~ "\\." F " = " && $0 !~ "self\\." F " = " && $0 !~ "\\." F " = .*\\." F "[^a-z_]") hit = 1
                if (BUILDER > 0 && $0 ~ "\\.with_" F "\\(") hit = 1
                if (hit && !(FILENAME in seen)) { seen[FILENAME] = 1; printf "%s ", FILENAME }
            }
        ' "${users[@]}"
        printf '\n'
    done
}

# flags: one `--flag (commands)<TAB>file …` row per flag name.
flags() {
    awk '
        /^fn command_flags/ { on = 1 }
        on && /^}/ { exit }
        on && match($0, /^ *"[a-z]+" =>/) { cmd = $1; gsub(/"/, "", cmd) }
        on {
            rest = $0
            while (match(rest, /\("--[a-z-]+", (true|false)\)/)) {
                f = substr(rest, RSTART + 2); sub(/".*/, "", f)
                if (!(f in cmds)) order[++n] = f
                cmds[f] = cmds[f] (cmds[f] == "" ? "" : ", ") cmd
                rest = substr(rest, RSTART + RLENGTH)
            }
        }
        END { for (i = 1; i <= n; i++) print order[i] "\t" cmds[order[i]] }
    ' crates/cli/src/opts.rs | while IFS=$'\t' read -r f cmds; do
        printf '%s (%s)\t' "$f" "$cmds"
        grep -nE -- "(^|[^a-z-])$f([^a-z-]|\$)" "${callers[@]}" |
            grep -vE -- "\"$f\" =>|== \"$f\"" |
            awk -F: '!($1 in seen) { seen[$1] = 1; printf "%s ", $1 }' || true
        printf '\n'
    done
}

rows=$(
    fields HiveConfig crates/core/src/config.rs
    fields StreamConfig crates/core/src/config.rs
    fields SessionSpec crates/server/src/registry.rs
    fields ServerConfig crates/server/src/lib.rs
    flags
)

status=0
echo "# option census: where shipped code sets each config field, and where the harness,"
echo "# a script or CI passes each CLI flag (scripts/option_census.sh; reasons from $allow)"
while IFS=$'\t' read -r name sites; do
    reason=$(awk -v N="$name" '
        /^#/ || NF == 0 { next }
        index($0, N) == 1 && substr($0, length(N) + 1, 1) ~ /[ \t]/ {
            line = substr($0, length(N) + 1); sub(/^[ \t]+/, "", line); print line; exit
        }
    ' "$allow")
    if [ -n "$sites" ] && [ -n "$reason" ]; then
        printf '%-44s STALE ALLOW ENTRY, set at %s\n' "$name" "${sites% }"
        status=1
    elif [ -n "$sites" ]; then
        printf '%-44s %s\n' "$name" "${sites% }"
    elif [ -n "$reason" ]; then
        printf '%-44s unset, allowed: %s\n' "$name" "$reason"
    else
        printf '%-44s ORPHAN: set by no shipped code and not in %s\n' "$name" "$allow"
        status=1
    fi
done <<<"$rows"
stale=$(cut -f1 <<<"$rows" | awk '
    NR == FNR { names[++n] = $0; next }
    /^#/ || NF == 0 { next }
    {
        for (i = 1; i <= n; i++)
            if (index($0, names[i]) == 1 && substr($0, length(names[i]) + 1, 1) ~ /[ \t]/) next
        printf "%-44s STALE ALLOW ENTRY, names no row\n", $1
    }
' - "$allow")
if [ -n "$stale" ]; then
    echo "$stale"
    status=1
fi
exit $status
