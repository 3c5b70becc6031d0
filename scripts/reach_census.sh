#!/usr/bin/env bash
# Reach census: which `pub` items does no shipped code name?
#
#   scripts/reach_census.sh            # unreached rows on stdout; exit 1 on one with no reason
#   scripts/reach_census.sh > results/reach_census.txt   # the tracked copy
#
# Rows: every `pub` fn, struct, enum, trait, type, const, static and mod
# declared under crates/*/src outside the bench crate, outside its file's
# `#[cfg(test)] mod` block (`pub(crate)` and friends are not rows). A row is
# named `<crate>::<module path>[::<impl type>]::<name>`, the crate as its
# Cargo.toml `name` spells it with `-` as `_`.
# Callers: every crates/*/src file (the bench and paper-experiment crates
# too: CI runs their binaries) and the harness, benchmark/src/*.rs, which is
# its own workspace. Tests, examples, benches and the umbrella src/lib.rs
# are not callers; nor are `//` comment lines, `#[cfg(test)] mod` blocks
# (an attribute on a single item does not start one) or `pub use`
# re-exports. A row is *reached* where its name appears as a word in a
# caller outside the row's own declaration: a fn's body, a type's
# definition and the impl blocks for it in its file, a module's file. A
# name shared by two items hides both; the census never invents a row.
# An unreached row is listed with its reason from scripts/reach_census.allow
# (`<row or module><TAB or spaces><reason>`; a module's line covers every
# row inside it), and only a test oracle or test support the suites share
# is a reason. Exit 1 on an unreached row with no reason, and on an allow
# line that names no row or only reached ones. grep and awk only.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
allow=scripts/reach_census.allow

mapfile -t declaring < <(find crates -path '*/src/*' -name '*.rs' ! -path 'crates/bench/*' | sort)
mapfile -t callers < <({ find crates -path '*/src/*' -name '*.rs'; ls benchmark/src/*.rs; } | sort)
crates=$(for f in crates/*/Cargo.toml; do
    printf '%s\t%s\n' "$(basename "$(dirname "$f")")" \
        "$(awk -F'"' '/^name = / { gsub(/-/, "_", $2); print $2; exit }' "$f")"
done)

# Declarations: `path<TAB>name<TAB>file<TAB>first<TAB>last` — one span per
# row (the item itself), plus one more per impl block of a type.
decls=$(awk -v CRATES="$crates" '
    BEGIN {
        n = split(CRATES, cl, "\n")
        for (i = 1; i <= n; i++) { split(cl[i], kv, "\t"); crate[kv[1]] = kv[2] }
    }
    function modpath(f,    p, parts, k, m, s) {
        split(f, parts, "/")
        p = crate[parts[2]]
        m = length(parts)
        for (k = 4; k <= m; k++) {
            s = parts[k]
            if (k == m) { sub(/\.rs$/, "", s); if (s == "lib" || s == "main" || s == "mod") break }
            p = p "::" s
        }
        return p
    }
    function flush(    k) {
        for (k in open) { print open[k] "\t" FNR - 1; delete open[k] }
    }
    FNR == 1 {
        if (NR > 1) flush()
        tests = 0; pend = 0; impl = ""; mp = modpath(FILENAME); nopen = 0
        dir = FILENAME; sub(/[^\/]*$/, "", dir)
        stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
        sub_dir = (stem == "lib" || stem == "main" || stem == "mod") ? dir : dir stem "/"
    }
    tests { if (/^}/) tests = 0; next }
    pend && /^(pub )?mod [a-z_]+ *\{/ { tests = 1; pend = 0; next }
    { pend = /^#\[cfg\(test\)\]/ }
    # Close spans that end on this line (indentation-keyed).
    {
        for (k in open) {
            if ($0 ~ ("^" ind[k] "[})\\]>][;,)]?$")) { print open[k] "\t" FNR; delete open[k] }
        }
    }
    /^impl[ <]/ {
        s = $0; sub(/^impl(<[^>]*>)? /, "", s)
        if (s ~ / for /) sub(/^.* for /, "", s)
        sub(/^([a-z_]+::)*/, "", s); sub(/[^A-Za-z0-9_].*$/, "", s)
        impl = s
        if (s in typerow) { k = "i" FNR; open[k] = typerow[s] "\t" FILENAME "\t" FNR; ind[k] = "" }
    }
    /^}/ { impl = "" }
    match($0, /^ *pub ((unsafe|const|async|extern "[^"]*") )*(fn|struct|enum|trait|type|const|static|mod|union) [A-Za-z_][A-Za-z0-9_]*/) {
        d = substr($0, RSTART, RLENGTH)
        indent = d; sub(/[^ ].*$/, "", indent)
        nw = split(d, w, " "); name = w[nw]; kind = w[nw - 1]
        path = mp
        if (indent != "" && impl != "") path = path "::" impl
        path = path "::" name
        row = path "\t" name
        if (kind == "mod" && $0 ~ /;[ \t]*$/) {
            # Its file is its declaration.
            print row "\t" FILENAME "\t" FNR "\t" FNR
            print row "\t" sub_dir name ".rs\t1\t999999999"
            print row "\t" sub_dir name "/mod.rs\t1\t999999999"
            next
        }
        if (indent == "" && kind ~ /^(struct|enum|trait|type|union)$/) typerow[name] = row
        rest = substr($0, RSTART + RLENGTH)
        if ($0 ~ /;[ \t]*$/ || ($0 ~ /\}[ \t]*$/ && gsub(/\{/, "{", rest) == gsub(/\}/, "}", rest))) {
            print row "\t" FILENAME "\t" FNR "\t" FNR
        } else {
            k = "d" FNR; open[k] = row "\t" FILENAME "\t" FNR; ind[k] = indent
        }
    }
    END { flush() }
' "${declaring[@]}")

# Uses: every word of a caller line that some row is named, with where.
names=$(cut -f2 <<<"$decls" | sort -u)
uses=$(awk '
    NR == FNR { want[$0] = 1; next }
    FNR == 1 { tests = 0; pend = 0; reexport = 0 }
    tests { if (/^}/) tests = 0; next }
    pend && /^(pub )?mod [a-z_]+ *\{/ { tests = 1; pend = 0; next }
    { pend = /^#\[cfg\(test\)\]/ }
    /^[ \t]*\/\// { next }
    /^[ \t]*pub use / { reexport = 1 }
    reexport { if (/;/) reexport = 0; next }
    {
        line = $0
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            w = substr(line, RSTART, RLENGTH)
            if (w in want) print w "\t" FILENAME "\t" FNR
            line = substr(line, RSTART + RLENGTH)
        }
    }
' - "${callers[@]}" <<<"$names")

# Rows with no use outside their own spans; a module is reached when a row
# inside it is.
verdicts=$(awk -F'\t' '
    FILENAME == ARGV[1] {
        if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1; nameof[$1] = $2 }
        spans[$1] = spans[$1] $3 "\t" $4 "\t" $5 "\n"
        if ($5 == 999999999) ismod[$1] = 1
        next
    }
    { hits[$1] = hits[$1] $2 "\t" $3 "\n" }
    END {
        for (i = 1; i <= n; i++) {
            r = order[i]
            m = split(hits[nameof[r]], h, "\n"); ns = split(spans[r], sp, "\n")
            for (j = 1; j < m && !reached[r]; j++) {
                split(h[j], u, "\t"); inside = 0
                for (s = 1; s < ns; s++) {
                    split(sp[s], v, "\t")
                    if (u[1] == v[1] && u[2] + 0 >= v[2] + 0 && u[2] + 0 <= v[3] + 0) { inside = 1; break }
                }
                if (!inside) reached[r] = 1
            }
        }
        for (i = 1; i <= n; i++) {
            if (!reached[order[i]]) continue
            p = order[i]
            while (sub(/::[^:]+$/, "", p)) if (p in ismod) reached[p] = 1
        }
        for (i = 1; i <= n; i++) print order[i] "\t" (reached[order[i]] ? "reached" : "unreached")
    }
' <(printf '%s\n' "$decls") <(printf '%s\n' "$uses"))

# The listing, then the allow lines that cover nothing.
echo "# reach census: pub items under crates/*/src that no shipped code names"
echo "# (scripts/reach_census.sh; reasons from $allow)"
awk -F'\t' -v ALLOW="$allow" '
    BEGIN {
        while ((getline line < ALLOW) > 0) {
            if (line ~ /^#/ || line ~ /^[ \t]*$/) continue
            name = line; sub(/[ \t].*$/, "", name)
            reason = line; sub(/^[^ \t]+[ \t]+/, "", reason)
            allowed[++na] = name; why[na] = reason
        }
    }
    { row[$1] = $2 }
    $2 == "unreached" {
        best = 0
        for (a = 1; a <= na; a++) {
            if ($1 == allowed[a] || index($1, allowed[a] "::") == 1) {
                if (!best || length(allowed[a]) > length(allowed[best])) best = a
            }
        }
        if (best) {
            printf "%-56s allowed: %s\n", $1, why[best]; used[best] = 1
        } else {
            printf "%-56s UNREACHED: named by no shipped code and not in %s\n", $1, ALLOW; status = 1
        }
    }
    END {
        for (a = 1; a <= na; a++) {
            if (used[a]) continue
            if (!(allowed[a] in row)) printf "%-56s STALE ALLOW ENTRY, names no row\n", allowed[a]
            else printf "%-56s STALE ALLOW ENTRY, reached\n", allowed[a]
            status = 1
        }
        exit status
    }
' <<<"$verdicts"
