#!/usr/bin/env bash
# Peak-memory gate for one-shot discovery:
#
#   scripts/rss_ceiling.sh <pg-hive> [ceiling-mb]
#
# Synthesizes the uniform 100 000-element corpus of the benchmark's
# `offline_uniform` workload (89 583 rows, 11.9 MB), runs
# `pg-hive discover` on it as a child and reads the child's peak resident
# set (`ru_maxrss`, the kernel's VmHWM) from wait4. Fails above the
# ceiling (default 60 MB). The reading repeats to within 0.1 % run to
# run, so unlike a timing it can gate on a shared runner: 32 MB at the
# commit that introduced the gate, 122 MB before it (DESIGN.md §3m).
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 <pg-hive> [ceiling-mb]" >&2; exit 2; }
bin=$(realpath "$1")
ceiling_mb=${2:-60}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$bin" synth --jsonl --out-dir "$work" --seed 42 --types 8 --size 100000 \
    --unlabeled 0.05 --missing-optional 0.3 >/dev/null

peak_kb=$(python3 - "$bin" "$work/graph.jsonl" "$work/schema.json" <<'PY'
import os, sys
binary, corpus, out = sys.argv[1:]
pid = os.fork()
if pid == 0:
    os.dup2(2, 1)  # the child's report goes to stderr; stdout carries the reading
    os.execv(binary, [binary, "discover", "--jsonl", corpus, "--format", "json", "--out", out])
_, status, usage = os.wait4(pid, 0)
if status != 0:
    sys.exit(f"pg-hive discover exited with status {status}")
print(usage.ru_maxrss)
PY
)
peak_mb=$((peak_kb / 1024))
echo "pg-hive discover peak RSS: ${peak_mb} MB (${peak_kb} kB), ceiling ${ceiling_mb} MB"
[ "$peak_kb" -le $((ceiling_mb * 1024)) ]
