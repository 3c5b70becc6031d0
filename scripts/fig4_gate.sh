#!/usr/bin/env bash
# Quality gate on Figure 4:
#
#   scripts/fig4_gate.sh <tracked fig4.txt> <fresh fig4 output>
#
# Every PG-HIVE F1* cell of the fresh output (any subset of the tracked
# datasets) is compared with the tracked cell of the same dataset, label
# availability, method, noise level and node|edge side. Prints the cells
# that moved and a summary; exits 1 if any cell fell by more than 0.01.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 <tracked fig4.txt> <fresh fig4 output>" >&2; exit 2; }
python3 - "$1" "$2" <<'EOF'
import sys
def cells(path):
    out, block = {}, None
    for line in open(path, encoding="utf-8"):
        if line.startswith("Figure 4"):
            block = line.strip()
        elif line.startswith("PG-HIVE"):
            method, *cols = line.split()
            for noise, col in enumerate(cols):
                for side, v in zip("ne", col.split("|")):
                    out[block, method, noise, side] = float(v)
    return out
tracked, fresh = cells(sys.argv[1]), cells(sys.argv[2])
assert fresh and set(fresh) <= set(tracked), "fresh output has no PG-HIVE cell, or one the tracked file lacks"
delta = {k: round(fresh[k] - tracked[k], 3) for k in fresh}
for k, d in sorted(delta.items()):
    if d:
        print(f"{d:+.3f}  {tracked[k]:.3f} -> {fresh[k]:.3f}  {k}")
moved = sum(1 for d in delta.values() if d)
print(f"{len(delta)} PG-HIVE cells, {moved} moved, mean {sum(delta.values()) / len(delta):+.4f}, "
      f"worst {min(delta.values()):+.3f}, best {max(delta.values()):+.3f}")
sys.exit(min(delta.values()) < -0.01)
EOF
