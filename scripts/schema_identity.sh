#!/usr/bin/env bash
# Byte-identity matrix between two builds of the CLI:
#
#   scripts/schema_identity.sh <parent-pg-hive> <change-pg-hive> [<allowed-to-differ>]
#
# Two synthetic corpora (uniform; noisy and pattern-rich) x seeds {42, 7}
# x {elsh, minhash} x {one-shot, 16 batches, 16 streamed batches, crash
# after batch 7 then --resume, 3 shards then merge}, each run under both
# binaries; the `--format json` outputs are `cmp`ed. The two modes with
# durable state run a second time crossed: the change binary resumes the
# parent's checkpoint directory and merges the parent's shard states.
# Durable bytes are combinations too: the newest checkpoint each
# crash-resume leaves (tag suffix `-checkpoint`) and, where the change
# wrote them, the three shard states (`-states`).
# One more run goes the other way (see "Downgrade" below).
# Prints one line per differing combination, then `N/N identical`; exits
# 1 unless every combination matched.
#
# A change that means to move schemas names the combinations that may: the
# third argument is an extended regular expression over the whole tag
# (`<corpus>-<seed>-<method>-<mode>[-crossed][-checkpoint|-states]`, as
# the DIFFERS lines print it). A difference under a matching tag is
# reported as `differs (allowed)` and does not fail the run; one anywhere
# else still does. The allowed tags that came out identical after all are
# listed too, so the pattern can be kept as narrow as what is true.
set -euo pipefail
[ $# -eq 2 ] || [ $# -eq 3 ] || {
    echo "usage: $0 <parent-pg-hive> <change-pg-hive> [<allowed-to-differ regex>]" >&2
    exit 2
}
parent=$(realpath "$1")
change=$(realpath "$2")
allowed=${3:-}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# discover <bin> <out.json> <flags...>
discover() {
    local bin=$1 out=$2
    shift 2
    "$bin" discover --format json --out "$out" "$@" >/dev/null 2>&1
}

# run <writer> <reader> <mode> <dir> <flags...>: leaves <dir>/schema.json.
# The writer produces the durable state (checkpoints, shard states) that
# the reader finishes from; the stateless modes use the reader only.
run() {
    local writer=$1 reader=$2 mode=$3 dir=$4
    shift 4
    mkdir -p "$dir"
    case $mode in
    one-shot) discover "$reader" "$dir/schema.json" "$@" ;;
    batches) discover "$reader" "$dir/schema.json" --batches 16 "$@" ;;
    stream) discover "$reader" "$dir/schema.json" --stream --batches 16 "$@" ;;
    crash-resume)
        # The injected fault is a panic (exit 101) after batch 7.
        if discover "$writer" "$dir/schema.json" --batches 16 \
            --checkpoint-dir "$dir/ckpt" --kill-after-batch 7 "$@"; then
            echo "--kill-after-batch did not kill: $dir" >&2
            return 1
        fi
        discover "$reader" "$dir/schema.json" --batches 16 \
            --checkpoint-dir "$dir/ckpt" --resume "$@"
        ;;
    shards)
        for i in 0 1 2; do
            discover "$writer" "$dir/shard$i.json" --shard "$i/3" \
                --state-out "$dir/state$i.json" "$@"
        done
        "$reader" merge "$dir"/state{0,1,2}.json --out "$dir/schema.json" >/dev/null
        ;;
    esac
}

total=0
same=0
moved=0
unmoved=()
# tally <tag> <1 if identical, else 0>
tally() {
    local tag=$1 may_differ=0
    [ -n "$allowed" ] && [[ $tag =~ ^($allowed)$ ]] && may_differ=1
    total=$((total + 1))
    if [ "$2" -eq 1 ]; then
        same=$((same + 1))
        [ "$may_differ" -eq 0 ] || unmoved+=("$tag")
    elif [ "$may_differ" -eq 1 ]; then
        moved=$((moved + 1))
        echo "differs (allowed): $tag"
    else
        echo "DIFFERS: $tag"
    fi
}

# identical <dir> <file>...: prints 1 if each file is byte-equal under
# <dir>/parent and <dir>/change, else 0.
identical() {
    local dir=$1 f
    shift
    for f in "$@"; do
        cmp -s "$dir/parent/$f" "$dir/change/$f" || {
            echo 0
            return
        }
    done
    echo 1
}

# compare <tag> <change-side writer> <mode> <flags...>
compare() {
    local tag=$1 writer=$2 mode=$3 dir=$work/$1 newest
    shift 3
    run "$parent" "$parent" "$mode" "$dir/parent" "$@"
    run "$writer" "$change" "$mode" "$dir/change" "$@"
    tally "$tag" "$(identical "$dir" schema.json)"
    # Durable bytes: the newest checkpoint a crash-resume leaves (written
    # by the resuming binary), and the shard states when the change side
    # wrote them.
    case $mode in
    crash-resume)
        newest=$(find "$dir/parent/ckpt" -name 'ckpt-*' -printf '%f\n' | sort | tail -n 1)
        tally "$tag-checkpoint" "$(identical "$dir" "ckpt/$newest")"
        ;;
    shards)
        if [ "$writer" = "$change" ]; then
            tally "$tag-states" "$(identical "$dir" state0.json state1.json state2.json)"
        fi
        ;;
    esac
}

for corpus in uniform diverse; do
    case $corpus in
    uniform) shape=(--types 8 --size 20000 --unlabeled 0.05 --missing-optional 0.3) ;;
    diverse) shape=(--types 64 --size 8000 --unlabeled 0.3 --missing-optional 0.5 --label-noise 0.2) ;;
    esac
    for seed in 42 7; do
        data=$work/$corpus-$seed
        "$parent" synth --jsonl --out-dir "$data" --seed "$seed" "${shape[@]}" >/dev/null
        for method in elsh minhash; do
            flags=(--jsonl "$data/graph.jsonl" --seed "$seed" --method "$method")
            for mode in one-shot batches stream crash-resume shards; do
                compare "$corpus-$seed-$method-$mode" "$change" "$mode" "${flags[@]}"
            done
            for mode in crash-resume shards; do
                compare "$corpus-$seed-$method-$mode-crossed" "$parent" "$mode" "${flags[@]}"
            done
        done
    done
done
# Downgrade: the parent resumes a checkpoint directory the change wrote.
# It either finishes on the same bytes or refuses the files by format
# version — never a decode failure of some other kind, never other bytes.
# (Not one of the N combinations: it holds the change to a promise about
# readers that already shipped.)
downgrade_ok=1
tag=uniform-42-elsh-downgrade
flags=(--jsonl "$work/uniform-42/graph.jsonl" --seed 42 --method elsh)
mkdir -p "$work/$tag"
discover "$change" "$work/$tag/schema.json" --batches 16 \
    --checkpoint-dir "$work/$tag/ckpt" --kill-after-batch 7 "${flags[@]}" || true
if "$parent" discover --format json --out "$work/$tag/schema.json" --batches 16 \
    --checkpoint-dir "$work/$tag/ckpt" --resume "${flags[@]}" >/dev/null 2>"$work/$tag/err"; then
    cmp -s "$work/uniform-42-elsh-crash-resume/parent/schema.json" "$work/$tag/schema.json" ||
        { echo "DOWNGRADE DIFFERS: parent resumed the change's checkpoints to other bytes"; downgrade_ok=0; }
elif grep -q "unsupported format version" "$work/$tag/err"; then
    echo "downgrade: parent refuses the change's checkpoints by version"
else
    echo "DOWNGRADE FAILS untyped:"
    tail -n 3 "$work/$tag/err"
    downgrade_ok=0
fi

for tag in ${unmoved[@]+"${unmoved[@]}"}; do
    echo "allowed, but identical: $tag"
done
if [ -n "$allowed" ]; then
    echo "$same/$total identical, $moved differ as allowed by /$allowed/"
else
    echo "$same/$total identical"
fi
[ $((same + moved)) -eq "$total" ] && [ "$downgrade_ok" -eq 1 ]
