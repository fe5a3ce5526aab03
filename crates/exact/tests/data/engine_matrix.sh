#!/bin/sh
# Regenerates engine_matrix.tsv, the measurement behind the planner's
# engine choice: every examples/bay program, and the matrix-only programs
# next to this script, under the uniform, round-robin (det) and rotor
# schedulers, timed on both exact engines (best of three `--stats` wall
# times of the release CLI). P_LOSS is bound to 1/4 where a program
# declares it; other parameters stay symbolic.
#
# The label is the engine `auto` must choose: `bdd` where the diagram
# engine is more than 1.2x faster, `enum` otherwise.
#
# Usage, from the repository root:
#   cargo build --release -p bayonet
#   sh crates/exact/tests/data/engine_matrix.sh > crates/exact/tests/data/engine_matrix.tsv
set -eu
BIN=${BIN:-target/release/bayonet}
best_ms() {
    best=""
    for _ in 1 2 3; do
        ms=$("$BIN" run "$@" --stats 2>&1 >/dev/null | sed -n 's/.* \([0-9.]*\) ms wall$/\1/p')
        best=$(printf '%s\n%s\n' "$best" "$ms" | sed '/^$/d' | sort -g | head -n 1)
    done
    echo "$best"
}
cpu=$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1)
echo "# $(nproc) CPUs, $cpu"
printf '# program\tscheduler\tenum_ms\tbdd_ms\tlabel\n'
for file in examples/bay/*.bay crates/exact/tests/data/*.bay; do
    name=$(basename "$file" .bay)
    bind=""
    if grep -q P_LOSS "$file"; then bind="--bind P_LOSS=1/4"; fi
    for sched in uniform det rotor; do
        # shellcheck disable=SC2086
        e=$(best_ms "$file" $bind --scheduler "$sched" --engine exact)
        # shellcheck disable=SC2086
        b=$(best_ms "$file" $bind --scheduler "$sched" --engine bdd)
        label=$(awk -v e="$e" -v b="$b" 'BEGIN { print (e > 1.2 * b) ? "bdd" : "enum" }')
        printf '%s\t%s\t%s\t%s\t%s\n' "$name" "$sched" "$e" "$b" "$label"
    done
done
