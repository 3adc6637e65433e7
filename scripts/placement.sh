#!/usr/bin/env bash
# Code placement report for a benchmark build.
#
#   scripts/placement.sh <binary> [<parent binary>]
#
# Prints where `.gcc_except_table` and `.text` start, mod 64, and the offset
# mod 64 of each symbol on the simulator's, the campaign engine's, the
# recovery ladder's and the batch classifier's hot paths (a symbol with several instances, such as a
# generic kernel, gets one numbered row per instance in address order).
# With a second binary, each line also gives that build's offset and the
# delta (this − parent) mod 64. The interpreter loop and the fork phase
# move by 10–40% when these shift with byte-identical instructions, so a
# speed comparison between two builds whose hot symbols sit at different
# offsets measures placement, not the change (the AVX-512 batch kernels,
# instruction for instruction the same, moved `classify-pool` batch
# throughput by 6% that way). Reports only: always exits 0 once both
# binaries exist.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <binary> [<parent binary>]" >&2
    exit 2
fi
for b in "$@"; do
    if [ ! -f "$b" ]; then
        echo "placement: no such binary: $b" >&2
        exit 2
    fi
done

SYMBOLS=(
    'sim_machine::machine::Machine::run'
    'sim_machine::machine::Machine::run_recorded'
    'faultsim::injection::inject_spec'
    'faultsim::injection::judge_within'
    'faultsim::fork::fork_of'
    'faultsim::checkpoint::CheckpointStore::push'
    'faultsim::checkpoint::CheckpointStore::restore'
    'xen_like::platform::Platform::run_handler_recorded'
    'xen_like::platform::Platform::run_to_exit'
    'xen_like::platform::Platform::run_handler_hooked'
    'faultsim::policy::run_ladder'
    'xentry::detector::VmTransitionDetector::classify_batch_with'
    'xentry::detector::VmTransitionDetector::classify_batch_timed'
    'mltree::compiled::classify_windows::{{closure}}'
    'mltree::simd::walk_packed_avx512'
)

# Start address of section $2 in binary $1.
section() {
    size -A "$1" | awk -v s="$2" '$1 == s { print $3 }'
}

# Addresses of symbol $2 in binary $1, ascending (closures repeat).
addresses() {
    nm -C "$1" | awk -v s="$2" '{
        name = $0
        sub(/^[0-9a-f]+ [A-Za-z] /, "", name)
        if (name == s) print $1
    }' | sort
}

row() { # name, address here, address in the parent (may be empty)
    local here=$(( 0x$2 % 64 ))
    if [ -n "${3:-}" ]; then
        local there=$(( 0x$3 % 64 ))
        printf '%-55s %4d %6d %6d\n' "$1" "$here" "$there" $(( ((0x$2 - 0x$3) % 64 + 64) % 64 ))
    else
        printf '%-55s %4d\n' "$1" "$here"
    fi
}

if [ $# -eq 2 ]; then
    printf '%-55s %4s %6s %6s\n' 'mod 64' 'this' 'parent' 'delta'
else
    printf '%-55s %4s\n' 'mod 64' 'this'
fi
for s in .gcc_except_table .text; do
    here=$(section "$1" "$s")
    there=${2:+$(section "$2" "$s")}
    row "$s (start)" "$(printf '%x' "$here")" "${there:+$(printf '%x' "$there")}"
done
for sym in "${SYMBOLS[@]}"; do
    mapfile -t here < <(addresses "$1" "$sym")
    there=()
    if [ $# -eq 2 ]; then
        mapfile -t there < <(addresses "$2" "$sym")
    fi
    if [ ${#here[@]} -eq 0 ]; then
        printf '%-55s %4s\n' "$sym" '-'
        continue
    fi
    for i in "${!here[@]}"; do
        name=$sym
        [ ${#here[@]} -gt 1 ] && name="$sym #$((i + 1))"
        row "$name" "${here[$i]}" "${there[$i]:-}"
    done
done
exit 0
