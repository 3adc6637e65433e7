#!/usr/bin/env bash
# Alternating pairs of the benchmark's driver form, parent build against
# change build.
#
#   scripts/pairs.sh <workload> <seed> <n> <parent-bin> <change-bin> [seconds]
#
# Runs `<bin> --workload <workload> --seed <seed> --seconds <seconds>
# --trace 0` (the form BENCHMARK.json declares; seconds defaults to its
# run_seconds) n times per side. Pair i runs the parent first when i is
# even and the change first when it is odd, so a drift of the machine
# lands on both sides. Every run starts in a fresh temporary directory:
# the driver writes results/benchmark/<workload>.run.json under its
# working directory, and two sides must not share one.
#
# Steal time is read from /proc/stat before and after each run. The box
# may be a VM whose host takes CPU away in bursts, and a run with more
# than a few percent of steal is worth making again.
#
# Writes one JSON line per run to $PAIRS_OUT (default
# pairs-<workload>-<seed>.jsonl in the current directory):
#   {"pair": i, "side": "parent"|"change", "first": bool,
#    "steal_pct": x, "wall_s": x, "result_digest": "0x…",
#    "checks_ok": n, "checks_failed": n, "line": <the driver's JSON line>}
# then prints, per end-to-end metric of BENCHMARK.json: both medians, the
# median change, the pairs the change won (in the metric's "better"
# direction) and the parent's inter-quartile range, and for every run its
# `correct`, `failed`, checks, steal and result digest. Exits non-zero
# only when a run produced no JSON line; a failed check shows in the
# table as correct=false and a nonzero checks_failed.
set -u

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
    echo "usage: $0 <workload> <seed> <n> <parent-bin> <change-bin> [seconds]" >&2
    exit 2
fi
workload=$1 seed=$2 n=$3
root=$(cd "$(dirname "$0")/.." && pwd)
seconds=${6:-$(jq -r .run_seconds "$root/BENCHMARK.json")}
out=${PAIRS_OUT:-pairs-$workload-$seed.jsonl}
declare -A bin
for side in parent change; do
    b=$4
    [ "$side" = change ] && b=$5
    if [ ! -x "$b" ]; then
        echo "pairs: not an executable: $b" >&2
        exit 2
    fi
    bin[$side]=$(cd "$(dirname "$b")" && pwd)/$(basename "$b")
done

# steal and total jiffies of all CPUs, from the first line of /proc/stat.
jiffies() {
    awk '/^cpu / { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t; exit }' /proc/stat
}

: > "$out"
for ((i = 0; i < n; i++)); do
    order=(parent change)
    [ $((i % 2)) -eq 1 ] && order=(change parent)
    for side in "${order[@]}"; do
        dir=$(mktemp -d)
        read -r s0 t0 < <(jiffies)
        start=$(date +%s.%N)
        (cd "$dir" && "${bin[$side]}" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >stdout 2>/dev/null)
        end=$(date +%s.%N)
        read -r s1 t1 < <(jiffies)
        line=$(tail -n 1 "$dir/stdout")
        digest=$(grep -o 'result_digest=0x[0-9a-f]*' "$dir/stdout" | head -n 1 | cut -d= -f2)
        ok=$(grep -c '^ *\[ok\]' "$dir/stdout")
        bad=$(grep -c '^ *\[FAILED\]' "$dir/stdout")
        rm -rf "$dir"
        if ! jq -e . >/dev/null 2>&1 <<<"$line"; then
            echo "pairs: pair $i, $side: no JSON line from the driver" >&2
            exit 1
        fi
        first=false
        [ "$side" = "${order[0]}" ] && first=true
        jq -c -n --argjson pair "$i" --arg side "$side" --argjson first "$first" \
            --argjson steal "$(awk -v a="$((s1 - s0))" -v b="$((t1 - t0))" \
                'BEGIN { printf "%.2f", (b > 0 ? 100 * a / b : 0) }')" \
            --argjson wall "$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.2f", b - a }')" \
            --arg digest "$digest" --argjson ok "$ok" --argjson bad "$bad" \
            --argjson line "$line" \
            '{pair: $pair, side: $side, first: $first, steal_pct: $steal, wall_s: $wall,
              result_digest: $digest, checks_ok: $ok, checks_failed: $bad, line: $line}' \
            >>"$out"
    done
done

python3 - "$root/BENCHMARK.json" "$out" "$workload" "$seed" <<'EOF'
import json, statistics, sys

bench, runs_path, workload, seed = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
runs = [json.loads(l) for l in open(runs_path) if l.strip()]
by = {(r["pair"], r["side"]): r for r in runs}
pairs = sorted({r["pair"] for r in runs})

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{workload} seed {seed}: {len(pairs)} pairs, {runs_path}")
print(f"{'metric':<18}{'parent':>14}{'change':>14}{'change%':>9}{'won':>7}{'IQR%':>7}")
for m in metrics:
    name = m["name"]
    got = [(by[p, "parent"]["line"]["metrics"].get(name), by[p, "change"]["line"]["metrics"].get(name))
           for p in pairs]
    got = [(a["value"], b["value"]) for a, b in got if a and b]
    if not got:
        continue
    par, chg = [a for a, _ in got], [b for _, b in got]
    mp, mc = statistics.median(par), statistics.median(chg)
    higher = m["better"] == "higher"
    won = sum((b > a) if higher else (b < a) for a, b in got)
    q1, q3 = quartiles(par)
    pct = lambda x: 100 * x / mp if mp else 0.0
    print(f"{name:<18}{mp:>14.6g}{mc:>14.6g}{pct(mc - mp):>+9.1f}{won:>4}/{len(got):<2}{pct(q3 - q1):>7.1f}")
print(f"{'pair':>4} {'side':<7}{'first':>6}{'correct':>8}{'failed':>7}{'checks':>8}{'steal%':>7}  result_digest")
for r in runs:
    l = r["line"]
    checks = f"{r['checks_ok']}/{r['checks_ok'] + r['checks_failed']}"
    print(f"{r['pair']:>4} {r['side']:<7}{str(r['first']).lower():>6}"
          f"{str(l.get('correct')).lower():>8}{l.get('failed', '?'):>7}{checks:>8}"
          f"{r['steal_pct']:>7.1f}  {r['result_digest']}")
digests = {r["result_digest"] for r in runs}
print(f"result_digest: {'one value, ' + digests.pop() if len(digests) == 1 else f'{len(digests)} DIFFERENT values'}")
EOF
