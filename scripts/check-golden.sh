#!/usr/bin/env bash
# Golden equivalence check for the parallel fault-simulation campaign
# engine: regenerate the small-config Table 3, isolation, and Monte Carlo
# fab-fleet reports at two different worker counts and diff them against
# the committed golden files. The paper-scale outputs run once, at the
# last worker count: the full Figure 8 IPC study (the cycle simulator over
# all 23 profiles), the full-size Table 3 and the full-size isolation
# campaign.
# Any drift — numeric or ordering — fails the build. Timings are suppressed
# (-timing=false) so the outputs are byte-stable.
#
# A second pass checks interrupt-resume equivalence: each run is "killed"
# at roughly 50% of its campaign work by the deterministic chaos budget
# (-chaos-cancel-after, a stand-in for Ctrl-C that CI can time exactly),
# must exit 130 with a flushed checkpoint journal, and the -resume rerun —
# at a *different* worker count — must reproduce the goldens byte for byte.
#
# Usage: scripts/check-golden.sh [worker counts...]   (default: 1 4)
set -euo pipefail
cd "$(dirname "$0")/.."

workers=("$@")
if [ ${#workers[@]} -eq 0 ]; then
    workers=(1 4)
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/rescue-atpg" ./cmd/rescue-atpg
go build -o "$tmp/rescue-isolate" ./cmd/rescue-isolate
go build -o "$tmp/rescue-fab" ./cmd/rescue-fab
go build -o "$tmp/rescue-sim" ./cmd/rescue-sim

fail=0
for w in "${workers[@]}"; do
    echo "== table3 (small), workers=$w"
    "$tmp/rescue-atpg" -small -timing=false -workers "$w" > "$tmp/table3_small.txt"
    if ! diff -u results/table3_small.txt "$tmp/table3_small.txt"; then
        echo "FAIL: table3_small.txt drifted at workers=$w" >&2
        fail=1
    fi

    echo "== isolation (small), workers=$w"
    "$tmp/rescue-isolate" -small -per-stage 200 -multi -timing=false -workers "$w" > "$tmp/isolation_small.txt"
    if ! diff -u results/isolation_small.txt "$tmp/isolation_small.txt"; then
        echo "FAIL: isolation_small.txt drifted at workers=$w" >&2
        fail=1
    fi

    echo "== fab fleet (small), workers=$w"
    "$tmp/rescue-fab" -small -dies 2000 -timing=false -workers "$w" > "$tmp/fab_small.txt"
    if ! diff -u results/fab_small.txt "$tmp/fab_small.txt"; then
        echo "FAIL: fab_small.txt drifted at workers=$w" >&2
        fail=1
    fi
done

w=${workers[${#workers[@]}-1]}
echo "== figure 8, workers=$w"
"$tmp/rescue-sim" -workers "$w" > "$tmp/figure8.txt"
if ! diff -u results/figure8.txt "$tmp/figure8.txt"; then
    echo "FAIL: figure8.txt drifted at workers=$w" >&2
    fail=1
fi

echo "== table3 (full size), workers=$w"
"$tmp/rescue-atpg" -timing=false -workers "$w" > "$tmp/table3.txt"
if ! diff -u results/table3.txt "$tmp/table3.txt"; then
    echo "FAIL: table3.txt drifted at workers=$w" >&2
    fail=1
fi

echo "== isolation (full size), workers=$w"
"$tmp/rescue-isolate" -per-stage 1000 -multi -timing=false -workers "$w" > "$tmp/isolation.txt"
if ! diff -u results/isolation.txt "$tmp/isolation.txt"; then
    echo "FAIL: isolation.txt drifted at workers=$w" >&2
    fail=1
fi

# ~50% of each command's total campaign fault-sims on the small config
# (rescue-atpg ≈ 134k across both variants; rescue-isolate ≈ 89k;
# rescue-fab spends ≈ 86.7k sims in ATPG before its 1536-fault fleet
# campaign, so 87.5k lands halfway through the fleet).
atpg_kill=67000
iso_kill=45000
fab_kill=87500

for pair in "1 4" "4 1"; do
    read -r kw rw <<< "$pair"

    echo "== table3 interrupt-resume: kill at workers=$kw, resume at workers=$rw"
    rm -f "$tmp/ck.atpg"
    rc=0
    "$tmp/rescue-atpg" -small -timing=false -workers "$kw" \
        -checkpoint "$tmp/ck.atpg" -chaos-cancel-after "$atpg_kill" \
        > /dev/null 2> "$tmp/atpg.err" || rc=$?
    if [ "$rc" -ne 130 ]; then
        echo "FAIL: chaos-interrupted rescue-atpg exited $rc, want 130" >&2
        cat "$tmp/atpg.err" >&2
        fail=1
    elif [ ! -s "$tmp/ck.atpg" ]; then
        echo "FAIL: interrupted rescue-atpg left no checkpoint journal" >&2
        fail=1
    else
        "$tmp/rescue-atpg" -small -timing=false -workers "$rw" \
            -checkpoint "$tmp/ck.atpg" -resume > "$tmp/table3_resumed.txt"
        if ! diff -u results/table3_small.txt "$tmp/table3_resumed.txt"; then
            echo "FAIL: resumed table3_small.txt drifted (kill=$kw resume=$rw)" >&2
            fail=1
        fi
    fi

    echo "== isolation interrupt-resume: kill at workers=$kw, resume at workers=$rw"
    rm -f "$tmp/ck.iso"
    rc=0
    "$tmp/rescue-isolate" -small -per-stage 200 -multi -timing=false -workers "$kw" \
        -checkpoint "$tmp/ck.iso" -chaos-cancel-after "$iso_kill" \
        > /dev/null 2> "$tmp/iso.err" || rc=$?
    if [ "$rc" -ne 130 ]; then
        echo "FAIL: chaos-interrupted rescue-isolate exited $rc, want 130" >&2
        cat "$tmp/iso.err" >&2
        fail=1
    elif [ ! -s "$tmp/ck.iso" ]; then
        echo "FAIL: interrupted rescue-isolate left no checkpoint journal" >&2
        fail=1
    else
        "$tmp/rescue-isolate" -small -per-stage 200 -multi -timing=false -workers "$rw" \
            -checkpoint "$tmp/ck.iso" -resume > "$tmp/isolation_resumed.txt"
        if ! diff -u results/isolation_small.txt "$tmp/isolation_resumed.txt"; then
            echo "FAIL: resumed isolation_small.txt drifted (kill=$kw resume=$rw)" >&2
            fail=1
        fi
    fi

    echo "== fab interrupt-resume: kill at workers=$kw, resume at workers=$rw"
    rm -f "$tmp/ck.fab"
    rc=0
    "$tmp/rescue-fab" -small -dies 2000 -timing=false -workers "$kw" \
        -checkpoint "$tmp/ck.fab" -chaos-cancel-after "$fab_kill" \
        > /dev/null 2> "$tmp/fab.err" || rc=$?
    if [ "$rc" -ne 130 ]; then
        echo "FAIL: chaos-interrupted rescue-fab exited $rc, want 130" >&2
        cat "$tmp/fab.err" >&2
        fail=1
    elif [ ! -s "$tmp/ck.fab" ]; then
        echo "FAIL: interrupted rescue-fab left no checkpoint journal" >&2
        fail=1
    else
        "$tmp/rescue-fab" -small -dies 2000 -timing=false -workers "$rw" \
            -checkpoint "$tmp/ck.fab" -resume > "$tmp/fab_resumed.txt"
        if ! diff -u results/fab_small.txt "$tmp/fab_resumed.txt"; then
            echo "FAIL: resumed fab_small.txt drifted (kill=$kw resume=$rw)" >&2
            fail=1
        fi
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "golden check FAILED" >&2
    exit 1
fi
echo "golden check OK: outputs identical to committed results at workers: ${workers[*]}, Figure 8, full-size Table 3 and isolation, and interrupt-resume included"
