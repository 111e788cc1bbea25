#!/usr/bin/env bash
# Mutation check for the fault-simulation verification net: inject
# hand-picked single-line mutants into the simulator hot path — the cone
# builder, the clipped and full event walks, the excitation-skip index,
# the epoch arena, the campaign word tiler, and the netlist view builder
# the simulator reads its gate structure from — and require that the
# differential harness or the targeted unit tests catch every one. A
# surviving mutant means the net has a blind spot — the build fails.
#
# Each mutant is a sed substitution against one source file (sim.go,
# cone.go and campaign.go under internal/fault; view.go under
# internal/netlist), chosen to break a distinct mechanism:
#    1 sim.go      off-by-one: drop the last level bucket from the full walk
#    2 sim.go      inverted obs-epoch guard: FailObs dedup records nothing
#    3 sim.go      inverted lane mask: clipped path observes only padding lanes
#    4 sim.go      inverted event filter: full walk propagates only unchanged outputs
#    5 sim.go      wrong stuck polarity: stuck-at-1 injects a single-lane constant
#    6 cone.go     threshold comparison flip: exactly-threshold cones overflow
#    7 cone.go     level-sort comparator flip: cone schedule evaluates gates
#                  before their feeders
#    8 cone.go     downstream-obs flag forced false: clipped propagation never
#                  leaves the seed net
#    9 sim.go      reader CSR off-by-one: clipped walk skips the seed net's
#                  first reading gate
#   10 sim.go      SoA index transposition: good-image read flips net-major
#                  to word-major
#   11 sim.go      excitation polarity swap on the per-net rows
#   12 sim.go      excitation row swap on the exact per-pin flip rows
#   13 sim.go      epoch-overflow reset guard disabled
#   14 sim.go      arena epoch-clear skip: reset rewinds counters but leaves
#                  stale marks
#   15 campaign.go tiled path skips beginFault: obs dedup bleeds across faults
#   16 campaign.go tiled keep-list dropped: faults undetected in the first
#                  word tile are never finished
#   17 view.go     reader-CSR prefix sum stops one net short: the last
#                  net's offset is wrong and the reader array is mis-sized
#   18 view.go     level taken from the first gate-driven input instead of
#                  the maximum: level buckets and cone order break
#
# Catchers, in order: the sim-vs-oracle differential harness (fast, runs
# first), then the unit tests targeting the cone/epoch/tiling/excitation
# machinery and the view builder (TestViewMatchesGates) for mutants whose
# Results stay byte-identical (6, 13, 14) or that need low-lane patterns
# to discriminate (11, 12).
#
# Usage: scripts/check-mutants.sh [seed range, default 0:40]
set -euo pipefail
cd "$(dirname "$0")/.."

range="${1:-0:40}"
files=(internal/fault/sim.go internal/fault/cone.go internal/fault/campaign.go internal/netlist/view.go)
unit_pkgs=(./internal/fault ./internal/netlist)
unit_run='Cone|Epoch|Tiling|Excitation|Drop|Overflow|Determinism|View'

# target path|sed substitution
mutants=(
  'internal/fault/sim.go|s/for lv := int32(0); lv <= c.maxLevel \&\& !capped; lv++/for lv := int32(0); lv < c.maxLevel \&\& !capped; lv++/'
  'internal/fault/sim.go|s/if scr.obsEp\[oi\] != scr.runEp {/if scr.obsEp[oi] == scr.runEp {/'
  'internal/fault/sim.go|s/(faulty ^ c.goodRespT\[int(oi)\*st+w\]) \& mask/(faulty ^ c.goodRespT[int(oi)*st+w]) \&^ mask/'
  'internal/fault/sim.go|s/if (v^good\[out\])\&mask == 0 {/if (v^good[out])\&mask != 0 {/'
  'internal/fault/sim.go|s/stuckWord = \^uint64(0)/stuckWord = 1/'
  'internal/fault/cone.go|s/if len(gbuf) > threshold {/if len(gbuf) >= threshold {/'
  'internal/fault/cone.go|s/return c.level\[gbuf\[i\]\] < c.level\[gbuf\[j\]\]/return c.level[gbuf[i]] > c.level[gbuf[j]]/'
  'internal/fault/cone.go|s/c.coneDownObs\[net\] = down/c.coneDownObs[net] = down \&\& false/'
  'internal/fault/sim.go|s/for j := c.rdrOff\[seedNet\]; j < c.rdrOff\[seedNet+1\]; j++ {/for j := c.rdrOff[seedNet] + 1; j < c.rdrOff[seedNet+1]; j++ {/'
  'internal/fault/sim.go|s/return c.goodT\[int(in)\*st+w\]/return c.goodT[int(in)+st*w]/'
  'internal/fault/sim.go|s/exRow = c.exNetHas0\[/exRow = c.exNetHas1[/'
  'internal/fault/sim.go|s/exRow = c.exPinFlip1\[/exRow = c.exPinFlip0[/'
  'internal/fault/sim.go|s/if scr.curEp >= epochResetLimit || scr.runEp >= epochResetLimit {/if false {/'
  'internal/fault/sim.go|s/for i := range scr.slab {/for i := range scr.slab[:0] {/'
  'internal/fault/campaign.go|s/c.core.beginFault(scr)/scr.runEp += 0/'
  'internal/fault/campaign.go|s/keep = append(keep, \*t)/_ = t/'
  'internal/netlist/view.go|s/for i := 0; i < nNets; i++ {/for i := 0; i < nNets-1; i++ {/'
  'internal/netlist/view.go|s/lv = v.Level\[d\] + 1$/lv = v.Level[d] + 1; break/'
)

tmp=$(mktemp -d)
orig() { echo "$tmp/${1//\//_}.orig"; }
for f in "${files[@]}"; do
    cp "$f" "$(orig "$f")"
done
restore() {
    for f in "${files[@]}"; do
        cp "$(orig "$f")" "$f"
    done
}
trap 'restore; rm -rf "$tmp"' EXIT

echo "== baseline: both catchers must pass on unmutated code"
go build -o "$tmp/rescue-diffcheck" ./cmd/rescue-diffcheck
"$tmp/rescue-diffcheck" -seeds "$range" -workers 1,2 > /dev/null
go test -count=1 -run "$unit_run" "${unit_pkgs[@]}" > /dev/null

fail=0
for i in "${!mutants[@]}"; do
    target=${mutants[$i]%%|*}
    m=${mutants[$i]#*|}
    restore
    sed -i "$m" "$target"
    if cmp -s "$(orig "$target")" "$target"; then
        echo "FAIL: mutant $((i + 1)) did not apply — $target drifted from the sed anchor" >&2
        fail=1
        continue
    fi
    if ! go build -o "$tmp/rescue-diffcheck" ./cmd/rescue-diffcheck 2> "$tmp/build.err"; then
        echo "FAIL: mutant $((i + 1)) does not compile:" >&2
        cat "$tmp/build.err" >&2
        fail=1
        continue
    fi
    if ! "$tmp/rescue-diffcheck" -seeds "$range" -workers 1,2 > "$tmp/out.txt" 2>&1; then
        echo "ok: mutant $((i + 1)) caught by the differential harness"
        continue
    fi
    if ! go test -count=1 -run "$unit_run" "${unit_pkgs[@]}" > "$tmp/out.txt" 2>&1; then
        echo "ok: mutant $((i + 1)) caught by the unit tests"
        continue
    fi
    echo "FAIL: mutant $((i + 1)) SURVIVED both catchers:" >&2
    echo "  $target: $m" >&2
    fail=1
done

restore
if [ "$fail" -ne 0 ]; then
    echo "mutation check FAILED" >&2
    exit 1
fi
echo "all ${#mutants[@]} mutants caught"
