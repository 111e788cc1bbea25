package uarch

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rescue/internal/workload"
)

// goldenPath pins the simulator's full observable behaviour: every Stats
// and Occupancy field of short runs over all benchmark profiles on five
// machines. When the file is missing the test writes it and fails, so a
// fresh golden is never taken for a pass; delete it and rerun to
// regenerate.
const goldenPath = "testdata/sim_golden.txt"

// goldenMachines are the configurations the golden covers: both Table 1
// machines, a degraded Rescue die (one int-queue half and one LSQ half
// mapped out), and the two replay-policy ablations.
func goldenMachines() []struct {
	name string
	p    Params
} {
	degraded := RescueParams()
	degraded.Degr = Degraded{IntIQHalvesDown: 1, LSQHalvesDown: 1}
	replayAll := RescueParams()
	replayAll.ReplayPolicy = ReplayAll
	oracle := RescueParams()
	oracle.ReplayPolicy = OracleCombine
	return []struct {
		name string
		p    Params
	}{
		{"baseline", DefaultParams()},
		{"rescue", RescueParams()},
		{"rescue-degraded", degraded},
		{"rescue-replay-all", replayAll},
		{"rescue-oracle", oracle},
	}
}

// nonZeroFields formats a struct's non-zero fields as name=value pairs.
// Zero fields are left out so that deleting a field that always reads 0
// leaves the golden unchanged, while any field whose value moves still
// shows up.
func nonZeroFields(v any) string {
	rv := reflect.ValueOf(v)
	var parts []string
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); !f.IsZero() {
			parts = append(parts, fmt.Sprintf("%s=%v", rv.Type().Field(i).Name, f.Interface()))
		}
	}
	return strings.Join(parts, " ")
}

func TestSimGolden(t *testing.T) {
	const warmup, commit = 1000, 8000
	type run struct {
		prof    workload.Profile
		machine string
		p       Params
	}
	var runs []run
	for _, prof := range workload.Benchmarks() {
		for _, m := range goldenMachines() {
			runs = append(runs, run{prof, m.name, m.p})
		}
	}
	lines := make([]string, len(runs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := runs[i]
				s, err := New(r.p, r.prof)
				if err != nil {
					t.Errorf("%s %s: %v", r.prof.Name, r.machine, err)
					continue
				}
				st := s.Run(warmup, commit)
				lines[i] = fmt.Sprintf("%s %s | %s | %s", r.prof.Name, r.machine,
					nonZeroFields(st), nonZeroFields(s.Occupancy()))
			}
		}()
	}
	for i := range runs {
		next <- i
	}
	close(next)
	wg.Wait()
	if t.Failed() {
		return
	}
	got := strings.Join(lines, "\n") + "\n"

	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing %s; rerun to check against it", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d runs, simulated %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("run %d drifted:\n got %s\nwant %s", i, lines[i], wantLines[i])
		}
	}
}
