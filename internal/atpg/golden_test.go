package atpg

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/rtl"
	"rescue/internal/scan"
)

// podemGoldenPath pins PODEM's observable output: per group of runs, the
// verdict counts and a SHA-256 over every run's (fault index, verdict,
// cube). When the file is missing the test writes it and fails, so a
// fresh golden is never taken for a pass; delete it and rerun to
// regenerate.
const podemGoldenPath = "testdata/podem_golden.txt"

// podemGroup is one golden line's worth of PODEM runs.
type podemGroup struct {
	name   string
	faults func() (*netlist.Netlist, []netlist.Fault)
	limits []int // backtrack limits; every fault runs at each
}

// podemGroups covers the work GenerateFlow hands PODEM on both small
// designs (every random-phase survivor at the default config), and every
// fault site of netlist.Random seeds 0-99 at backtrack limits 0, 3 and
// 500. A limit of 3 drives the Aborted path on circuits where nothing
// aborts at 500.
func podemGroups(t *testing.T) []podemGroup {
	var groups []podemGroup
	for _, v := range []rtl.Variant{rtl.Baseline, rtl.RescueDesign} {
		groups = append(groups, podemGroup{
			name:   "small-" + v.String(),
			limits: []int{DefaultGenConfig().MaxBacktracks},
			faults: func() (*netlist.Netlist, []netlist.Fault) {
				return smallSurvivors(t, v)
			},
		})
	}
	for seed := uint64(0); seed < 100; seed++ {
		groups = append(groups, podemGroup{
			name:   fmt.Sprintf("random-%d", seed),
			limits: []int{0, 3, 500},
			faults: func() (*netlist.Netlist, []netlist.Fault) {
				n := netlist.Random(netlist.RandomConfig{Seed: seed})
				if err := n.Validate(); err != nil {
					t.Error(err)
					return n, nil
				}
				return n, n.AllFaultSites()
			},
		})
	}
	return groups
}

// smallSurvivors returns the small design of variant v and the collapsed
// faults its default-config random phase leaves for PODEM.
func smallSurvivors(t testing.TB, v rtl.Variant) (*netlist.Netlist, []netlist.Fault) {
	d, err := rtl.Build(rtl.Small(), v)
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	c, err := scan.Insert(d.N, 1)
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	u := fault.NewUniverse(d.N)
	g := newGenFlow(c, u, DefaultGenConfig(), nil)
	if err := g.randomPhase(context.Background()); err != nil {
		t.Error(err)
		return nil, nil
	}
	var survivors []netlist.Fault
	for i, alive := range g.remaining {
		if alive {
			survivors = append(survivors, u.Collapsed[i])
		}
	}
	return d.N, survivors
}

// run formats the group's golden line: per backtrack limit, the verdict
// counts and a digest of every (fault index, verdict, cube). All runs
// share one workspace, as GenerateFlow's do.
func (pg podemGroup) run() string {
	n, faults := pg.faults()
	p := newPodem(n)
	var parts []string
	for _, limit := range pg.limits {
		var counts [3]int
		h := sha256.New()
		var rec []byte
		for i, f := range faults {
			cube, res := p.run(f, limit)
			counts[res]++
			rec = binary.LittleEndian.AppendUint32(rec[:0], uint32(i))
			rec = append(rec, byte(res))
			for _, v := range cube.PI {
				rec = append(rec, byte(v))
			}
			for _, v := range cube.FF {
				rec = append(rec, byte(v))
			}
			h.Write(rec)
		}
		parts = append(parts, fmt.Sprintf("bt%d det=%d unt=%d abt=%d sha256=%x",
			limit, counts[Detected], counts[Untestable], counts[Aborted], h.Sum(nil)))
	}
	return fmt.Sprintf("%s faults=%d | %s", pg.name, len(faults), strings.Join(parts, " | "))
}

// TestPodemGolden pins every PODEM verdict and cube over the groups of
// podemGroups against podemGoldenPath.
func TestPodemGolden(t *testing.T) {
	groups := podemGroups(t)
	lines := make([]string, len(groups))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lines[i] = groups[i].run()
			}
		}()
	}
	for i := range groups {
		next <- i
	}
	close(next)
	wg.Wait()
	if t.Failed() {
		return
	}
	got := strings.Join(lines, "\n") + "\n"

	want, err := os.ReadFile(podemGoldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(podemGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(podemGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing %s; rerun to check against it", podemGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d groups, ran %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("group %d drifted:\n got %s\nwant %s", i, lines[i], wantLines[i])
		}
	}
}
