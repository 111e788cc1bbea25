package atpg

import (
	"context"
	"testing"

	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/rtl"
	"rescue/internal/scan"
)

// BenchmarkPodem measures deterministic test generation on the work
// GenerateFlow actually hands PODEM: every collapsed fault of the small
// Rescue design that survives the default config's seeded random phase,
// the aborted tail included. Each iteration runs PODEM once over all of
// them; faults/s is the throughput. The random phase itself is setup and
// is not timed.
func BenchmarkPodem(b *testing.B) {
	d, err := rtl.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		b.Fatal(err)
	}
	c, err := scan.Insert(d.N, 1)
	if err != nil {
		b.Fatal(err)
	}
	u := fault.NewUniverse(d.N)
	cfg := DefaultGenConfig()
	g := newGenFlow(c, u, cfg, nil)
	if err := g.randomPhase(context.Background()); err != nil {
		b.Fatal(err)
	}
	var survivors []netlist.Fault
	for i, alive := range g.remaining {
		if alive {
			survivors = append(survivors, u.Collapsed[i])
		}
	}
	b.ResetTimer()
	var aborted int
	for i := 0; i < b.N; i++ {
		aborted = 0
		for _, f := range survivors {
			if _, res := Podem(d.N, f, cfg.MaxBacktracks); res == Aborted {
				aborted++
			}
		}
	}
	b.ReportMetric(float64(len(survivors)*b.N)/b.Elapsed().Seconds(), "faults/s")
	b.ReportMetric(float64(len(survivors)), "faults/op")
	b.ReportMetric(float64(aborted), "aborted/op")
}
