package atpg

import (
	"testing"

	"rescue/internal/rtl"
)

// BenchmarkPodem measures deterministic test generation on the work
// GenerateFlow actually hands PODEM: every collapsed fault of the small
// Rescue design that survives the default config's seeded random phase,
// the aborted tail included. Each iteration runs PODEM once over all of
// them on one reused workspace, as GenerateFlow does; faults/s is the
// throughput. The random phase itself is setup and is not timed.
func BenchmarkPodem(b *testing.B) {
	n, survivors := smallSurvivors(b, rtl.RescueDesign)
	if b.Failed() {
		return
	}
	maxBacktracks := DefaultGenConfig().MaxBacktracks
	b.ResetTimer()
	var aborted int
	for i := 0; i < b.N; i++ {
		aborted = 0
		p := newPodem(n)
		for _, f := range survivors {
			if _, res := p.run(f, maxBacktracks); res == Aborted {
				aborted++
			}
		}
	}
	b.ReportMetric(float64(len(survivors)*b.N)/b.Elapsed().Seconds(), "faults/s")
	b.ReportMetric(float64(len(survivors)), "faults/op")
	b.ReportMetric(float64(aborted), "aborted/op")
}
