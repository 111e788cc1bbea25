package fault

import (
	"rescue/internal/netlist"
	"rescue/internal/scan"
)

// Oracle is a brute-force reference fault simulator: for every
// (fault, pattern word) it re-evaluates the complete netlist through the
// scan package's load/capture semantics — no event-driven scheduling, no
// levels, no fault dropping, no shared scratch state, no per-net reader
// maps. It implements exactly the same Result contract as Sim (see the
// ordering documentation on Result) while sharing only one thing with Sim:
// the 64-lane gate truth table netlist.EvalWord, which netlist's
// TestGateTruthTables pins independently at every kind and arity. (The
// oracle's State walks the netlist View's topological order and reads the
// Gate records; Sim reads the View's level and CSR arrays instead.) So the
// two engines cannot share a bug: the differential harness in
// internal/diffcheck cross-checks them on thousands of generated circuits,
// the methodology of differential simulator validation (cf. "Towards
// Accurate Performance Modeling of RISC-V Designs").
//
// An Oracle is orders of magnitude slower than Sim — cost is
// O(gates × words) per fault regardless of how far the fault effect
// propagates — which is the point: it is the simple, obviously-correct
// implementation the optimized engine is measured against.
type Oracle struct {
	C        *scan.Chain
	Patterns []*scan.Pattern

	good [][]uint64 // [word][obs] good-machine responses, brute-forced
}

// NewOracle builds an oracle over the chain's netlist and precomputes
// good-machine responses for the given patterns (which may be nil; use
// AddPattern to grow the set).
func NewOracle(c *scan.Chain, patterns []*scan.Pattern) *Oracle {
	o := &Oracle{C: c}
	for _, p := range patterns {
		o.AddPattern(p)
	}
	return o
}

// AddPattern appends a pattern word and brute-forces its good response.
func (o *Oracle) AddPattern(p *scan.Pattern) {
	o.good = append(o.good, o.C.ApplyTest(p, netlist.NoFault))
	o.Patterns = append(o.Patterns, p)
}

// Run simulates fault f against every pattern word by full netlist
// re-evaluation, honoring the same maxFail cap semantics as Sim.Run: with
// maxFail > 0 the sweep stops at the end of the first word that reaches
// the cap and Fails is truncated to the canonical prefix.
func (o *Oracle) Run(f netlist.Fault, maxFail int) Result {
	return o.RunWords(f, maxFail, 0, len(o.Patterns))
}

// RunWords simulates fault f against pattern words [wLo, wHi) only — the
// oracle twin of Sim.RunWord.
func (o *Oracle) RunWords(f netlist.Fault, maxFail, wLo, wHi int) Result {
	res := Result{}
	numObs := o.C.N.NumFFs() + len(o.C.N.Outputs)
	var seen []bool
	for w := wLo; w < wHi; w++ {
		p := o.Patterns[w]
		mask := p.LaneMask()
		bad := o.C.ApplyTest(p, f)
		good := o.good[w]
		for oi := 0; oi < numObs; oi++ {
			diff := (bad[oi] ^ good[oi]) & mask
			if diff == 0 {
				continue
			}
			res.Detected = true
			if seen == nil {
				seen = make([]bool, numObs)
			}
			if !seen[oi] {
				seen[oi] = true
				res.FailObs = append(res.FailObs, oi)
			}
			for lane := 0; lane < 64 && diff != 0; lane++ {
				if diff&(1<<uint(lane)) != 0 {
					res.Fails = append(res.Fails, FailBit{Word: w, Lane: lane, Obs: oi})
					diff &^= 1 << uint(lane)
				}
			}
		}
		if maxFail > 0 && len(res.Fails) >= maxFail {
			res.Fails = res.Fails[:maxFail]
			return res
		}
	}
	return res
}
