package atpg

import (
	"context"
	"math/rand"

	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/obs"
	"rescue/internal/scan"
)

// GenConfig tunes the pattern-generation flow.
type GenConfig struct {
	// MaxRandomWords caps the random phase (64 patterns per word).
	MaxRandomWords int
	// UselessLimit ends the random phase after this many consecutive words
	// that detect no new fault.
	UselessLimit int
	// MaxBacktracks bounds each PODEM run.
	MaxBacktracks int
	// Seed drives random pattern generation and X-fill.
	Seed int64
	// Workers sets the fault-simulation campaign concurrency
	// (<= 0 = all cores). Results are identical at any worker count.
	Workers int
}

// DefaultGenConfig matches common production ATPG settings.
func DefaultGenConfig() GenConfig {
	return GenConfig{MaxRandomWords: 64, UselessLimit: 4, MaxBacktracks: 500, Seed: 1}
}

// GenResult summarizes a generation run — the quantities Table 3 of the
// paper reports.
type GenResult struct {
	Sim *fault.Sim // holds the final pattern set and good responses

	Vectors    int // scan loads (test patterns)
	Faults     int // uncollapsed fault universe size
	Collapsed  int
	Detected   int
	Untestable int
	Aborted    int
	Coverage   float64 // detected / (collapsed - untestable)
	ScanCells  int
	Cycles     int // tester cycles to apply all vectors

	// Stats accumulates the fault-dropping campaign work (faults simulated,
	// words dropped, gate events, wall time across all dropWord passes).
	Stats fault.Stats
}

// GenerateFlow runs the full ATPG flow on a scan-inserted netlist: a
// random phase with fault dropping, then PODEM for the survivors. It takes
// cooperative cancellation and an optional (nil = none) campaign
// checkpoint journal. The flow is deterministic for a given
// (config, netlist): on resume it is re-executed from the start and every
// journaled fault-dropping campaign rehydrates instead of simulating, so
// a killed-and-resumed generation is bit-identical to an uninterrupted
// one. On cancellation the partial GenResult (with its campaign Stats so
// far) is returned alongside the error.
func GenerateFlow(ctx context.Context, c *scan.Chain, u *fault.Universe, cfg GenConfig, ck *fault.Checkpoint) (*GenResult, error) {
	defer obs.Span(ctx, "atpg_generate")()
	g := newGenFlow(c, u, cfg, ck)
	if err := g.randomPhase(ctx); err != nil {
		return g.result(), err
	}

	// Phase 2: PODEM for survivors, packing cubes 64 to a word with random
	// X-fill. Each filled word is fault-simulated to drop secondaries.
	var cur *scan.Pattern
	curLanes := 0
	flush := func() error {
		if cur == nil || curLanes == 0 {
			return nil
		}
		cur.Lanes = curLanes
		g.sim.AddPattern(cur)
		g.vectors += curLanes
		_, err := g.dropWord(ctx, len(g.sim.Patterns)-1)
		cur, curLanes = nil, 0
		return err
	}
	xfill := func() uint64 { return g.rng.Uint64() }
	pd := newPodem(c.N) // one workspace for every fault
	for i := range g.remaining {
		if !g.remaining[i] {
			continue
		}
		// PODEM runs are serial CPU work outside the campaign engine; check
		// for cancellation between faults so a Ctrl-C lands promptly here
		// too.
		if err := ctx.Err(); err != nil {
			return g.result(), context.Cause(ctx)
		}
		cube, res := pd.run(u.Collapsed[i], cfg.MaxBacktracks)
		switch res {
		case Untestable:
			g.drop(i)
			g.untestable++
			continue
		case Aborted:
			g.aborted++
			continue
		}
		if cur == nil {
			cur = c.NewPattern(0)
		}
		cube.Apply(cur, uint(curLanes), xfill)
		curLanes++
		if curLanes == 64 {
			if err := flush(); err != nil {
				return g.result(), err
			}
			if !g.remaining[i] {
				// the cube's own word should have detected it; if random
				// fill masked it (can't for a true PODEM test), it stays
				// remaining and is counted aborted below
				continue
			}
		}
		// self-detection is guaranteed by PODEM; mark defensively
		g.drop(i)
		g.detected++
	}
	if err := flush(); err != nil {
		return g.result(), err
	}
	return g.result(), nil
}

// genFlow is the state GenerateFlow's two phases share.
type genFlow struct {
	c   *scan.Chain
	u   *fault.Universe
	cfg GenConfig
	ck  *fault.Checkpoint
	rng *rand.Rand
	sim *fault.Sim
	// One campaign serves every dropWord pass, so per-worker scratch state
	// is allocated once. MaxFail=1: detection-only, the coverage loop never
	// needs more than the first failing bit.
	camp      *fault.Campaign
	campStats fault.Stats

	remaining  []bool // per collapsed fault: not yet detected or classified
	nRemaining int
	detected   int
	untestable int
	aborted    int
	vectors    int

	aliveIdx    []int
	aliveFaults []netlist.Fault
}

func newGenFlow(c *scan.Chain, u *fault.Universe, cfg GenConfig, ck *fault.Checkpoint) *genFlow {
	sim := fault.NewSim(c, nil)
	g := &genFlow{
		c: c, u: u, cfg: cfg, ck: ck,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		sim:        sim,
		camp:       fault.NewCampaign(sim, fault.CampaignConfig{Workers: cfg.Workers, MaxFail: 1}),
		remaining:  make([]bool, u.CountCollapsed()),
		nRemaining: u.CountCollapsed(),
	}
	for i := range g.remaining {
		g.remaining[i] = true
	}
	return g
}

// drop retires collapsed fault i from the remaining set.
func (g *genFlow) drop(i int) {
	g.remaining[i] = false
	g.nRemaining--
}

// dropWord fault-simulates every remaining fault against pattern word w
// and drops the detected ones, returning how many it dropped.
func (g *genFlow) dropWord(ctx context.Context, w int) (int, error) {
	g.aliveIdx = g.aliveIdx[:0]
	g.aliveFaults = g.aliveFaults[:0]
	for i, alive := range g.remaining {
		if !alive {
			continue
		}
		g.aliveIdx = append(g.aliveIdx, i)
		g.aliveFaults = append(g.aliveFaults, g.u.Collapsed[i])
	}
	results, st, err := g.camp.RunWordsCheckpoint(ctx, g.ck, g.aliveFaults, w, w+1)
	g.campStats.Add(st)
	if err != nil {
		return 0, err
	}
	dropped := 0
	for k, res := range results {
		if res.Detected {
			g.drop(g.aliveIdx[k])
			g.detected++
			dropped++
		}
	}
	return dropped, nil
}

// randomPhase is phase 1: seeded random 64-pattern words with fault
// dropping, until UselessLimit consecutive words detect nothing new. The
// faults still remaining afterwards are exactly the ones phase 2 hands
// to PODEM.
func (g *genFlow) randomPhase(ctx context.Context) error {
	useless := 0
	for w := 0; w < g.cfg.MaxRandomWords && g.nRemaining > 0 && useless < g.cfg.UselessLimit; w++ {
		p := g.c.NewPattern(64)
		for i := range p.FFVals {
			p.FFVals[i] = g.rng.Uint64()
		}
		for i := range p.PIVals {
			p.PIVals[i] = g.rng.Uint64()
		}
		g.sim.AddPattern(p)
		g.vectors += 64
		d, err := g.dropWord(ctx, len(g.sim.Patterns)-1)
		if err != nil {
			return err
		}
		if d == 0 {
			useless++
		} else {
			useless = 0
		}
	}
	return nil
}

// result assembles the GenResult from whatever the flow has finished —
// the complete answer on success, the progress record on interrupt.
func (g *genFlow) result() *GenResult {
	res := &GenResult{
		Sim:        g.sim,
		Vectors:    g.vectors,
		Faults:     g.u.CountAll(),
		Collapsed:  g.u.CountCollapsed(),
		Detected:   g.detected,
		Untestable: g.untestable,
		Aborted:    g.aborted,
		ScanCells:  g.c.Cells(),
		Cycles:     g.c.TestCycles(g.vectors),
		Stats:      g.campStats,
	}
	if d := g.u.CountCollapsed() - g.untestable; d > 0 {
		res.Coverage = float64(g.detected) / float64(d)
	}
	return res
}
