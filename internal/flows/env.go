package flows

import (
	"context"

	"rescue/internal/area"
	"rescue/internal/atpg"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/rtl"
	"rescue/internal/uarch"
)

// Env carries a flow invocation's environment: the artifact store (nil =
// build everything fresh, the CLI default) and an optional campaign
// checkpoint journal. Cached artifacts make the journal moot for the
// cached sections — journal sections are bound by content identity, so a
// flow that skips a campaign entirely on a warm hit still resumes its
// remaining campaigns correctly.
type Env struct {
	Store *Store
	Ck    *fault.Checkpoint
}

// Design names one built system: the RTL configuration, the scan-chain
// split and the design variant. It is the system artifact's key and the
// prefix of the test-program and dictionary keys, so any two callers
// that describe the same netlist — a fab job and the paper sweep point,
// say — share every artifact built from it.
type Design struct {
	Config  rtl.Config  `json:"config"`
	Chains  int         `json:"chains"`
	Variant rtl.Variant `json:"variant"`
}

// PaperDesign is the paper's single-scan-chain design of variant v at
// the full or (-small) reduced configuration.
func PaperDesign(small bool, v rtl.Variant) Design {
	cfg := rtl.Default()
	if small {
		cfg = rtl.Small()
	}
	return Design{Config: cfg, Chains: 1, Variant: v}
}

// System returns the built, scan-inserted, ICI-audited system for d, from
// the store when possible. Systems are read-only after construction, so
// one instance serves concurrent jobs.
func (e Env) System(d Design) (*core.System, error) {
	val, _, err := e.Store.do(digest("system", d), func() (any, error) {
		return core.BuildChains(d.Config, d.Variant, d.Chains)
	})
	if err != nil {
		return nil, err
	}
	return val.(*core.System), nil
}

type tpKey struct {
	Design         Design `json:"design"`
	Seed           int64  `json:"seed"`
	MaxRandomWords int    `json:"maxRandomWords"`
	UselessLimit   int    `json:"uselessLimit"`
	MaxBacktracks  int    `json:"maxBacktracks"`
	// Workers is deliberately not part of the key: the generated test set
	// is bit-identical at any campaign concurrency.
}

func testProgramKey(d Design, gen atpg.GenConfig) tpKey {
	return tpKey{
		Design:         d,
		Seed:           gen.Seed,
		MaxRandomWords: gen.MaxRandomWords,
		UselessLimit:   gen.UselessLimit,
		MaxBacktracks:  gen.MaxBacktracks,
	}
}

// defaultGen is the default ATPG configuration at a campaign concurrency.
func defaultGen(workers int) atpg.GenConfig {
	gen := atpg.DefaultGenConfig()
	gen.Workers = workers
	return gen
}

// TestProgram returns the generated ATPG test set for d's system sys
// under gen, from the store when possible. On a cold build the returned
// TestProgram carries the generation campaign's Stats; on an interrupt
// the partial program (with its stats so far) is returned alongside the
// error and nothing is cached.
func (e Env) TestProgram(ctx context.Context, d Design, sys *core.System, gen atpg.GenConfig) (*core.TestProgram, error) {
	val, _, err := e.Store.do(digest("testprogram", testProgramKey(d, gen)), func() (any, error) {
		return sys.GenerateTestsFlow(ctx, gen, e.Ck)
	})
	if val == nil {
		// A waiter joined a build whose value was dropped on error.
		return &core.TestProgram{Gen: &atpg.GenResult{}}, err
	}
	return val.(*core.TestProgram), err
}

// dictArtifact pairs a dictionary with the campaign stats of its cold
// build, so warm hits can still report what the build cost.
type dictArtifact struct {
	d  *fault.Dictionary
	st fault.Stats
}

// Dictionary returns the full fault dictionary over tp, the test program
// of (d, gen), from the store when possible. The returned stats are those
// of the build that actually ran (zero-valued Faults on a warm hit means
// no simulation happened in this call).
func (e Env) Dictionary(ctx context.Context, d Design, gen atpg.GenConfig, tp *core.TestProgram) (*fault.Dictionary, fault.Stats, error) {
	val, hit, err := e.Store.do(digest("dictionary", testProgramKey(d, gen)), func() (any, error) {
		dict, st, err := fault.BuildDictionaryFlow(ctx, tp.Gen.Sim, tp.Universe, gen.Workers, e.Ck)
		return dictArtifact{dict, st}, err
	})
	if val == nil {
		return nil, fault.Stats{}, err
	}
	a := val.(dictArtifact)
	if hit {
		// The work happened in some earlier job; this call simulated nothing.
		return a.d, fault.Stats{}, err
	}
	return a.d, a.st, err
}

// Perf names one degraded-IPC model and is its artifact key: the
// (baseline, Rescue) simulator pair, the technology node, and the
// measurement knobs. The netlist is deliberately absent — perf simulation
// never reads it, so designs differing only in RTL knobs share the model.
type Perf struct {
	Base    uarch.Params `json:"base"`
	Rescue  uarch.Params `json:"rescue"`
	NodeNM  int          `json:"nodeNM"`
	Benches []string     `json:"benches"` // nil = all 23
	Warmup  int64        `json:"warmup"`
	Commit  int64        `json:"commit"`
}

// PerfModel returns the per-(benchmark, degraded-configuration) IPC table
// for p, from the store when possible.
func (e Env) PerfModel(ctx context.Context, p Perf, workers int) (*core.PerfModel, error) {
	val, _, err := e.Store.do(digest("perfmodel", p), func() (any, error) {
		return core.BuildPerfModelFlowParams(ctx, area.Node(p.NodeNM), p.Base, p.Rescue, p.Benches, p.Warmup, p.Commit, workers)
	})
	if err != nil {
		return nil, err
	}
	return val.(*core.PerfModel), nil
}
