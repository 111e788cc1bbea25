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

// cfgFor maps the -small flag onto the RTL configuration.
func cfgFor(small bool) rtl.Config {
	if small {
		return rtl.Small()
	}
	return rtl.Default()
}

type sysKey struct {
	Small   bool   `json:"small"`
	Variant string `json:"variant"`
}

// System returns the built, scan-inserted, ICI-audited system for a
// configuration, from the store when possible. Systems are read-only
// after construction, so one instance serves concurrent jobs.
func (e Env) System(small bool, v rtl.Variant) (*core.System, error) {
	build := func() (any, error) { return core.Build(cfgFor(small), v) }
	if e.Store == nil {
		s, err := build()
		if err != nil {
			return nil, err
		}
		return s.(*core.System), nil
	}
	val, _, err := e.Store.do(digest("system", sysKey{small, v.String()}), build)
	if err != nil {
		return nil, err
	}
	return val.(*core.System), nil
}

type tpKey struct {
	Small          bool   `json:"small"`
	Variant        string `json:"variant"`
	Seed           int64  `json:"seed"`
	MaxRandomWords int    `json:"maxRandomWords"`
	UselessLimit   int    `json:"uselessLimit"`
	MaxBacktracks  int    `json:"maxBacktracks"`
	// Workers is deliberately not part of the key: the generated test set
	// is bit-identical at any campaign concurrency.
}

func testProgramKey(small bool, v rtl.Variant, gen atpg.GenConfig) tpKey {
	return tpKey{
		Small:          small,
		Variant:        v.String(),
		Seed:           gen.Seed,
		MaxRandomWords: gen.MaxRandomWords,
		UselessLimit:   gen.UselessLimit,
		MaxBacktracks:  gen.MaxBacktracks,
	}
}

// TestProgram returns the generated ATPG test set for (system, config),
// from the store when possible. On a cold build the returned TestProgram
// carries the generation campaign's Stats; on an interrupt the partial
// program (with its stats so far) is returned alongside the error and
// nothing is cached.
func (e Env) TestProgram(ctx context.Context, sys *core.System, small bool, v rtl.Variant, gen atpg.GenConfig) (*core.TestProgram, error) {
	build := func() (any, error) { return sys.GenerateTestsFlow(ctx, gen, e.Ck) }
	if e.Store == nil {
		tp, err := build()
		return tp.(*core.TestProgram), err
	}
	val, _, err := e.Store.do(digest("testprogram", testProgramKey(small, v, gen)), build)
	if val == nil {
		// A waiter joined a build whose value was dropped on error.
		return &core.TestProgram{Gen: &atpg.GenResult{}}, err
	}
	return val.(*core.TestProgram), err
}

type dictKey struct {
	TP tpKey `json:"tp"`
}

// dictArtifact pairs a dictionary with the campaign stats of its cold
// build, so warm hits can still report what the build cost.
type dictArtifact struct {
	d  *fault.Dictionary
	st fault.Stats
}

// Dictionary returns the full fault dictionary over tp's pattern set, from
// the store when possible. The returned stats are those of the build that
// actually ran (zero-valued Faults on a warm hit means no simulation
// happened in this call).
func (e Env) Dictionary(ctx context.Context, tp *core.TestProgram, key tpKey, workers int) (*fault.Dictionary, fault.Stats, error) {
	build := func() (any, error) {
		d, st, err := fault.BuildDictionaryFlow(ctx, tp.Gen.Sim, tp.Universe, workers, e.Ck)
		return dictArtifact{d, st}, err
	}
	if e.Store == nil {
		val, err := build()
		a := val.(dictArtifact)
		return a.d, a.st, err
	}
	val, hit, err := e.Store.do(digest("dictionary", dictKey{key}), build)
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

// Variant-keyed accessors: the design-space sweep builds systems, test
// programs, dictionaries, and perf models for arbitrary parameterized
// variants. The caller (internal/sweep) computes canonical content
// digests over the knobs that determine each artifact — the netlist
// digest covers the RTL configuration and scan-chain split, the perf
// digest covers the simulator parameters — and two sweep points whose
// digests match share the artifact. Worker count stays out of every key,
// as for the fixed-configuration accessors above.

type sysAtKey struct {
	Net string `json:"net"`
}

// SystemAt returns the built, scan-inserted, ICI-audited system for an
// explicit netlist configuration and scan-chain split, cached under the
// caller's netlist digest.
func (e Env) SystemAt(netKey string, cfg rtl.Config, chains int, v rtl.Variant) (*core.System, error) {
	build := func() (any, error) { return core.BuildChains(cfg, v, chains) }
	if e.Store == nil {
		s, err := build()
		if err != nil {
			return nil, err
		}
		return s.(*core.System), nil
	}
	val, _, err := e.Store.do(digest("system", sysAtKey{netKey}), build)
	if err != nil {
		return nil, err
	}
	return val.(*core.System), nil
}

type tpAtKey struct {
	Net            string `json:"net"`
	Seed           int64  `json:"seed"`
	MaxRandomWords int    `json:"maxRandomWords"`
	UselessLimit   int    `json:"uselessLimit"`
	MaxBacktracks  int    `json:"maxBacktracks"`
}

// testProgramAtKey is the cache key for a variant test program: the
// netlist digest plus the generation knobs.
func testProgramAtKey(netKey string, gen atpg.GenConfig) tpAtKey {
	return tpAtKey{
		Net:            netKey,
		Seed:           gen.Seed,
		MaxRandomWords: gen.MaxRandomWords,
		UselessLimit:   gen.UselessLimit,
		MaxBacktracks:  gen.MaxBacktracks,
	}
}

// TestProgramAt returns the generated ATPG test set for a variant system,
// cached under (netlist digest, generation config). Two sweep points that
// share a netlist — same variant at different nodes — build it once.
func (e Env) TestProgramAt(ctx context.Context, netKey string, sys *core.System, gen atpg.GenConfig) (*core.TestProgram, error) {
	build := func() (any, error) { return sys.GenerateTestsFlow(ctx, gen, e.Ck) }
	if e.Store == nil {
		tp, err := build()
		return tp.(*core.TestProgram), err
	}
	val, _, err := e.Store.do(digest("testprogram", testProgramAtKey(netKey, gen)), build)
	if val == nil {
		return &core.TestProgram{Gen: &atpg.GenResult{}}, err
	}
	return val.(*core.TestProgram), err
}

type pmAtKey struct {
	Perf    string   `json:"perf"`
	NodeNM  int      `json:"nodeNM"`
	Benches []string `json:"benches"`
	Warmup  int64    `json:"warmup"`
	Commit  int64    `json:"commit"`
}

// PerfModelAt returns the per-(benchmark, degraded-configuration) IPC
// table for an explicit (baseline, Rescue) parameter pair at a node,
// cached under the caller's perf digest plus the node and measurement
// knobs. The netlist digest is deliberately absent: perf simulation never
// reads the netlist, so variants differing only in RTL knobs share it.
func (e Env) PerfModelAt(ctx context.Context, perfKey string, node int, benches []string, warmup, commit int64, workers int, base, resc uarch.Params) (*core.PerfModel, error) {
	build := func() (any, error) {
		return core.BuildPerfModelFlowParams(ctx, area.Node(node), base, resc, benches, warmup, commit, workers)
	}
	if e.Store == nil {
		pm, err := build()
		if err != nil {
			return nil, err
		}
		return pm.(*core.PerfModel), nil
	}
	val, _, err := e.Store.do(digest("perfmodel", pmAtKey{perfKey, node, benches, warmup, commit}), build)
	if err != nil {
		return nil, err
	}
	return val.(*core.PerfModel), nil
}

type pmKey struct {
	NodeNM  int      `json:"nodeNM"`
	Benches []string `json:"benches"`
	Warmup  int64    `json:"warmup"`
	Commit  int64    `json:"commit"`
}

// PerfModel returns the per-(benchmark, degraded-configuration) IPC table
// for a node, from the store when possible.
func (e Env) PerfModel(ctx context.Context, node int, benches []string, warmup, commit int64, workers int) (*core.PerfModel, error) {
	build := func() (any, error) {
		return core.BuildPerfModelFlow(ctx, area.Node(node), benches, warmup, commit, workers)
	}
	if e.Store == nil {
		pm, err := build()
		if err != nil {
			return nil, err
		}
		return pm.(*core.PerfModel), nil
	}
	val, _, err := e.Store.do(digest("perfmodel", pmKey{node, benches, warmup, commit}), build)
	if err != nil {
		return nil, err
	}
	return val.(*core.PerfModel), nil
}
