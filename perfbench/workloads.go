package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"rescue/internal/area"
	"rescue/internal/atpg"
	"rescue/internal/core"
	"rescue/internal/fab"
	"rescue/internal/fault"
	"rescue/internal/flows"
	"rescue/internal/ici"
	"rescue/internal/rtl"
	"rescue/internal/scan"
	"rescue/internal/uarch"
	benchprof "rescue/internal/workload"
)

// workers is the campaign and simulation concurrency of every request:
// the benchmark host has two CPUs.
const workers = 2

// defaultSeed is the workload seed whose outputs the committed goldens
// pin. The seed drives fab_small's fleet seed only: it maps to 2026, the
// CLI default. table3_small's ATPG seed stays at the golden's 1, because
// the ATPG seed moves PODEM work by about ±12%, which would swamp the
// run-to-run comparison.
const defaultSeed = 0

func fleetSeed(seed int64) int64 { return seed + 2026 }

// size holds the knobs that set how much work a request does. The
// benchmark always runs fullSize; the self-tests shrink it.
type size struct {
	Backtracks     int      // table3_small: PODEM backtrack limit
	Profiles       []string // fig8_ipc: benchmark profiles simulated
	Warmup, Commit int64    // fig8_ipc: instructions per simulation
	Dies           int      // fab_small: fleet size
}

var fullSize = size{
	Backtracks: 500,
	// Spans the IPC range of results/figure8.txt: two memory-bound
	// (mcf, fma3d), two mid (gzip, gcc), two wide (swim, equake).
	Profiles: []string{"gzip", "gcc", "mcf", "swim", "equake", "fma3d"},
	Warmup:   100_000,
	Commit:   1_000_000,
	Dies:     2000,
}

// counts are the deterministic work counters the traced request reads off
// each layer's results; they repeat exactly for a given seed.
type counts struct {
	Gates, Cells                            int
	Collapsed, Untestable, Aborted, Vectors int
	ATPGCampaign                            fault.Stats // summed over ATPG runs
	FabCampaign                             fault.Stats
	UarchRuns                               int
	SimCycles, SimInstr                     int64
	Dies, UniqueFaults                      int
}

// A workload is one cold request, run two ways that must print the same
// bytes: Run enters through the public flow function the CLI uses, Traced
// calls each layer's public functions directly under spans.
type workload struct {
	Name   string
	Why    string
	Golden string // path, relative to the repository root, of the golden output
	Seeded bool   // the seed changes the output, so the golden pins defaultSeed only
	Run    func(ctx context.Context, w io.Writer, sz size, seed int64) error
	Traced func(ctx context.Context, w io.Writer, sz size, seed int64, t *tracer, c *counts) error
	Check  func(out, golden string, sz size) error
}

var workloads = []*workload{
	{
		Name:   "table3_small",
		Why:    "small Table 3 over both variants: ATPG/PODEM is >99% of it and uarch is never entered",
		Golden: "results/table3_small.txt",
		Run:    table3Run,
		Traced: table3Traced,
		Check:  checkExact,
	},
	{
		Name:   "fig8_ipc",
		Why:    "Figure 8 IPC study on six profiles at 100k warmup / 1M commit: warm long cycle-simulator runs, no netlist",
		Golden: "results/figure8.txt",
		Run:    fig8Run,
		Traced: fig8Traced,
		Check:  checkLines,
	},
	{
		Name:   "fab_small",
		Why:    "2,000-die fab fleet: ATPG on one netlist plus 65 short stall-bound uarch runs, one full-diagnosis fault campaign, the fleet",
		Golden: "results/fab_small.txt",
		Seeded: true,
		Run:    fabRun,
		Traced: fabTraced,
		Check:  checkExact,
	},
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// goldenApplies reports whether the committed golden pins a full-size
// request's output at this seed.
func (wl *workload) goldenApplies(seed int64) bool {
	return !wl.Seeded || seed == defaultSeed
}

func checkExact(out, golden string, _ size) error {
	if out != golden {
		return fmt.Errorf("output differs from the golden")
	}
	return nil
}

// checkLines accepts an output whose every line appears verbatim in the
// golden and which holds one row per profile under its header.
func checkLines(out, golden string, sz size) error {
	have := map[string]bool{}
	for _, l := range strings.Split(golden, "\n") {
		have[l] = true
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 1+len(sz.Profiles) {
		return fmt.Errorf("output has %d lines, want a header and %d rows", len(lines), len(sz.Profiles))
	}
	for _, l := range lines {
		if !have[l] {
			return fmt.Errorf("line %q is not in the golden", l)
		}
	}
	return nil
}

// --- table3_small -----------------------------------------------------

func table3Run(ctx context.Context, w io.Writer, sz size, _ int64) error {
	_, err := flows.Table3(ctx, w, flows.Table3Opts{
		Small: true, Backtracks: sz.Backtracks, Workers: workers,
	}, flows.Env{})
	return err
}

// table3Traced prints what flows.Table3 prints with timing off, at the
// same default ATPG seed.
func table3Traced(ctx context.Context, w io.Writer, sz size, _ int64, t *tracer, c *counts) error {
	gen := atpg.DefaultGenConfig()
	gen.MaxBacktracks = sz.Backtracks
	gen.Workers = workers

	fmt.Fprintln(w, "Table 3: Scan Chain data (paper: baseline 111294 faults / 2768 cells /")
	fmt.Fprintln(w, "1911 vectors / 5272449 cycles; Rescue 113490 / 3334 / 1787 / 5959645;")
	fmt.Fprintln(w, "Rescue = fewer vectors, ~13% more cycles). Our model is smaller but the")
	fmt.Fprintln(w, "same shape must hold.")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %10s %10s %10s %12s %9s\n",
		"design", "faults", "cells", "vectors", "cycles", "coverage")
	var rows []core.ScanSummary
	for _, v := range []rtl.Variant{rtl.Baseline, rtl.RescueDesign} {
		sys, err := buildSystem(t, v, c)
		if err != nil {
			return err
		}
		tp, err := generateTests(ctx, t, sys, gen, c)
		if err != nil {
			return err
		}
		sum := sys.Summary(tp)
		rows = append(rows, sum)
		fmt.Fprintf(w, "%-10s %10d %10d %10d %12d %8.2f%%\n",
			sum.Variant, sum.Faults, sum.ScanCells, sum.Vectors, sum.Cycles, sum.Coverage*100)
	}
	pct := func(a, b int) float64 { return (float64(a)/float64(b) - 1) * 100 }
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Rescue vs baseline: cells %+.1f%%, vectors %+.1f%%, cycles %+.1f%%\n",
		pct(rows[1].ScanCells, rows[0].ScanCells),
		pct(rows[1].Vectors, rows[0].Vectors),
		pct(rows[1].Cycles, rows[0].Cycles))
	return nil
}

// buildSystem is core.Build (the small configuration, one scan chain) as
// three traced layer calls.
func buildSystem(t *tracer, v rtl.Variant, c *counts) (*core.System, error) {
	var d *rtl.Design
	if err := t.do(rootID, "rtl.build", func(int) (err error) {
		d, err = rtl.Build(rtl.Small(), v)
		return err
	}); err != nil {
		return nil, err
	}
	var ch *scan.Chain
	if err := t.do(rootID, "scan.insert", func(int) (err error) {
		ch, err = scan.Insert(d.N, 1)
		return err
	}); err != nil {
		return nil, err
	}
	var a *ici.AuditResult
	_ = t.do(rootID, "ici.audit", func(int) error {
		a = ici.Audit(d.N, d.Grouping)
		return nil
	})
	c.Gates += d.N.NumGates()
	c.Cells += ch.Cells()
	return &core.System{Design: d, Chain: ch, Audit: a}, nil
}

// generateTests is System.GenerateTestsFlow as two traced layer calls.
func generateTests(ctx context.Context, t *tracer, sys *core.System, gen atpg.GenConfig, c *counts) (*core.TestProgram, error) {
	var u *fault.Universe
	_ = t.do(rootID, "fault.universe", func(int) error {
		u = fault.NewUniverse(sys.Design.N)
		return nil
	})
	var g *atpg.GenResult
	if err := t.do(rootID, "atpg.generate", func(int) (err error) {
		g, err = atpg.GenerateFlow(ctx, sys.Chain, u, gen, nil)
		return err
	}); err != nil {
		return nil, err
	}
	c.Collapsed += g.Collapsed
	c.Untestable += g.Untestable
	c.Aborted += g.Aborted
	c.Vectors += g.Vectors
	c.ATPGCampaign.Add(g.Stats)
	return &core.TestProgram{Universe: u, Gen: g}, nil
}

// --- fig8_ipc ---------------------------------------------------------

func fig8Run(ctx context.Context, w io.Writer, sz size, _ int64) error {
	rows, err := core.IPCStudyFlow(ctx, sz.Profiles, sz.Warmup, sz.Commit, workers)
	if err != nil {
		return err
	}
	writeFig8(w, rows)
	return nil
}

// writeFig8 prints the header and rows exactly as rescue-sim does.
func writeFig8(w io.Writer, rows []core.IPCRow) {
	fmt.Fprintf(w, "%-10s %9s %9s %7s\n", "benchmark", "baseline", "rescue", "deg%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.3f %9.3f %6.1f%%\n", r.Benchmark, r.Baseline, r.Rescue, r.DegradationPct)
	}
}

// fig8Traced is core.IPCStudyFlow with each simulator construction and
// run traced: profiles are spread over the workers, and each simulates
// the baseline then the Rescue machine.
func fig8Traced(ctx context.Context, w io.Writer, sz size, _ int64, t *tracer, c *counts) error {
	profs := make([]benchprof.Profile, len(sz.Profiles))
	for i, n := range sz.Profiles {
		p, err := benchprof.ByName(n)
		if err != nil {
			return err
		}
		profs[i] = p
	}
	rows := make([]core.IPCRow, len(profs))
	stats := make([]uarch.Stats, 2*len(profs))
	err := t.do(rootID, "core.ipc_study", func(study int) error {
		return parallel(ctx, len(profs), func(i int) error {
			base, err := simulate(t, study, uarch.DefaultParams(), profs[i], sz, &stats[2*i])
			if err != nil {
				return err
			}
			resc, err := simulate(t, study, uarch.RescueParams(), profs[i], sz, &stats[2*i+1])
			if err != nil {
				return err
			}
			rows[i] = core.IPCRow{Benchmark: profs[i].Name, Baseline: base, Rescue: resc}
			if base > 0 {
				rows[i].DegradationPct = (1 - resc/base) * 100
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	for _, s := range stats {
		c.UarchRuns++
		c.SimCycles += s.Cycles
		c.SimInstr += s.Committed
	}
	writeFig8(w, rows)
	return nil
}

// simulate runs one uarch simulation as two traced calls and returns its IPC.
func simulate(t *tracer, parent int, p uarch.Params, prof benchprof.Profile, sz size, st *uarch.Stats) (float64, error) {
	var s *uarch.Sim
	if err := t.do(parent, "uarch.new", func(int) (err error) {
		s, err = uarch.New(p, prof)
		return err
	}); err != nil {
		return 0, err
	}
	_ = t.do(parent, "uarch.run", func(int) error {
		*st = s.Run(sz.Warmup, sz.Commit)
		return nil
	})
	return st.IPC(), nil
}

// parallel runs f(0..n-1) on the request's workers and returns the first
// error; once ctx is done no new index starts.
func parallel(ctx context.Context, n int, f func(i int) error) error {
	next := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// --- fab_small --------------------------------------------------------

// The rescue-fab defaults the golden pins, bar -small and -dies.
const (
	fabNodeNM     = 18
	fabStagnateNM = 90
	fabGrowth     = 0.30
	fabBench      = "gzip"
	fabWarmup     = 2_000
	fabCommit     = 10_000
)

func fabRun(ctx context.Context, w io.Writer, sz size, seed int64) error {
	_, err := flows.Fab(ctx, w, flows.FabOpts{
		Dies: sz.Dies, NodeNM: fabNodeNM, StagnateNM: fabStagnateNM,
		Growth: fabGrowth, GrowthSet: true, Seed: fleetSeed(seed), Workers: workers,
		Small: true, Bench: fabBench, BenchSet: true, Warmup: fabWarmup, Commit: fabCommit,
	}, flows.Env{})
	return err
}

// fabTraced prints what flows.Fab prints with timing off.
func fabTraced(ctx context.Context, w io.Writer, sz size, seed int64, t *tracer, c *counts) error {
	node, ok := flows.ValidNode(fabNodeNM)
	if !ok {
		return fmt.Errorf("fab: unsupported node %dnm", fabNodeNM)
	}
	sys, err := buildSystem(t, rtl.RescueDesign, c)
	if err != nil {
		return err
	}
	if !sys.Audit.OK() {
		return fmt.Errorf("ICI audit failed: %d violations", len(sys.Audit.Violations))
	}
	fmt.Fprintf(w, "built %s: %d gates, %d scan cells; ICI audit clean\n",
		sys.Design.N.Name, sys.Design.N.NumGates(), sys.Design.N.NumFFs())

	gen := atpg.DefaultGenConfig()
	gen.Workers = workers
	tp, err := generateTests(ctx, t, sys, gen, c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ATPG: %d vectors, %.2f%% coverage\n", tp.Gen.Vectors, tp.Gen.Coverage*100)

	var pm *core.PerfModel
	if err := t.do(rootID, "core.perf_model", func(int) (err error) {
		pm, err = core.BuildPerfModelFlow(ctx, area.Node(fabNodeNM), []string{fabBench}, fabWarmup, fabCommit, workers)
		return err
	}); err != nil {
		return err
	}
	base, resc := fab.ModelsFromPerf(pm, area.BaselineWithScan(), area.Rescue())
	fmt.Fprintf(w, "degraded-IPC model: %d configurations x %d benchmarks\n", len(resc.IPC), len(pm.Baseline))

	var eng *fab.Engine
	if err := t.do(rootID, "fab.new", func(int) (err error) {
		eng, err = fab.New(sys, tp, base, resc, fab.Config{
			Dies: sz.Dies, Node: node, Stagnate: area.Node(fabStagnateNM),
			Growth: fabGrowth, Seed: fleetSeed(seed), Workers: workers,
		})
		return err
	}); err != nil {
		return err
	}
	var rep *fab.FleetReport
	if err := t.do(rootID, "fab.run", func(int) (err error) {
		rep, err = eng.Run(ctx, nil)
		return err
	}); err != nil {
		return err
	}
	c.FabCampaign = rep.Stats
	c.Dies = rep.Dies
	c.UniqueFaults = rep.UniqueFaults
	fmt.Fprintln(w)
	rep.WriteText(w, false)
	return nil
}
