package flows

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"rescue/internal/area"
	"rescue/internal/core"
	"rescue/internal/fab"
	"rescue/internal/fault"
	"rescue/internal/rtl"
	"rescue/internal/uarch"
)

// FabOpts parameterizes the Monte Carlo die-lifecycle fleet — the
// rescue-fab command surface and, through its JSON names, the fab job's
// params. NodeNM must be one of area.Nodes() (validated by ValidNode);
// zero values take the command's defaults.
type FabOpts struct {
	Dies          int     `json:"dies"`     // 0 = 10000
	NodeNM        int     `json:"node"`     // 0 = 18
	StagnateNM    int     `json:"stagnate"` // 0 = 90
	Growth        float64 `json:"growth"`
	GrowthSet     bool    `json:"-"`    // distinguishes an explicit 0 growth from the default 0.30
	Seed          int64   `json:"seed"` // 0 = 2026
	Workers       int     `json:"workers"`
	Small         bool    `json:"small"`
	Bench         string  `json:"bench"` // comma-separated; "" = all 23 — note rescue-fab defaults to "gzip"
	BenchSet      bool    `json:"-"`
	Warmup        int64   `json:"warmup"` // 0 = 2000
	Commit        int64   `json:"commit"` // 0 = 10000
	SelfHealShare float64 `json:"selfhealShare"`
	Timing        bool    `json:"timing"`
}

func (o *FabOpts) setDefaults() {
	if o.Dies == 0 {
		o.Dies = 10_000
	}
	if o.NodeNM == 0 {
		o.NodeNM = 18
	}
	if o.StagnateNM == 0 {
		o.StagnateNM = 90
	}
	if !o.GrowthSet && o.Growth == 0 {
		o.Growth = 0.30
	}
	if o.Seed == 0 {
		o.Seed = 2026
	}
	if !o.BenchSet && o.Bench == "" {
		o.Bench = "gzip"
	}
	if o.Warmup == 0 {
		o.Warmup = 2_000
	}
	if o.Commit == 0 {
		o.Commit = 10_000
	}
}

// ValidNode resolves a -node value against the supported technology nodes.
func ValidNode(nm int) (area.Scaling, bool) {
	for _, n := range area.Nodes() {
		if n.NodeNM == nm {
			return n, true
		}
	}
	return area.Scaling{}, false
}

// FabResult carries the fleet report and the campaign stats behind it
// (partial on interrupt).
type FabResult struct {
	Stats  fault.Stats
	Report *fab.FleetReport
}

// Fab runs the die-lifecycle fleet and writes the report to w — the exact
// text rescue-fab prints, which is what results/fab_small.txt pins.
func Fab(ctx context.Context, w io.Writer, o FabOpts, env Env) (FabResult, error) {
	o.setDefaults()
	var res FabResult

	node, ok := ValidNode(o.NodeNM)
	if !ok {
		return res, fmt.Errorf("fab: unsupported node %dnm", o.NodeNM)
	}
	if o.Dies < 1 {
		return res, fmt.Errorf("fab: need at least one die, got %d", o.Dies)
	}
	if o.Growth < 0 {
		return res, fmt.Errorf("fab: negative growth rate %v", o.Growth)
	}

	var names []string
	if o.Bench != "" {
		names = strings.Split(o.Bench, ",")
	}
	rescArea := area.Rescue()
	if o.SelfHealShare > 0 {
		rescArea = area.RescueSelfHeal(o.SelfHealShare)
	}
	_, tp, rep, err := Fleet(ctx, w, FleetPlan{
		Design: PaperDesign(o.Small, rtl.RescueDesign),
		Perf: Perf{
			Base: uarch.DefaultParams(), Rescue: uarch.RescueParams(),
			Benches: names, Warmup: o.Warmup, Commit: o.Commit,
		},
		Area: rescArea,
		Fab: fab.Config{
			Dies: o.Dies, Node: node, Stagnate: area.Node(o.StagnateNM),
			Growth: o.Growth, Seed: o.Seed, Workers: o.Workers,
			SelfHealShare: o.SelfHealShare,
		},
		Timing: o.Timing,
	}, env)
	switch {
	case rep != nil:
		res.Report, res.Stats = rep, rep.Stats
	case tp != nil:
		res.Stats = tp.Gen.Stats
	}
	if err != nil {
		return res, err
	}
	fmt.Fprintln(w)
	rep.WriteText(w, o.Timing)
	return res, nil
}

// FleetPlan is one run of the fleet pipeline: the design to build and
// scan-test, the degraded-IPC model to measure, the Rescue area model,
// and the fleet knobs. The perf model is measured at the fleet's node
// (Fab.Node sets Perf.NodeNM), and Fab.Workers also sets the ATPG and
// perf-model concurrency.
type FleetPlan struct {
	Design Design
	Perf   Perf
	Area   area.Model
	Fab    fab.Config
	Timing bool // append elapsed time to the degraded-IPC progress line
}

// Fleet is the fleet pipeline behind the paper's Figure 9 loop, shared by
// the fab flow and every sweep point: build and ICI-audit the system,
// generate its ATPG test set, build the degraded-IPC model, and run the
// Monte Carlo fleet, every artifact through env's store. Progress lines
// go to w. On error the values produced so far are returned — the
// partial test program on an ATPG interrupt, the partial report on a
// fleet interrupt.
func Fleet(ctx context.Context, w io.Writer, p FleetPlan, env Env) (*core.System, *core.TestProgram, *fab.FleetReport, error) {
	start := time.Now()
	sys, err := env.System(p.Design)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("build: %w", err)
	}
	if !sys.Audit.OK() {
		return sys, nil, nil, fmt.Errorf("ICI audit failed: %d violations", len(sys.Audit.Violations))
	}
	fmt.Fprintf(w, "built %s: %d gates, %d scan cells; ICI audit clean\n",
		sys.Design.N.Name, sys.Design.N.NumGates(), sys.Design.N.NumFFs())

	tp, err := env.TestProgram(ctx, p.Design, sys, defaultGen(p.Fab.Workers))
	if err != nil {
		return sys, tp, nil, err
	}
	fmt.Fprintf(w, "ATPG: %d vectors, %.2f%% coverage\n", tp.Gen.Vectors, tp.Gen.Coverage*100)

	perf := p.Perf
	perf.NodeNM = p.Fab.Node.NodeNM
	pm, err := env.PerfModel(ctx, perf, p.Fab.Workers)
	if err != nil {
		return sys, tp, nil, err
	}
	base, resc := fab.ModelsFromPerf(pm, area.BaselineWithScan(), p.Area)
	fmt.Fprintf(w, "degraded-IPC model: %d configurations x %d benchmarks", len(resc.IPC), len(pm.Baseline))
	if p.Timing {
		fmt.Fprintf(w, " (%s)", time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintln(w)

	eng, err := fab.New(sys, tp, base, resc, p.Fab)
	if err != nil {
		return sys, tp, nil, err
	}
	rep, err := eng.Run(ctx, env.Ck)
	return sys, tp, rep, err
}
