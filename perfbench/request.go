package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// record is what one child process reports about its request.
type record struct {
	Output    string  `json:"output"`
	Error     string  `json:"error,omitempty"`
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Spans     []span  `json:"spans,omitempty"`
	Counts    *counts `json:"counts,omitempty"`
}

// Child modes: a probe only measures set-up; the other two run one cold
// request, with or without tracing.
const (
	modeProbe    = "probe"
	modeUntraced = "untraced"
	modeTraced   = "traced"
)

// spawn runs one request in a fresh process of this binary and returns its
// record. The child's set-up time runs from just before the fork.
func spawn(ctx context.Context, mode string, wl *workload, seed int64) (record, error) {
	var rec record
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	t0 := time.Now().UnixNano()
	cmd := exec.CommandContext(ctx, exe, "--child", mode, "--workload", wl.Name,
		"--seed", strconv.FormatInt(seed, 10), "--t0", strconv.FormatInt(t0, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("%s request: %w", mode, err)
	}
	if err := json.Unmarshal(out, &rec); err != nil {
		return rec, fmt.Errorf("%s request: bad record: %w", mode, err)
	}
	if rec.Error != "" {
		return rec, fmt.Errorf("%s request: %s", mode, rec.Error)
	}
	return rec, nil
}

// child runs in the spawned process: it stops the set-up clock, runs the
// request at full size, and prints its record as JSON on stdout.
func child(mode string, wl *workload, seed, t0 int64) error {
	setup := time.Since(time.Unix(0, t0)).Seconds()
	var rec record
	switch mode {
	case modeProbe:
	case modeUntraced, modeTraced:
		rec = execute(context.Background(), mode, wl, fullSize, seed)
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	rec.SetupS = setup
	return json.NewEncoder(os.Stdout).Encode(rec)
}

// execute runs one request in this process and records its output, wall
// and CPU time, peak memory, and, when traced, its spans and counters.
func execute(ctx context.Context, mode string, wl *workload, sz size, seed int64) record {
	var rec record
	ru0 := rusage()
	start := time.Now()
	var buf bytes.Buffer
	var err error
	if mode == modeTraced {
		var c counts
		rec.Spans, err = runTraced(ctx, wl, sz, seed, &buf, &c)
		rec.Counts = &c
	} else {
		err = wl.Run(ctx, &buf, sz, seed)
	}
	rec.WallS = time.Since(start).Seconds()
	ru1 := rusage()
	rec.CPUS = cpuSeconds(ru1) - cpuSeconds(ru0)
	rec.PeakRSSMB = float64(ru1.Maxrss) / 1024 // Linux reports KiB
	rec.Output = buf.String()
	if err != nil {
		rec.Error = err.Error()
	}
	return rec
}

// runTraced runs the workload's traced path under a root request span.
func runTraced(ctx context.Context, wl *workload, sz size, seed int64, buf *bytes.Buffer, c *counts) ([]span, error) {
	t := newTracer()
	err := t.do(-1, "request", func(int) error {
		return wl.Traced(ctx, buf, sz, seed, t, c)
	})
	return t.snapshot(), err
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// layerMetrics derives the per-layer metrics of one traced request from
// its spans and counters. trace_overhead_s needs the untraced median and
// is added by the caller.
func layerMetrics(spans []span, c counts) map[string]float64 {
	a := attribute(spans)
	atpgCamp := c.ATPGCampaign.Wall.Seconds()
	fabCamp := c.FabCampaign.Wall.Seconds()
	camp := c.ATPGCampaign
	camp.Add(c.FabCampaign)
	m := map[string]float64{
		"rtl.build_s":   a["rtl.build"],
		"scan.insert_s": a["scan.insert"],
		"ici.audit_s":   a["ici.audit"],
		"netlist.gates": float64(c.Gates),
		"scan.cells":    float64(c.Cells),

		"atpg.generate_s": total(spans, "atpg.generate"),
		"atpg.self_s":     a["atpg.generate"] - atpgCamp,
		"atpg.collapsed":  float64(c.Collapsed),
		"atpg.untestable": float64(c.Untestable),
		"atpg.aborted":    float64(c.Aborted),
		"atpg.vectors":    float64(c.Vectors),

		"fault.universe_s":   a["fault.universe"],
		"fault.campaign_s":   camp.Wall.Seconds(),
		"fault.sims":         float64(camp.Faults),
		"fault.words":        float64(camp.Words),
		"fault.events":       float64(camp.Events),
		"fault.dropped":      float64(camp.Dropped),
		"fault.detect_ratio": ratio(float64(camp.Detected), float64(camp.Faults)),

		"uarch.new_s":        a["uarch.new"],
		"uarch.run_s":        a["uarch.run"],
		"uarch.runs":         float64(c.UarchRuns),
		"uarch.sim_cycles":   float64(c.SimCycles),
		"uarch.sim_instr":    float64(c.SimInstr),
		"uarch.ns_per_cycle": ratio(total(spans, "uarch.run")*1e9, float64(c.SimCycles)),
		"uarch.minstr_per_s": ratio(float64(c.SimInstr)/1e6, total(spans, "uarch.run")),

		"core.ipc_study_s":  total(spans, "core.ipc_study"),
		"core.perf_model_s": total(spans, "core.perf_model"),
		"core.self_s":       a["core.ipc_study"] + a["core.perf_model"],

		"fab.new_s":         a["fab.new"],
		"fab.run_s":         total(spans, "fab.run"),
		"fab.campaign_s":    fabCamp,
		"fab.self_s":        a["fab.run"] - fabCamp,
		"fab.dies":          float64(c.Dies),
		"fab.unique_faults": float64(c.UniqueFaults),

		"traced_wall_s": total(spans, "request"),
		"other_s":       a["request"],
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
