// Command perfbench is the repository benchmark. Each workload is a cold
// request: one client, one request at a time, each in a fresh process with
// no artifact store and two workers. A run first starts a few set-up
// probes, then one traced request when it is needed, then untraced
// requests until --seconds is spent. The untraced requests give the
// end-to-end metrics; the traced one, which calls each layer directly
// under spans, gives the per-layer breakdown. Every output is checked
// against the committed golden (or, where the seed leaves the golden
// behind, against the traced request's), and the last line of stdout is
// the JSON result.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload table3_small --seed 0 --seconds 44 --trace 1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupProbes is how many set-up-only children a run starts, so setup_s
// is a median over many process starts even when requests are long.
const setupProbes = 25

// runLimit caps a run's children, so a wedged request still ends the run
// within the three minutes it is allowed.
const runLimit = 165 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run: table3_small, fig8_ipc or fab_small")
	seed := flag.Int64("seed", defaultSeed, "workload seed (>= 0); the goldens pin seed 0")
	seconds := flag.Int("seconds", 44, "how long a run measures")
	trace := flag.Int("trace", 0, "0: print end-to-end metrics; 1: print per-layer metrics")
	spansDir := flag.String("spans", "", "write the traced request's spans and attribution summary into this directory")
	childMode := flag.String("child", "", "internal: run one request in this process")
	t0 := flag.Int64("t0", 0, "internal: parent's clock just before starting this child, ns")
	flag.Parse()

	wl, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seed >= 0, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if *childMode != "" {
		if err := child(*childMode, wl, *seed, *t0); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	golden, err := os.ReadFile(wl.Golden)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	if !wl.goldenApplies(*seed) {
		golden = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	run := func(ctx context.Context, mode string) (record, error) { return spawn(ctx, mode, wl, *seed) }
	res, err := measure(ctx, wl, fullSize, time.Duration(*seconds)*time.Second, string(golden), *trace == 1, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.report(os.Stderr)
	if *spansDir != "" && res.traced != nil {
		if err := writeSpans(*spansDir, wl, *seed, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := res.resultLine(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// runResult gathers one run's requests.
type runResult struct {
	workload          string
	attempted, failed int
	setups            []float64
	walls, cpus, rss  []float64 // successful untraced requests
	traced            *record   // nil if the traced request failed
}

// A runner performs one request in the given child mode.
type runner func(ctx context.Context, mode string) (record, error)

// measure performs one run: set-up probes, the traced request, then
// untraced requests while the next one is expected to fit in budget (at
// least one). The traced request runs when per-layer metrics are wanted
// or no golden pins the output ("" golden), since its output is then the
// reference. A request fails if it errs or its output is not the
// reference.
func measure(ctx context.Context, wl *workload, sz size, budget time.Duration, golden string, traced bool, run runner) (*runResult, error) {
	res := &runResult{workload: wl.Name}
	for i := 0; i < setupProbes; i++ {
		rec, err := run(ctx, modeProbe)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, rec.SetupS)
	}

	start := time.Now()
	ok := func(rec record, err error) bool {
		res.attempted++
		switch {
		case err != nil:
		case golden != "":
			err = wl.Check(rec.Output, golden, sz)
		case res.traced == nil:
			err = errors.New("no traced reference output")
		case rec.Output != res.traced.Output:
			err = errors.New("output differs from the traced request's")
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s request %d failed: %v\n", wl.Name, res.attempted, err)
			return false
		}
		res.setups = append(res.setups, rec.SetupS)
		return true
	}

	if traced || golden == "" {
		rec, err := run(ctx, modeTraced)
		if err == nil {
			res.traced = &rec
		}
		if !ok(rec, err) {
			res.traced = nil
		}
	}
	for untraced := 0; ; untraced++ {
		est := median(res.walls)
		if est == 0 && res.traced != nil {
			est = res.traced.WallS
		}
		if untraced > 0 && time.Since(start)+time.Duration(est*float64(time.Second)) > budget {
			break
		}
		if ctx.Err() != nil {
			break
		}
		rec, err := run(ctx, modeUntraced)
		if ok(rec, err) {
			res.walls = append(res.walls, rec.WallS)
			res.cpus = append(res.cpus, rec.CPUS)
			res.rss = append(res.rss, rec.PeakRSSMB)
		}
	}
	return res, nil
}

func (r *runResult) layer() map[string]float64 {
	if r.traced == nil || r.traced.Counts == nil {
		return map[string]float64{}
	}
	m := layerMetrics(r.traced.Spans, *r.traced.Counts)
	m["trace_overhead_s"] = m["traced_wall_s"] - median(r.walls)
	return m
}

func (r *runResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"wall_s":      median(r.walls),
		"setup_s":     median(r.setups),
		"cpu_s":       median(r.cpus),
		"peak_rss_mb": median(r.rss),
	}
}

// resultLine renders the JSON object the benchmark prints last. A run
// with any failed request is not correct; one with no successful untraced
// request, or no traced request when per-layer metrics are asked for,
// reports no metrics.
func (r *runResult) resultLine(traced bool) (string, error) {
	metrics := map[string]metricValue{}
	usable := len(r.walls) > 0 && (!traced || r.traced != nil)
	if usable {
		var err error
		if traced {
			metrics, err = emit(perLayer, r.layer())
		} else {
			metrics, err = emit(endToEnd, r.endToEnd())
		}
		if err != nil {
			return "", err
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && usable, r.attempted, r.failed, metrics})
	return string(b), err
}

// report prints a human summary: the request count and error rate, each
// end-to-end median with its sample count, and the layer attribution.
func (r *runResult) report(w io.Writer) {
	fmt.Fprintf(w, "%s: %d requests (%d untraced), %d failed, error_rate %.3f\n",
		r.workload, r.attempted, len(r.walls), r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	e := r.endToEnd()
	fmt.Fprintf(w, "  wall_s %.3f  cpu_s %.3f  peak_rss_mb %.1f  (median of %d untraced)\n",
		e["wall_s"], e["cpu_s"], e["peak_rss_mb"], len(r.walls))
	fmt.Fprintf(w, "  setup_s %.4f  (median of %d process starts)\n", e["setup_s"], len(r.setups))
	if r.traced != nil {
		fmt.Fprint(w, summary(r.layer()))
	}
}

// summary renders each module's self time and share of the traced wall.
func summary(m map[string]float64) string {
	self := map[string]float64{}
	for _, st := range selfTimes {
		self[st.layer] += m[st.metric]
	}
	var layers []string
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	wall := m["traced_wall_s"]
	var b strings.Builder
	fmt.Fprintf(&b, "  %-8s %10s %8s\n", "layer", "self_s", "share")
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-8s %10.4f %7.2f%%\n", l, self[l], 100*ratio(self[l], wall))
	}
	fmt.Fprintf(&b, "  %-8s %10.4f  (trace_overhead_s %+.4f)\n", "wall", wall, m["trace_overhead_s"])
	return b.String()
}

// writeSpans stores the traced request's spans, counters and per-layer
// metrics as <workload>.spans.json, and its attribution table as
// <workload>.summary.txt, so later changes can diff attribution.
func writeSpans(dir string, wl *workload, seed int64, r *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Spans    []span             `json:"spans"`
		Counts   *counts            `json:"counts"`
		Metrics  map[string]float64 `json:"metrics"`
	}{wl.Name, seed, r.traced.Spans, r.traced.Counts, r.layer()}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, wl.Name+".spans.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	head := fmt.Sprintf("%s, seed %d: self time per layer of one traced cold request\n", wl.Name, seed)
	return os.WriteFile(filepath.Join(dir, wl.Name+".summary.txt"), []byte(head+summary(r.layer())), 0o644)
}
