package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// reduced shrinks every workload enough for a test to run it in-process.
// fab_small keeps its full ATPG and perf model, which have no size knob.
var reduced = size{
	Backtracks: 2,
	Profiles:   []string{"mcf", "swim", "gzip"},
	Warmup:     2_000,
	Commit:     20_000,
	Dies:       40,
}

// inProcess runs requests in the test process at the given size.
func inProcess(wl *workload, sz size, seed int64) runner {
	return func(ctx context.Context, mode string) (record, error) {
		if mode == modeProbe {
			return record{SetupS: 1e-3}, nil
		}
		rec := execute(ctx, mode, wl, sz, seed)
		if rec.Error != "" {
			return rec, errors.New(rec.Error)
		}
		return rec, nil
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name+" "+d.Unit+" "+d.Better)
	}
	sort.Strings(out)
	return out
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every metric the harness emits is registered in BENCHMARK.json with the
// same unit and direction, in the same list, and vice versa; every
// workload is registered under its name.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if got, want := names(bj.EndToEnd), names(endToEnd); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end_to_end:\n BENCHMARK.json %v\n harness        %v", got, want)
	}
	if got, want := names(bj.PerLayer), names(perLayer); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per_layer:\n BENCHMARK.json %v\n harness        %v", got, want)
	}
	var wls []string
	for _, w := range bj.Workloads {
		if wl, err := lookup(w.Name); err != nil {
			t.Error(err)
		} else if w.Why != wl.Why {
			t.Errorf("%s: why differs between BENCHMARK.json and the harness", w.Name)
		}
		wls = append(wls, w.Name)
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json registers workloads %v, the harness has %d", wls, len(workloads))
	}

	// What the harness measures is exactly what it registers.
	r := &runResult{walls: []float64{1}, cpus: []float64{1}, rss: []float64{1}, setups: []float64{1},
		traced: &record{Counts: &counts{}}}
	if got, want := keys(r.endToEnd()), keys(mustEmit(t, endToEnd, r.endToEnd())); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end-to-end measured %v, registered %v", got, want)
	}
	if got, want := keys(r.layer()), keys(mustEmit(t, perLayer, r.layer())); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per-layer measured %v, registered %v", got, want)
	}
	for _, st := range selfTimes {
		if _, ok := r.layer()[st.metric]; !ok {
			t.Errorf("self-time metric %s is not measured", st.metric)
		}
	}
}

func mustEmit(t *testing.T, defs []metricDef, vals map[string]float64) map[string]metricValue {
	t.Helper()
	m, err := emit(defs, vals)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A corrupted expected output makes every request fail: the run reports
// failed == attempted and is not correct. The intact one passes.
func TestCorruptedExpectedOutputFails(t *testing.T) {
	wl, _ := lookup("fig8_ipc")
	ctx := context.Background()
	ref := execute(ctx, modeUntraced, wl, reduced, defaultSeed).Output
	corrupt := strings.Replace(ref, "swim", "swam", 1)
	if corrupt == ref {
		t.Fatal("corruption did not change the reference")
	}
	for _, c := range []struct {
		name, golden string
		wantFailed   bool
	}{{"intact", ref, false}, {"corrupted", corrupt, true}} {
		res, err := measure(ctx, wl, reduced, time.Nanosecond, c.golden, true, inProcess(wl, reduced, defaultSeed))
		if err != nil {
			t.Fatal(err)
		}
		line, err := res.resultLine(false)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Correct           bool
			Attempted, Failed int
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatal(err)
		}
		if out.Attempted != 2 {
			t.Errorf("%s: attempted %d, want the traced and one untraced request", c.name, out.Attempted)
		}
		if c.wantFailed && (out.Correct || out.Failed != out.Attempted) {
			t.Errorf("%s golden: %s, want every request failed and not correct", c.name, line)
		}
		if !c.wantFailed && (!out.Correct || out.Failed != 0) {
			t.Errorf("%s golden: %s, want correct", c.name, line)
		}
	}
}

// Without a golden, an untraced output that differs from the traced one
// fails the run.
func TestTracedMismatchFails(t *testing.T) {
	wl, _ := lookup("fig8_ipc")
	run := inProcess(wl, reduced, 5)
	tamper := func(ctx context.Context, mode string) (record, error) {
		rec, err := run(ctx, mode)
		if mode == modeUntraced {
			rec.Output += "extra\n"
		}
		return rec, err
	}
	res, err := measure(context.Background(), wl, reduced, time.Nanosecond, "", false, tamper)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || res.attempted != 2 {
		t.Errorf("failed %d of %d, want the untraced request failed", res.failed, res.attempted)
	}
}

// At reduced size and a non-default seed, each workload's traced path
// prints the untraced flow's bytes, and its layer self times plus other_s
// sum to the traced wall time within 1%.
func TestTracedMatchesAndSelfTimesSum(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			ctx := context.Background()
			un := execute(ctx, modeUntraced, wl, reduced, 3)
			tr := execute(ctx, modeTraced, wl, reduced, 3)
			if un.Error != "" || tr.Error != "" {
				t.Fatalf("untraced error %q, traced error %q", un.Error, tr.Error)
			}
			if un.Output != tr.Output {
				t.Fatalf("traced output differs:\n--- untraced\n%s--- traced\n%s", un.Output, tr.Output)
			}
			m := layerMetrics(tr.Spans, *tr.Counts)
			var sum float64
			for _, st := range selfTimes {
				if m[st.metric] < 0 {
					t.Errorf("%s = %g < 0", st.metric, m[st.metric])
				}
				sum += m[st.metric]
			}
			wall := m["traced_wall_s"]
			if math.Abs(sum-wall) > 0.01*wall {
				t.Errorf("self times sum to %gs, traced wall is %gs", sum, wall)
			}
		})
	}
}

// attribute splits wall time among the innermost open spans, counting
// parallel spans of one name once.
func TestAttribute(t *testing.T) {
	spans := []span{
		{0, -1, "request", 0, 100},
		{1, 0, "study", 10, 90},
		{2, 1, "run", 10, 50}, // worker 1
		{3, 1, "run", 20, 60}, // worker 2, overlaps the first run
		{4, 1, "new", 60, 70}, // worker 2
		{5, 1, "run", 55, 80}, // worker 1
	}
	got := attribute(spans)
	// 0-10 request; 10-50 run; 50-55 run; 55-60 run; 60-70 run+new split;
	// 70-80 run; 80-90 study; 90-100 request.
	want := map[string]float64{"request": 20e-9, "run": 65e-9, "new": 5e-9, "study": 10e-9}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("%s: got %g, want %g", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
