package main

import (
	"fmt"
	"sort"
)

// metricDef registers one metric the harness emits. End-to-end metrics
// come from the untraced requests (--trace 0); per-layer metrics come from
// the traced request (--trace 1). Every workload reports every metric of
// its kind; a layer a workload never enters reads 0 there, and the
// README's layer map says which workloads each metric is meant to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"rtl.build_s", "s", "lower"},
	{"scan.insert_s", "s", "lower"},
	{"ici.audit_s", "s", "lower"},
	{"netlist.gates", "count", "lower"},
	{"scan.cells", "count", "lower"},
	{"atpg.generate_s", "s", "lower"},
	{"atpg.self_s", "s", "lower"},
	{"atpg.collapsed", "count", "lower"},
	{"atpg.untestable", "count", "lower"},
	{"atpg.aborted", "count", "lower"},
	{"atpg.vectors", "count", "lower"},
	{"fault.universe_s", "s", "lower"},
	{"fault.campaign_s", "s", "lower"},
	{"fault.sims", "count", "lower"},
	{"fault.words", "count", "lower"},
	{"fault.events", "count", "lower"},
	{"fault.dropped", "count", "higher"},
	{"fault.detect_ratio", "ratio", "higher"},
	{"uarch.new_s", "s", "lower"},
	{"uarch.run_s", "s", "lower"},
	{"uarch.runs", "count", "lower"},
	{"uarch.sim_cycles", "count", "lower"},
	{"uarch.sim_instr", "count", "lower"},
	{"uarch.ns_per_cycle", "ns", "lower"},
	{"uarch.minstr_per_s", "Minstr/s", "higher"},
	{"core.ipc_study_s", "s", "lower"},
	{"core.perf_model_s", "s", "lower"},
	{"core.self_s", "s", "lower"},
	{"fab.new_s", "s", "lower"},
	{"fab.run_s", "s", "lower"},
	{"fab.campaign_s", "s", "lower"},
	{"fab.self_s", "s", "lower"},
	{"fab.dies", "count", "lower"},
	{"fab.unique_faults", "count", "lower"},
	{"traced_wall_s", "s", "lower"},
	{"other_s", "s", "lower"},
	{"trace_overhead_s", "s", "lower"},
}

// selfTimes lists the metrics that partition the traced wall time, each
// with the module it measures: every instant of the traced request is
// attributed to exactly one of them (see attribute).
var selfTimes = []struct{ metric, layer string }{
	{"rtl.build_s", "rtl"}, {"scan.insert_s", "scan"}, {"ici.audit_s", "ici"},
	{"fault.universe_s", "fault"}, {"fault.campaign_s", "fault"}, {"atpg.self_s", "atpg"},
	{"uarch.new_s", "uarch"}, {"uarch.run_s", "uarch"}, {"core.self_s", "core"},
	{"fab.new_s", "fab"}, {"fab.self_s", "fab"}, {"other_s", "other"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit selects the registered metrics of one kind from vals, in registry
// order. A registered metric missing from vals is a harness bug.
func emit(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
