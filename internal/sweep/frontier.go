package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// PointResult is one evaluated grid cell. Every numeric field derives
// deterministically from the point's content, so a result computed
// locally, resumed from a journal, or fetched from a remote worker
// serializes to identical bytes.
type PointResult struct {
	Index         int               `json:"index"`
	Digest        string            `json:"digest"`
	Preset        string            `json:"preset"`
	Overrides     map[string]string `json:"overrides,omitempty"`
	NodeNM        int               `json:"node"`
	StagnateNM    int               `json:"stagnate"`
	SelfHealShare float64           `json:"selfheal"`

	Canceled bool   `json:"canceled,omitempty"`
	Error    string `json:"error,omitempty"`

	// Test cost: the variant's scan-test program.
	Gates      int     `json:"gates"`
	ScanCells  int     `json:"scanCells"`
	Vectors    int     `json:"vectors"`
	TestCycles int     `json:"testCycles"`
	Coverage   float64 `json:"coverage"`

	// Silicon: node-scaled core area (mm²) and cores per chip.
	CoreArea float64 `json:"coreArea"`
	Cores    int     `json:"cores"`

	// Yield and throughput: empirical fleet numbers with 95% CIs, plus
	// the analytic EQ 2/3 values.
	EmpYield   float64 `json:"yield"`
	EmpYieldCI float64 `json:"yieldCI"`
	AnaYield   float64 `json:"anaYield"`
	EmpYAT     float64 `json:"yat"`
	EmpYATCI   float64 `json:"yatCI"`
	AnaYAT     float64 `json:"anaYat"`

	// Pareto marks membership in the frontier's non-dominated set.
	Pareto bool `json:"pareto,omitempty"`
}

// Frontier is a sweep's full result: every point in grid order with the
// Pareto set marked.
type Frontier struct {
	Points []PointResult
}

// markPareto recomputes the non-dominated set over the successful points:
// maximize yield and YAT, minimize core area and test cycles. A point is
// dominated when another is at least as good on all four and strictly
// better on one.
func (f *Frontier) markPareto() {
	dominates := func(a, b PointResult) bool {
		if a.EmpYield < b.EmpYield || a.EmpYAT < b.EmpYAT ||
			a.CoreArea > b.CoreArea || a.TestCycles > b.TestCycles {
			return false
		}
		return a.EmpYield > b.EmpYield || a.EmpYAT > b.EmpYAT ||
			a.CoreArea < b.CoreArea || a.TestCycles < b.TestCycles
	}
	for i := range f.Points {
		p := &f.Points[i]
		if p.Canceled || p.Error != "" {
			p.Pareto = false
			continue
		}
		p.Pareto = true
		for j := range f.Points {
			q := f.Points[j]
			if i == j || q.Canceled || q.Error != "" {
				continue
			}
			if dominates(q, *p) {
				p.Pareto = false
				break
			}
		}
	}
}

// ParetoSet returns the frontier points, in grid order.
func (f *Frontier) ParetoSet() []PointResult {
	var out []PointResult
	for _, p := range f.Points {
		if p.Pareto {
			out = append(out, p)
		}
	}
	return out
}

// WriteNDJSON emits one JSON line per point in grid order — the sweep's
// canonical machine-readable output. Byte-identical for identical specs.
func (f *Frontier) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, p := range f.Points {
		b, err := json.Marshal(p)
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ParseNDJSON reads a frontier back from its NDJSON serialization.
func ParseNDJSON(r io.Reader) (*Frontier, error) {
	var f Frontier
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var p PointResult
		if err := json.Unmarshal(line, &p); err != nil {
			return nil, fmt.Errorf("sweep: frontier line %d: %v", len(f.Points)+1, err)
		}
		f.Points = append(f.Points, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &f, nil
}

// describe renders a point's grid coordinates compactly.
func describe(p PointResult) string {
	s := p.Preset
	if len(p.Overrides) > 0 {
		keys := make([]string, 0, len(p.Overrides))
		for k := range p.Overrides {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var kv []string
		for _, k := range keys {
			kv = append(kv, k+"="+p.Overrides[k])
		}
		s += "{" + strings.Join(kv, ",") + "}"
	}
	return s
}

// WriteTable renders the human-readable frontier report.
func (f *Frontier) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-3s %-34s %4s %4s %5s %9s %7s %8s %9s %8s %2s\n",
		"idx", "variant", "node", "stag", "heal", "area", "cycles", "yield", "±CI", "YAT", "P")
	for _, p := range f.Points {
		switch {
		case p.Canceled:
			fmt.Fprintf(w, "%-3d %-34s %4d %4d %5.2f %s\n",
				p.Index, describe(p), p.NodeNM, p.StagnateNM, p.SelfHealShare, "canceled")
		case p.Error != "":
			fmt.Fprintf(w, "%-3d %-34s %4d %4d %5.2f error: %s\n",
				p.Index, describe(p), p.NodeNM, p.StagnateNM, p.SelfHealShare, p.Error)
		default:
			mark := ""
			if p.Pareto {
				mark = "*"
			}
			fmt.Fprintf(w, "%-3d %-34s %4d %4d %5.2f %9.3f %7d %7.2f%% %8.2f%% %8.4f %2s\n",
				p.Index, describe(p), p.NodeNM, p.StagnateNM, p.SelfHealShare,
				p.CoreArea, p.TestCycles, p.EmpYield*100, p.EmpYieldCI*100, p.EmpYAT, mark)
		}
	}
	if ps := f.ParetoSet(); len(ps) > 0 {
		var idx []string
		for _, p := range ps {
			idx = append(idx, fmt.Sprintf("%d", p.Index))
		}
		fmt.Fprintf(w, "pareto front (max yield, max YAT, min area, min test cycles): %s\n",
			strings.Join(idx, " "))
	}
}
