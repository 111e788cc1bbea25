package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rescue/internal/flows"
	"rescue/internal/rtl"
)

// Spec describes a sweep grid: which presets to start from, which
// parameter overrides to cross against them, and which fab-level axes
// (node, defect-density stagnation node, self-heal spare share) to
// evaluate each variant at. A Spec expands deterministically — same spec,
// same point order, same digests — which is what makes the frontier
// byte-identical across concurrency levels, resumes, and remote workers.
type Spec struct {
	Presets []string `json:"presets"`
	// Axes maps an override key (see axisKeys) to the values to cross.
	// Every combination of one value per key is applied to every preset.
	Axes map[string][]string `json:"axes,omitempty"`
	// Fab-level axes. Defaults: [18], [90], [0].
	Nodes     []int     `json:"nodes,omitempty"`
	Stagnates []int     `json:"stagnates,omitempty"`
	SelfHeal  []float64 `json:"selfheal,omitempty"`
	// Small switches every preset's netlist to the small RTL config —
	// the CI/test grid.
	Small bool `json:"small,omitempty"`
	// Fleet knobs, shared by every point. Zero values take the defaults
	// in withDefaults.
	Dies   int     `json:"dies,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	Growth float64 `json:"growth,omitempty"`
	Bench  string  `json:"bench,omitempty"`
	Warmup int64   `json:"warmup,omitempty"`
	Commit int64   `json:"commit,omitempty"`
	// Concurrency is how many points run at once (0 = 1). Workers is the
	// per-point campaign concurrency (0 = all cores). Neither affects
	// results or digests.
	Concurrency int `json:"concurrency,omitempty"`
	Workers     int `json:"workers,omitempty"`
}

// withDefaults returns a copy with every zero-valued knob resolved, so
// expansion and digests are computed over the effective spec.
func (s Spec) withDefaults() Spec {
	if len(s.Nodes) == 0 {
		s.Nodes = []int{18}
	}
	if len(s.Stagnates) == 0 {
		s.Stagnates = []int{90}
	}
	if len(s.SelfHeal) == 0 {
		s.SelfHeal = []float64{0}
	}
	if s.Dies == 0 {
		s.Dies = 2000
	}
	if s.Seed == 0 {
		s.Seed = 2026
	}
	if s.Growth == 0 {
		s.Growth = 0.30
	}
	if s.Bench == "" {
		s.Bench = "gzip"
	}
	if s.Warmup == 0 {
		s.Warmup = 2000
	}
	if s.Commit == 0 {
		s.Commit = 10000
	}
	return s
}

// axisKeys maps override names to appliers. Each value string is parsed
// and applied to a copy of the preset variant.
var axisKeys = map[string]func(*Variant, string) error{
	"scan-chains":    func(v *Variant, s string) error { return setInt(&v.ScanChains, s) },
	"comp-buf":       func(v *Variant, s string) error { return setInt(&v.Perf.CompBufSlots, s) },
	"frontend-depth": func(v *Variant, s string) error { return setInt(&v.Perf.FrontendDepth, s) },
	"rob-size":       func(v *Variant, s string) error { return setInt(&v.Perf.ROBSize, s) },
	"lsq-size":       func(v *Variant, s string) error { return setInt(&v.Perf.LSQSize, s) },
	"squash-window":  func(v *Variant, s string) error { return setInt(&v.Perf.SquashWindow, s) },
	"net-iq":         func(v *Variant, s string) error { return setInt(&v.Netlist.IQEntries, s) },
	"net-lsq":        func(v *Variant, s string) error { return setInt(&v.Netlist.LSQEntries, s) },
	"iq-size": func(v *Variant, s string) error {
		if err := setInt(&v.Perf.IntIQSize, s); err != nil {
			return err
		}
		return setInt(&v.Perf.FPIQSize, s)
	},
	"replay": func(v *Variant, s string) error {
		if _, err := replayPolicy(s); err != nil {
			return err
		}
		v.Perf.ReplayPolicy = s
		return nil
	},
	"chipkill-scale": func(v *Variant, s string) error {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("sweep: chipkill-scale %q: %v", s, err)
		}
		v.ChipkillScale = f
		return nil
	},
}

func setInt(dst *int, s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("sweep: axis value %q: %v", s, err)
	}
	*dst = n
	return nil
}

// AxisKeys returns the valid override-axis names, sorted — for usage
// messages.
func AxisKeys() []string {
	keys := make([]string, 0, len(axisKeys))
	for k := range axisKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Point is one grid cell: a fully resolved variant plus the fab-level
// coordinates, tagged with how it was reached (preset + overrides) for
// reporting.
type Point struct {
	Index         int               `json:"index"`
	Preset        string            `json:"preset"`
	Overrides     map[string]string `json:"overrides,omitempty"`
	NodeNM        int               `json:"node"`
	StagnateNM    int               `json:"stagnate"`
	SelfHealShare float64           `json:"selfheal"`
	Variant       Variant           `json:"variant"`
	// Digest identifies the point's full content — variant, coordinates,
	// and the spec's fleet knobs — independent of Index. It names the
	// point's journal entries and checkpoint sections.
	Digest string `json:"digest"`
}

type pointIdentity struct {
	Variant       Variant `json:"variant"`
	NodeNM        int     `json:"node"`
	StagnateNM    int     `json:"stagnate"`
	SelfHealShare float64 `json:"selfheal"`
	Dies          int     `json:"dies"`
	Seed          int64   `json:"seed"`
	Growth        float64 `json:"growth"`
	Bench         string  `json:"bench"`
	Warmup        int64   `json:"warmup"`
	Commit        int64   `json:"commit"`
}

// Expand resolves the grid into its points, in deterministic order:
// preset (as listed) × override combinations (axis keys sorted, values as
// listed) × node × stagnation node × self-heal share. Every variant is
// validated; the first invalid cell fails the whole expansion, so a bad
// spec is rejected before any work starts.
func (s Spec) Expand() ([]Point, error) {
	s = s.withDefaults()
	if len(s.Presets) == 0 {
		return nil, fmt.Errorf("sweep: spec has no presets (available: %s)", strings.Join(Presets(), ", "))
	}
	if s.Dies < 0 {
		return nil, fmt.Errorf("sweep: dies = %d must be positive", s.Dies)
	}
	for _, nm := range s.Nodes {
		if _, ok := flows.ValidNode(nm); !ok {
			return nil, fmt.Errorf("sweep: unknown node %dnm (want one of 90, 65, 32, 18)", nm)
		}
	}
	for _, nm := range s.Stagnates {
		if _, ok := flows.ValidNode(nm); !ok {
			return nil, fmt.Errorf("sweep: unknown stagnation node %dnm (want one of 90, 65, 32, 18)", nm)
		}
	}
	for _, sh := range s.SelfHeal {
		if sh < 0 || sh > 0.9 {
			return nil, fmt.Errorf("sweep: selfheal share %g out of range [0,0.9]", sh)
		}
	}

	// Override combinations: cartesian product over sorted axis keys.
	keys := make([]string, 0, len(s.Axes))
	for k := range s.Axes {
		if _, ok := axisKeys[k]; !ok {
			return nil, fmt.Errorf("sweep: unknown axis %q (want one of %s)", k, strings.Join(AxisKeys(), ", "))
		}
		if len(s.Axes[k]) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	combos := []map[string]string{{}}
	for _, k := range keys {
		var next []map[string]string
		for _, c := range combos {
			for _, val := range s.Axes[k] {
				m := make(map[string]string, len(c)+1)
				for kk, vv := range c {
					m[kk] = vv
				}
				m[k] = val
				next = append(next, m)
			}
		}
		combos = next
	}

	var pts []Point
	for _, name := range s.Presets {
		base, ok := Preset(name)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown preset %q (available: %s)", name, strings.Join(Presets(), ", "))
		}
		if s.Small {
			base.Netlist = rtl.Small()
		}
		for _, c := range combos {
			v := base
			for _, k := range keys {
				if val, ok := c[k]; ok {
					if err := axisKeys[k](&v, val); err != nil {
						return nil, err
					}
				}
			}
			if err := v.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: preset %q with overrides %v: %w", name, c, err)
			}
			for _, node := range s.Nodes {
				for _, stag := range s.Stagnates {
					for _, share := range s.SelfHeal {
						var ov map[string]string
						if len(c) > 0 {
							ov = c
						}
						pt := Point{
							Index:         len(pts),
							Preset:        name,
							Overrides:     ov,
							NodeNM:        node,
							StagnateNM:    stag,
							SelfHealShare: share,
							Variant:       v,
						}
						pt.Digest = canonDigest("point", pointIdentity{
							Variant:       v,
							NodeNM:        node,
							StagnateNM:    stag,
							SelfHealShare: share,
							Dies:          s.Dies,
							Seed:          s.Seed,
							Growth:        s.Growth,
							Bench:         s.Bench,
							Warmup:        s.Warmup,
							Commit:        s.Commit,
						})
						pts = append(pts, pt)
					}
				}
			}
		}
	}
	return pts, nil
}

// SinglePointSpec builds the one-cell spec that expands to exactly pt
// (with Index 0 and an identical Digest) — the unit a remote worker
// executes when points are dispatched remotely.
func SinglePointSpec(s Spec, pt Point) Spec {
	s = s.withDefaults()
	one := s
	one.Presets = []string{pt.Preset}
	one.Axes = nil
	if len(pt.Overrides) > 0 {
		one.Axes = map[string][]string{}
		for k, v := range pt.Overrides {
			one.Axes[k] = []string{v}
		}
	}
	one.Nodes = []int{pt.NodeNM}
	one.Stagnates = []int{pt.StagnateNM}
	one.SelfHeal = []float64{pt.SelfHealShare}
	one.Concurrency = 1
	return one
}
