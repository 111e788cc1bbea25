package serve

import (
	"context"
	"encoding/json"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rescue/internal/flows"
)

// decodeAs runs params through a flow kind's runner over options type O
// and returns the options the flow received.
func decodeAs[O any](params string, serverWorkers int) (any, error) {
	var got O
	run := flowRunner(func(_ context.Context, _ io.Writer, o O, _ flows.Env) (struct{}, error) {
		got = o
		return struct{}{}, nil
	})
	_, err := run(context.Background(), RunContext{Workers: serverWorkers}, json.RawMessage(params))
	return got, err
}

// TestFlowParamsWireFormat pins the job wire format: every param name a
// flow kind accepts decodes into the intended options field, Go-only
// fields and unknown names are rejected as bad params, and a job that
// names no workers takes the server default.
func TestFlowParamsWireFormat(t *testing.T) {
	var kinds []string
	for k := range Kinds() {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	if got := strings.Join(kinds, ","); got != "dict,fab,isolation,sweep,table3,yat" {
		t.Fatalf("kinds = %s", got)
	}

	type decoder func(params string, serverWorkers int) (any, error)
	kindOpts := map[string]decoder{
		"table3":    decodeAs[flows.Table3Opts],
		"dict":      decodeAs[flows.DictOpts],
		"isolation": decodeAs[flows.IsolationOpts],
		"yat":       decodeAs[flows.YATOpts],
		"fab":       decodeAs[flows.FabOpts],
	}

	accept := []struct {
		kind   string
		params string
		want   any
	}{
		{"table3", `{"small":true,"seed":3,"backtracks":40,"workers":2,"timing":true}`,
			flows.Table3Opts{Small: true, Seed: 3, Backtracks: 40, Workers: 2, Timing: true}},
		{"dict", `{"small":true,"workers":2}`,
			flows.DictOpts{Small: true, Workers: 2}},
		{"isolation", `{"small":true,"perStage":50,"seed":7,"multi":true,"workers":2,"timing":true}`,
			flows.IsolationOpts{Small: true, PerStage: 50, Seed: 7, Multi: true, Workers: 2, Timing: true}},
		{"yat", `{"stagnate":65,"bench":"gzip,mcf","warmup":100,"commit":900,"workers":2,"timing":true}`,
			flows.YATOpts{StagnateNM: 65, Bench: "gzip,mcf", Warmup: 100, Commit: 900, Workers: 2, Timing: true}},
		{"fab", `{"dies":60,"node":32,"stagnate":65,"growth":0.2,"seed":9,"small":true,"bench":"gzip",` +
			`"warmup":200,"commit":1000,"selfhealShare":0.25,"workers":2,"timing":true}`,
			flows.FabOpts{Dies: 60, NodeNM: 32, StagnateNM: 65, Growth: 0.2, Seed: 9, Small: true, Bench: "gzip",
				Warmup: 200, Commit: 1000, SelfHealShare: 0.25, Workers: 2, Timing: true}},
		// No workers, or zero workers: the server default (7) applies.
		{"table3", `{}`, flows.Table3Opts{Workers: 7}},
		{"dict", `null`, flows.DictOpts{Workers: 7}},
		{"isolation", `{"workers":0}`, flows.IsolationOpts{Workers: 7}},
		{"yat", ``, flows.YATOpts{Workers: 7}},
		{"fab", `{"small":true}`, flows.FabOpts{Small: true, Workers: 7}},
	}
	for _, c := range accept {
		got, err := kindOpts[c.kind](c.params, 7)
		if err != nil {
			t.Errorf("%s %s: %v", c.kind, c.params, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s %s decoded to %+v, want %+v", c.kind, c.params, got, c.want)
		}
	}

	reject := []struct{ kind, params string }{
		{"fab", `{"GrowthSet":true}`},
		{"fab", `{"BenchSet":true}`},
		{"fab", `{"nodeNM":18}`},
		{"yat", `{"stagnateNM":90}`},
		{"table3", `{"nope":1}`},
		{"dict", `{"nope":1}`},
		{"isolation", `{"nope":1}`},
		{"yat", `{"nope":1}`},
		{"fab", `{"nope":1}`},
	}
	for _, c := range reject {
		if _, err := kindOpts[c.kind](c.params, 7); err == nil || !strings.Contains(err.Error(), "bad params") {
			t.Errorf("%s %s: err = %v, want bad params", c.kind, c.params, err)
		}
	}
}
