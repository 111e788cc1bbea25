package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"rescue/internal/flows"
)

// RunContext is what the server hands a runner: the flow environment
// (shared artifact store plus this job's checkpoint journal) and the
// server-default campaign worker count.
type RunContext struct {
	Env flows.Env
	// Workers is the server's default campaign concurrency; params that
	// carry their own workers field override it.
	Workers int
	// CheckpointDir is the server's journal directory ("" = checkpointing
	// off). Most kinds use the pre-opened Env.Ck; the sweep kind manages
	// a journal directory of its own under it.
	CheckpointDir string
}

// Runner executes one job kind. The returned bytes are the job's report —
// rendered by the same flows the CLIs print, so they are byte-identical to
// the corresponding command's stdout. On error the partial output is still
// returned for inspection.
type Runner func(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error)

// decode unmarshals params strictly — unknown fields are submission errors,
// not silent typos.
func decode(params json.RawMessage, into any) error {
	if len(params) == 0 || string(params) == "null" {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("bad params: %w", err)
	}
	return nil
}

// Kinds returns the built-in job kinds. Reports default to timing-free
// output (the deterministic, golden-diffable form); a job may opt into
// timings with "timing": true.
func Kinds() map[string]Runner {
	return map[string]Runner{
		"table3":    flowRunner(flows.Table3),
		"dict":      flowRunner(dictCSV),
		"isolation": flowRunner(flows.Isolation),
		"yat":       flowRunner(flows.YAT),
		"fab":       flowRunner(flows.Fab),
		"sweep":     runSweep,
	}
}

// flowRunner serves a flow as a job kind. Params decode strictly into
// the flow's own options struct — its JSON names are the wire format — a
// job that names no workers takes the server default, and the report is
// exactly what the flow writes.
func flowRunner[O, R any](flow func(context.Context, io.Writer, O, flows.Env) (R, error)) Runner {
	return func(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
		var o O
		if err := decode(params, &o); err != nil {
			return nil, err
		}
		// Every flow's options carry a Workers field.
		if w := reflect.ValueOf(&o).Elem().FieldByName("Workers"); w.Int() <= 0 {
			w.SetInt(int64(rc.Workers))
		}
		var buf bytes.Buffer
		_, err := flow(ctx, &buf, o, rc.Env)
		return buf.Bytes(), err
	}
}

// dictCSV is the dict kind's flow: the CSV is the artifact; the build
// commentary goes nowhere (clients watch the event stream instead).
func dictCSV(ctx context.Context, w io.Writer, o flows.DictOpts, env flows.Env) (flows.DictResult, error) {
	return flows.DictBuild(ctx, io.Discard, w, o, env)
}
