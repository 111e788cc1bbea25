package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

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

func pick(jobWorkers, serverWorkers int) int {
	if jobWorkers > 0 {
		return jobWorkers
	}
	return serverWorkers
}

// Kinds returns the built-in job kinds. Reports default to timing-free
// output (the deterministic, golden-diffable form); a job may opt into
// timings with "timing": true.
func Kinds() map[string]Runner {
	return map[string]Runner{
		"table3":    runTable3,
		"dict":      runDict,
		"isolation": runIsolation,
		"yat":       runYAT,
		"fab":       runFab,
		"sweep":     runSweep,
	}
}

type table3Params struct {
	Small      bool  `json:"small"`
	Seed       int64 `json:"seed"`
	Backtracks int   `json:"backtracks"`
	Workers    int   `json:"workers"`
	Timing     bool  `json:"timing"`
}

func runTable3(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var p table3Params
	if err := decode(params, &p); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err := flows.Table3(ctx, &buf, flows.Table3Opts{
		Small:      p.Small,
		Seed:       p.Seed,
		Backtracks: p.Backtracks,
		Workers:    pick(p.Workers, rc.Workers),
		Timing:     p.Timing,
	}, rc.Env)
	return buf.Bytes(), err
}

type dictParams struct {
	Small   bool `json:"small"`
	Workers int  `json:"workers"`
}

func runDict(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var p dictParams
	if err := decode(params, &p); err != nil {
		return nil, err
	}
	// The CSV is the artifact; the build commentary goes nowhere (clients
	// watch the event stream instead).
	var buf bytes.Buffer
	_, err := flows.DictBuild(ctx, io.Discard, &buf, flows.DictOpts{
		Small:   p.Small,
		Workers: pick(p.Workers, rc.Workers),
	}, rc.Env)
	return buf.Bytes(), err
}

type isolationParams struct {
	Small    bool  `json:"small"`
	PerStage int   `json:"perStage"`
	Seed     int64 `json:"seed"`
	Multi    bool  `json:"multi"`
	Workers  int   `json:"workers"`
	Timing   bool  `json:"timing"`
}

func runIsolation(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var p isolationParams
	if err := decode(params, &p); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err := flows.Isolation(ctx, &buf, flows.IsolationOpts{
		Small:    p.Small,
		PerStage: p.PerStage,
		Seed:     p.Seed,
		Multi:    p.Multi,
		Workers:  pick(p.Workers, rc.Workers),
		Timing:   p.Timing,
	}, rc.Env)
	return buf.Bytes(), err
}

type yatParams struct {
	Stagnate int    `json:"stagnate"`
	Bench    string `json:"bench"`
	Warmup   int64  `json:"warmup"`
	Commit   int64  `json:"commit"`
	Workers  int    `json:"workers"`
	Timing   bool   `json:"timing"`
}

func runYAT(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var p yatParams
	if err := decode(params, &p); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err := flows.YAT(ctx, &buf, flows.YATOpts{
		StagnateNM: p.Stagnate,
		Bench:      p.Bench,
		Warmup:     p.Warmup,
		Commit:     p.Commit,
		Workers:    pick(p.Workers, rc.Workers),
		Timing:     p.Timing,
	}, rc.Env)
	return buf.Bytes(), err
}

type fabParams struct {
	Dies          int     `json:"dies"`
	Node          int     `json:"node"`
	Stagnate      int     `json:"stagnate"`
	Growth        float64 `json:"growth"`
	Seed          int64   `json:"seed"`
	Small         bool    `json:"small"`
	Bench         string  `json:"bench"`
	Warmup        int64   `json:"warmup"`
	Commit        int64   `json:"commit"`
	SelfHealShare float64 `json:"selfhealShare"`
	Workers       int     `json:"workers"`
	Timing        bool    `json:"timing"`
}

func runFab(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var p fabParams
	if err := decode(params, &p); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err := flows.Fab(ctx, &buf, flows.FabOpts{
		Dies:          p.Dies,
		NodeNM:        p.Node,
		StagnateNM:    p.Stagnate,
		Growth:        p.Growth,
		Seed:          p.Seed,
		Workers:       pick(p.Workers, rc.Workers),
		Small:         p.Small,
		Bench:         p.Bench,
		Warmup:        p.Warmup,
		Commit:        p.Commit,
		SelfHealShare: p.SelfHealShare,
		Timing:        p.Timing,
	}, rc.Env)
	return buf.Bytes(), err
}
