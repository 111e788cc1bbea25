package flows

import (
	"context"
	"fmt"
	"io"
	"time"

	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/rtl"
)

// DictOpts parameterizes the fault-dictionary build — the
// `rescue-dict build` command surface and, through its JSON names, the
// dict job's params.
type DictOpts struct {
	Small   bool `json:"small"`
	Workers int  `json:"workers"`
}

// DictResult carries the dictionary, the campaign stats (partial on
// interrupt), and the detection summary.
type DictResult struct {
	Stats    fault.Stats
	Dict     *fault.Dictionary
	Detected int
	Faults   int
}

// DictBuild generates the test program, builds the full fault dictionary,
// and writes the CSV artifact to csvW. Progress commentary — what
// `rescue-dict build` prints to stdout around the CSV file — goes to
// infoW (pass io.Discard to get the bare artifact, as the daemon does).
func DictBuild(ctx context.Context, infoW, csvW io.Writer, o DictOpts, env Env) (DictResult, error) {
	var res DictResult
	_, tp, err := DictSystem(ctx, o.Small, o.Workers, env)
	if err != nil {
		if tp != nil {
			res.Stats = tp.Gen.Stats
		}
		return res, err
	}
	fmt.Fprintf(infoW, "building dictionary over %d collapsed faults, %d vectors...\n",
		tp.Universe.CountCollapsed(), tp.Gen.Vectors)
	d, st, err := env.Dictionary(ctx, PaperDesign(o.Small, rtl.RescueDesign), defaultGen(o.Workers), tp)
	res.Stats = st
	if err != nil {
		return res, err
	}
	fmt.Fprintf(infoW, "campaign: %d fault-sims, %d word-sims, %d gate events, %d workers, %s\n",
		st.Faults, st.Words, st.Events, st.Workers, st.Wall.Round(time.Millisecond))
	if err := d.WriteCSV(csvW); err != nil {
		return res, err
	}
	res.Dict = d
	res.Detected = d.Detected()
	res.Faults = tp.Universe.CountCollapsed()
	return res, nil
}

// DictSystem builds the (system, test program) pair behind the
// dictionary — DictBuild's first half, and everything the diagnose
// subcommand needs — so both see identical artifacts. On an ATPG
// interrupt the partial test program is returned with the error.
func DictSystem(ctx context.Context, small bool, workers int, env Env) (*core.System, *core.TestProgram, error) {
	d := PaperDesign(small, rtl.RescueDesign)
	sys, err := env.System(d)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	tp, err := env.TestProgram(ctx, d, sys, defaultGen(workers))
	if err != nil {
		return nil, tp, err
	}
	return sys, tp, nil
}
