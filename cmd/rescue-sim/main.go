// Command rescue-sim reproduces the paper's Figure 8 (per-benchmark IPC of
// the baseline superscalar vs. the ICI-transformed Rescue pipeline) and
// prints the Table 1 machine parameters.
//
// Usage:
//
//	rescue-sim [-params] [-bench name,name,...] [-warmup N] [-commit N]
//	           [-workers N] [-timeout D] [-progress]
//	           [-degraded fe,ib,fb,iqi,iqf,lsq]
//
// SIGINT/SIGTERM stop the study, mid-simulation included, and exit 130; a
// -timeout deadline exits 124.
package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"rescue/internal/cli"
	"rescue/internal/core"
	"rescue/internal/uarch"
	"rescue/internal/workload"
)

func main() {
	params := flag.Bool("params", false, "print Table 1 parameters and exit")
	report := flag.Bool("report", false, "print the full per-benchmark statistics report")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default: all 23)")
	warmup := flag.Int64("warmup", 100_000, "warmup instructions")
	commit := flag.Int64("commit", 1_000_000, "measured instructions")
	degraded := flag.String("degraded", "", "degraded config counts: fe,ib,fb,iqi,iqf,lsq")
	ff := cli.AddStudyFlags(flag.CommandLine)
	flag.Parse()
	ff.Validate()

	if *params {
		printParams()
		return
	}

	ctx, stop := ff.Context()
	defer stop()

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	if *degraded != "" {
		runDegraded(ctx, names, *degraded, *warmup, *commit)
		return
	}

	if *report {
		runReport(ctx, names, *warmup, *commit)
		return
	}

	rows, err := core.IPCStudyFlow(ctx, names, *warmup, *commit, ff.Workers)
	if err != nil {
		cli.ExitErr(err)
	}
	fmt.Println("Figure 8: IPC degradation (paper: 0% (swim) to 10% (bzip), mean 4%)")
	fmt.Println()
	fmt.Printf("%-10s %9s %9s %7s\n", "benchmark", "baseline", "rescue", "deg%")
	var sum float64
	for _, r := range rows {
		fmt.Printf("%-10s %9.3f %9.3f %6.1f%%\n", r.Benchmark, r.Baseline, r.Rescue, r.DegradationPct)
		sum += r.DegradationPct
	}
	fmt.Println()
	fmt.Printf("MEAN degradation: %.2f%%\n", sum/float64(len(rows)))
}

// runReport prints each benchmark's detailed statistics (occupancy,
// replay/squash counters) for both machines.
func runReport(ctx context.Context, names []string, warmup, commit int64) {
	if names == nil {
		names = []string{"gzip", "swim", "mcf"}
	}
	for _, name := range names {
		if ctx.Err() != nil {
			cli.ExitErr(context.Cause(ctx))
		}
		prof, err := workload.ByName(name)
		if err != nil {
			cli.Usagef("%v", err)
		}
		for _, rescueMachine := range []bool{false, true} {
			p := uarch.DefaultParams()
			label := "baseline"
			if rescueMachine {
				p = uarch.RescueParams()
				label = "rescue"
			}
			s, err := uarch.New(p, prof)
			if err != nil {
				cli.Fatalf("%v", err)
			}
			if _, err := s.RunContext(ctx, warmup, commit); err != nil {
				cli.ExitErr(err)
			}
			fmt.Printf("=== %s / %s ===\n%s\n", name, label, s.Report())
		}
	}
}

func runDegraded(ctx context.Context, names []string, spec string, warmup, commit int64) {
	parts := strings.Split(spec, ",")
	if len(parts) != 6 {
		cli.Usagef("-degraded needs 6 comma-separated counts: fe,ib,fb,iqi,iqf,lsq")
	}
	var v [6]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			cli.Usagef("-degraded: bad count %q: %v", p, err)
		}
		v[i] = n
	}
	d := uarch.Degraded{
		FEGroupsDisabled: v[0], IntGroupsDisabled: v[1], FPGroupsDisabled: v[2],
		IntIQHalvesDown: v[3], FPIQHalvesDown: v[4], LSQHalvesDown: v[5],
	}
	if names == nil {
		for _, p := range workload.Benchmarks() {
			names = append(names, p.Name)
		}
	}
	fmt.Printf("degraded configuration: %v\n\n", d)
	fmt.Printf("%-10s %9s %10s %7s\n", "benchmark", "full", "degraded", "loss%")
	for _, name := range names {
		if ctx.Err() != nil {
			cli.ExitErr(context.Cause(ctx))
		}
		prof, err := workload.ByName(name)
		if err != nil {
			cli.Usagef("%v", err)
		}
		pf := uarch.RescueParams()
		sf, err := uarch.New(pf, prof)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		full, err := sf.RunContext(ctx, warmup, commit)
		if err != nil {
			cli.ExitErr(err)
		}
		pd := uarch.RescueParams()
		pd.Degr = d
		sd, err := uarch.New(pd, prof)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		deg, err := sd.RunContext(ctx, warmup, commit)
		if err != nil {
			cli.ExitErr(err)
		}
		fmt.Printf("%-10s %9.3f %10.3f %6.1f%%\n", name, full.IPC(), deg.IPC(), (1-deg.IPC()/full.IPC())*100)
	}
}

func printParams() {
	p := uarch.DefaultParams()
	r := uarch.RescueParams()
	fmt.Println("Table 1: System Parameters")
	fmt.Printf("  issue width            %d (per queue)\n", p.IssueWidth)
	fmt.Printf("  frontend/backend ways  %d\n", p.Ways)
	fmt.Printf("  int / fp issue queue   %d / %d entries (two halves)\n", p.IntIQSize, p.FPIQSize)
	fmt.Printf("  load/store queue       %d entries (two halves)\n", p.LSQSize)
	fmt.Printf("  active list (ROB)      %d entries\n", p.ROBSize)
	fmt.Printf("  branch predictor       8KB hybrid (bimodal+gshare), 1KB 4-way BTB, RAS\n")
	fmt.Printf("  mispredict penalty     %d cycles baseline, %d Rescue (+2 shift stages)\n",
		p.FrontendDepth, r.FrontendDepth)
	fmt.Printf("  L1 I/D                 64KB 2-way 32B 2-cycle; D 2-port\n")
	fmt.Printf("  L2                     2MB 8-way 64B 15-cycle\n")
	fmt.Printf("  memory                 250 cycles (x1.5 per technology halving)\n")
	fmt.Printf("  Rescue compaction buf  %d entries per queue; L1-miss squash window %d (vs %d)\n",
		r.CompBufSlots, r.SquashWindow, p.SquashWindow)
}
