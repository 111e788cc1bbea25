// Command rescue-yat reproduces the paper's Figure 9 (yield-adjusted
// throughput of no-redundancy / core-sparing / Rescue across technology
// nodes and core-growth rates, for a chosen PWP-stagnation node) and
// Table 2 (component relative areas).
//
// Usage:
//
//	rescue-yat -areas
//	rescue-yat [-stagnate 90|65] [-bench list] [-warmup N] [-commit N]
//	           [-workers N] [-timeout D] [-progress] [-timing=false]
//
// SIGINT/SIGTERM stop the study, mid-simulation included, and exit 130; a
// -timeout deadline exits 124.
package main

import (
	"flag"
	"fmt"
	"os"

	"rescue/internal/area"
	"rescue/internal/cli"
	"rescue/internal/flows"
)

func main() {
	areas := flag.Bool("areas", false, "print Table 2 and exit")
	stagnate := flag.Int("stagnate", 90, "node (nm) at which PWP stops improving (90 or 65)")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default: all 23)")
	warmup := flag.Int64("warmup", 20_000, "warmup instructions per simulation")
	commit := flag.Int64("commit", 150_000, "measured instructions per simulation")
	timing := flag.Bool("timing", true, "print wall-clock timings (disable for golden diffs)")
	ff := cli.AddStudyFlags(flag.CommandLine)
	flag.Parse()
	ff.Validate()

	if *areas {
		printAreas()
		return
	}

	ctx, stop := ff.Context()
	defer stop()

	_, err := flows.YAT(ctx, os.Stdout, flows.YATOpts{
		StagnateNM: *stagnate,
		Bench:      *benches,
		Warmup:     *warmup,
		Commit:     *commit,
		Workers:    ff.Workers,
		Timing:     *timing,
	}, flows.Env{})
	if err != nil {
		cli.ExitErr(err)
	}
}

func printAreas() {
	b := area.BaselineWithScan()
	r := area.Rescue()
	fmt.Println("Table 2: Total areas and component relative areas (90nm)")
	fmt.Println()
	fmt.Printf("  Baseline core with scan: %6.1f mm²   (paper: ~96 mm²)\n", b.Total)
	fmt.Printf("  Rescue core:             %6.1f mm²   (paper: ~106.7 mm²)\n", r.Total)
	fmt.Println()
	fmt.Printf("  %-14s %9s %9s\n", "component", "pair mm²", "fraction")
	for g := area.Group(0); g < area.NumGroups; g++ {
		fmt.Printf("  %-14s %9.2f %8.1f%%\n", g, r.PairArea[g], r.Frac(g)*100)
	}
	fmt.Println()
	fmt.Println("  (paper's legible entries: int backend 15%, fp backend 21%, chipkill 40%)")
}
