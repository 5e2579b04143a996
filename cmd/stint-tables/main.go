// Command stint-tables regenerates the paper's evaluation tables from live
// runs: Figure 1 (vanilla breakdown), Figure 5 (four detector versions),
// Figure 6 (access/interval statistics), Figure 7 (hashmap vs treap
// access-history time), Figure 8 (input-size scaling), and an additional
// backing-store ablation.
//
// Usage:
//
//	stint-tables [-scale 1] [-reps 3] fig1 fig5 fig6 fig7 fig8 ablation allocs async util serve
//	stint-tables all
//
// The extra "allocs" table (not part of the paper, and not included in
// "all") reports heap objects and bytes allocated during each detection
// run, backing the allocation-free hot-path work in EXPERIMENTS.md. The
// extra "async" table (also outside the paper, whose detector is strictly
// inline) compares synchronous vs pipelined detection wall clock. The
// extra "util" table reads the sharded worker graph's utilization — the
// busiest shard worker, the skip-scan share, the stream's wire cost. The
// extra "serve"
// table (also outside the paper) records every benchmark once, ingests the
// traces through an in-process stint-serve warm-pool instance, and prints
// the service's pool utilization from /v1/statusz.
package main

import (
	"flag"
	"fmt"
	"os"

	"stint/internal/tables"
)

func main() {
	var (
		scale = flag.Int("scale", 1, "problem-size multiplier for all benchmarks")
		reps  = flag.Int("reps", 3, "timing repetitions per configuration")
	)
	flag.Parse()
	suite := &tables.Suite{Out: os.Stdout, Scale: *scale, Reps: *reps}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	for _, a := range args {
		var err error
		switch a {
		case "fig1":
			err = suite.Fig1()
		case "fig5":
			err = suite.Fig5()
		case "fig6":
			err = suite.Fig6()
		case "fig7":
			err = suite.Fig7()
		case "fig8":
			err = suite.Fig8()
		case "ablation":
			err = suite.Ablation()
		case "allocs":
			err = suite.Allocs()
		case "async":
			err = suite.Async()
		case "util":
			err = suite.Util()
		case "serve":
			err = suite.Serve()
		case "all":
			err = suite.All()
		default:
			err = fmt.Errorf("unknown table %q (want fig1|fig5|fig6|fig7|fig8|ablation|allocs|async|util|serve|all)", a)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stint-tables:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
