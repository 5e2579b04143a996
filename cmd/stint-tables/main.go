// Command stint-tables regenerates the paper's evaluation tables from live
// runs: Figure 1 (vanilla breakdown), Figure 5 (four detector versions),
// Figure 6 (access/interval statistics), Figure 7 (hashmap vs treap
// access-history time) and Figure 8 (input-size scaling).
//
// Usage:
//
//	stint-tables [-scale 1] [-reps 3] fig1 fig5 fig6 fig7 fig8
//	stint-tables all
//
// Everything outside the paper's figures — allocations, pipelined modes,
// worker utilization, the service — is measured by the benchmark in bench/.
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
		case "all":
			err = suite.All()
		default:
			err = fmt.Errorf("unknown table %q (want fig1|fig5|fig6|fig7|fig8|all)", a)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stint-tables:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
