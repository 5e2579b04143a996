// Command stint-replay analyzes a recorded execution trace under a chosen
// detector configuration, without re-running the program.
//
// Record a trace with `stint -workload X -trace-out FILE` (or the
// stint/trace package), then:
//
//	stint-replay -detector stint trace.bin
//	stint-replay -detector vanilla -races 20 trace.bin
//	stint-replay -detector stint -shards 4 trace.bin
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"stint"
	"stint/internal/cliutil"
	"stint/trace"
)

func main() {
	var (
		detOpts = cliutil.DetectorFlags(flag.CommandLine)
		races   = flag.Int("races", 10, "max races to print")
		timing  = flag.Bool("timing", false, "measure access-history time separately")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: stint-replay [flags] TRACEFILE")
		os.Exit(2)
	}
	opts, err := detOpts()
	if err == nil {
		opts.MaxRacesRecorded, opts.TimeAccessHistory = *races, *timing
		err = run(flag.Arg(0), opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stint-replay:", err)
		os.Exit(1)
	}
}

func run(path string, opts stint.Options) error {
	if opts.Detector == stint.DetectorOff {
		return errors.New("replay needs a detector (got off)")
	}
	r, err := stint.NewRunner(opts)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	rep, err := trace.Replay(f, trace.Options{Runner: r})
	if err != nil {
		return err
	}
	pipe := ""
	if opts.Async {
		pipe = " (async pipeline)"
		if opts.DetectShards > 0 {
			pipe = fmt.Sprintf(" (async pipeline, %d detection shards)", opts.DetectShards)
		}
	}
	fmt.Printf("replayed %s under %v%s in %v\n", path, opts.Detector, pipe, time.Since(start).Round(time.Microsecond))
	// A trace's addresses belong to the recording process, so there is no
	// arena to name them against: races print in their canonical form.
	cliutil.PrintReport(os.Stdout, rep, opts, false, stint.Race.String)
	return nil
}
