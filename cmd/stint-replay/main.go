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
	fmt.Printf("strands    %d\n", rep.Strands)
	fmt.Printf("accesses   read %d  write %d\n", rep.Stats.ReadAccesses, rep.Stats.WriteAccesses)
	if rep.Stats.ReadIntervals+rep.Stats.WriteIntervals > 0 {
		fmt.Printf("intervals  read %d  write %d\n", rep.Stats.ReadIntervals, rep.Stats.WriteIntervals)
	}
	if opts.TimeAccessHistory {
		fmt.Printf("access-history time %v\n", rep.Stats.AccessHistoryTime.Round(time.Microsecond))
	}
	for _, line := range cliutil.PipelineReport(rep) {
		fmt.Println(line)
	}
	if rep.Stats.HistoryBytesPeak > 0 {
		fmt.Printf("history    %.1f KiB peak retained\n", float64(rep.Stats.HistoryBytesPeak)/1024)
	}
	if q := opts.PageQuiesceThreshold; q > 0 {
		fmt.Printf("quiesced   %d pages (threshold %d races/page)\n", rep.Stats.PagesQuiesced, q)
	}
	if rep.Racy() {
		fmt.Printf("RACES: %d found\n", rep.RaceCount)
		for _, rc := range rep.Races {
			fmt.Printf("  %v\n", rc)
		}
	} else {
		fmt.Println("no races found")
	}
	return nil
}
