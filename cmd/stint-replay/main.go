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
		detector   = flag.String("detector", "stint", "detector mode for the replay")
		races      = flag.Int("races", 10, "max races to print")
		timing     = flag.Bool("timing", false, "measure access-history time separately")
		async      = flag.Bool("async", false, "replay through the pipelined detector: the decoder side coalesces each strand and streams its intervals to detector workers (comp+rts and stint variants only)")
		shards     = flag.Int("shards", 0, "partition pipelined detection across N workers by shadow page (implies -async; comp+rts and stint variants only)")
		quiesce    = flag.Int("quiesce", 0, "retire a shadow page's access history once it produces N races (0 disables)")
		maxHistory = flag.Int64("max-history", 0, "abort the replay when the retained access history exceeds N bytes (0 = unlimited)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: stint-replay [flags] TRACEFILE")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *detector, *races, *timing, *async, *shards, *quiesce, *maxHistory); err != nil {
		fmt.Fprintln(os.Stderr, "stint-replay:", err)
		os.Exit(1)
	}
}

func run(path, detector string, maxRaces int, timing, async bool, shards int, quiesce int, maxHistory int64) error {
	mode, err := stint.ParseDetector(detector)
	if err != nil {
		return err
	}
	if mode == stint.DetectorOff {
		return errors.New("replay needs a detector (got off)")
	}
	r, err := stint.NewRunner(stint.Options{
		Detector:             mode,
		MaxRacesRecorded:     maxRaces,
		TimeAccessHistory:    timing,
		Async:                async || shards > 0,
		DetectShards:         shards,
		PageQuiesceThreshold: quiesce,
		MaxHistoryBytes:      maxHistory,
	})
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
	if async || shards > 0 {
		pipe = " (async pipeline)"
		if shards > 0 {
			pipe = fmt.Sprintf(" (async pipeline, %d detection shards)", shards)
		}
	}
	fmt.Printf("replayed %s under %v%s in %v\n", path, mode, pipe, time.Since(start).Round(time.Microsecond))
	fmt.Printf("strands    %d\n", rep.Strands)
	fmt.Printf("accesses   read %d  write %d\n", rep.Stats.ReadAccesses, rep.Stats.WriteAccesses)
	if rep.Stats.ReadIntervals+rep.Stats.WriteIntervals > 0 {
		fmt.Printf("intervals  read %d  write %d\n", rep.Stats.ReadIntervals, rep.Stats.WriteIntervals)
	}
	if timing {
		fmt.Printf("access-history time %v\n", rep.Stats.AccessHistoryTime.Round(time.Microsecond))
	}
	for _, line := range cliutil.PipelineReport(rep) {
		fmt.Println(line)
	}
	if rep.Stats.HistoryBytesPeak > 0 {
		fmt.Printf("history    %.1f KiB peak retained\n", float64(rep.Stats.HistoryBytesPeak)/1024)
	}
	if quiesce > 0 {
		fmt.Printf("quiesced   %d pages (threshold %d races/page)\n", rep.Stats.PagesQuiesced, quiesce)
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
