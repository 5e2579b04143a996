// Command stint runs one benchmark under one race-detector configuration
// and prints the timing, access statistics, and any races found.
//
// Usage:
//
//	stint -workload mmul -detector stint [-scale 2] [-races 10] [-timing]
//	      [-async] [-parallel-detect] [-shards N] [-quiesce N]
//	      [-max-history BYTES]
//
// Detectors: off, reach, vanilla, compiler, comp+rts, stint — or all,
// which compares every one on the workload
// (-async then applies to the coalescing detectors only). With
// -parallel-detect, -shards sizes its worker side instead of implying
// -async.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"stint"
	"stint/internal/cliutil"
	"stint/trace"
	"stint/workloads"
)

func main() {
	var (
		workload   = flag.String("workload", "mmul", "benchmark: "+strings.Join(workloads.Names(), ", "))
		detOpts    = cliutil.DetectorFlags(flag.CommandLine)
		scale      = flag.Int("scale", 1, "problem-size multiplier")
		races      = flag.Int("races", 10, "max races to print")
		timing     = flag.Bool("timing", false, "measure access-history time separately")
		parDetect  = flag.Bool("parallel-detect", false, "execute the program's spawns on real goroutines with online detection behind a deterministic merge (comp+rts or stint only; -shards then sizes its worker side)")
		traceOut   = flag.String("trace-out", "", "record the execution to this trace file (replay with stint-replay)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the detection run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stint:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "stint:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	opts, err := detOpts()
	opts.MaxRacesRecorded, opts.TimeAccessHistory = *races, *timing
	if *parDetect {
		opts.Async, opts.ParallelDetect = false, true
	}
	factory, werr := workloads.ByName(*workload, *scale)
	switch {
	case werr != nil:
		err = werr
	case flag.Lookup("detector").Value.String() == "all":
		err = runAll(factory, *timing, opts.Async)
	case err == nil:
		err = run(factory(), opts, *traceOut)
	}
	if *memProfile != "" {
		if perr := writeMemProfile(*memProfile); perr != nil {
			fmt.Fprintln(os.Stderr, "stint: memprofile:", perr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stint:", err)
		os.Exit(1)
	}
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // flush accounting so the profile reflects the run
	return pprof.Lookup("allocs").WriteTo(f, 0)
}

// eventCounter counts the events it passes on to the trace Recorder.
type eventCounter struct {
	*trace.Recorder
	n uint64
}

func (c *eventCounter) Spawn()                          { c.n++; c.Recorder.Spawn() }
func (c *eventCounter) Restore()                        { c.n++; c.Recorder.Restore() }
func (c *eventCounter) Sync()                           { c.n++; c.Recorder.Sync() }
func (c *eventCounter) Read(a stint.Addr, size uint64)  { c.n++; c.Recorder.Read(a, size) }
func (c *eventCounter) Write(a stint.Addr, size uint64) { c.n++; c.Recorder.Write(a, size) }
func (c *eventCounter) ReadRange(a stint.Addr, n int, elem uint64) {
	c.n++
	c.Recorder.ReadRange(a, n, elem)
}
func (c *eventCounter) WriteRange(a stint.Addr, n int, elem uint64) {
	c.n++
	c.Recorder.WriteRange(a, n, elem)
}

func run(w workloads.Workload, opts stint.Options, traceOut string) error {
	mode, shards := opts.Detector, opts.DetectShards
	var rec *eventCounter
	var f *os.File
	if traceOut != "" {
		var err error
		if f, err = os.Create(traceOut); err != nil {
			return err
		}
		defer f.Close() // for the error returns; a written trace is closed below
		rec = &eventCounter{Recorder: trace.NewRecorder(f)}
		opts.Tracer = rec
	}
	r, err := stint.NewRunner(opts)
	if err != nil {
		return err
	}
	setupStart := time.Now()
	w.Setup(r)
	pipe := ""
	if opts.ParallelDetect {
		pipe = fmt.Sprintf(", parallel execution, %d detection shards", max(shards, 1))
	} else if opts.Async && mode != stint.DetectorOff {
		pipe = ", async pipeline"
		if shards > 0 {
			pipe = fmt.Sprintf(", async pipeline, %d detection shards", shards)
		}
	}
	fmt.Printf("%s (%s) under %v%s  [setup %v]\n", w.Name(), w.Params(), mode, pipe, time.Since(setupStart).Round(time.Millisecond))

	rep, err := r.Run(w.Run)
	if err != nil {
		return err
	}
	if err := w.Verify(); err != nil {
		return fmt.Errorf("result verification failed: %w", err)
	}
	if rec != nil {
		err := rec.Flush()
		var fi os.FileInfo
		if err == nil {
			fi, err = f.Stat()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace written to %s (%d bytes, %.2f B/event)\n", traceOut, fi.Size(), float64(fi.Size())/float64(max(rec.n, 1)))
	}
	fmt.Printf("time       %v (result verified)\n", rep.WallTime.Round(time.Microsecond))
	if mode == stint.DetectorOff {
		return nil
	}
	cliutil.PrintReport(os.Stdout, rep, opts, true, r.DescribeRace)
	return nil
}

// runAll compares every detector configuration on one workload.
func runAll(factory workloads.Factory, timing, async bool) error {
	modes := []stint.Detector{
		stint.DetectorOff, stint.DetectorReachOnly, stint.DetectorVanilla,
		stint.DetectorCompiler, stint.DetectorCompRTS, stint.DetectorSTINT,
	}
	var base time.Duration
	fmt.Printf("%-18s %12s %9s %12s %12s %10s %8s\n", "detector", "time", "overhead", "intervals", "ah-time", "allocs", "races")
	for _, mode := range modes {
		w := factory()
		// The pipeline streams coalesced intervals, so -async reaches only
		// the detectors that consume them; the rest run inline.
		piped := async && mode != stint.DetectorVanilla && mode != stint.DetectorCompiler
		r, err := stint.NewRunner(stint.Options{Detector: mode, TimeAccessHistory: timing, Async: piped})
		if err != nil {
			return err
		}
		w.Setup(r)
		rep, err := r.Run(w.Run)
		if err != nil {
			return err
		}
		if err := w.Verify(); err != nil {
			return fmt.Errorf("%v: %w", mode, err)
		}
		if mode == stint.DetectorOff {
			base = rep.WallTime
		}
		oh := "-"
		if base > 0 {
			oh = fmt.Sprintf("%.2fx", float64(rep.WallTime)/float64(base))
		}
		ivs := rep.Stats.ReadIntervals + rep.Stats.WriteIntervals
		ivCol := "-"
		if ivs > 0 {
			ivCol = fmt.Sprintf("%d", ivs)
		}
		ahCol := "-"
		if timing && rep.Stats.AccessHistoryTime > 0 {
			ahCol = rep.Stats.AccessHistoryTime.Round(time.Microsecond).String()
		}
		fmt.Printf("%-18v %12v %9s %12s %12s %10d %8d\n",
			mode, rep.WallTime.Round(time.Microsecond), oh, ivCol, ahCol, rep.Stats.AllocObjects, rep.RaceCount)
	}
	return nil
}
