// Command bench is the repository's one benchmark: it runs each workload
// live under every execution mode, serves its recorded trace through a
// stint-serve child, checks every result, and prints every metric by name
// with its unit. See README.md; run it through run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// resultFile is what -out writes: the machine fingerprint, the settings,
// and every workload's metrics.
type resultFile struct {
	Schema    string    `json:"schema"`
	Machine   machine   `json:"machine"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Rounds    int       `json:"rounds,omitempty"`
	Traced    bool      `json:"traced"`
	Workloads []*result `json:"workloads"`
}

const schema = "stint-bench/1"

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all of them)")
		seed     = flag.Int64("seed", 1, "seed of the address pad and the per-round mode order")
		seconds  = flag.Float64("seconds", 20, "time budget of one workload's measured phases")
		rounds   = flag.Int("rounds", 0, "if > 0, fixed work instead of -seconds: timed live rounds, and timed uploads per client")
		traced   = flag.Int("trace", 0, "1 = traced run: record spans, run the mode ladder and the isolated layers, report the per-layer metrics")
		out      = flag.String("out", "", "write the result file (fingerprint and all metrics) here")
		outDir   = flag.String("out-dir", "bench/out", "directory a traced run writes trace-<workload>.json to")
		serveBin = flag.String("serve-bin", ".bench_build/stint-serve", "built stint-serve binary (run.sh builds it)")
		agree    = flag.Bool("agree", false, "compare two result files given as arguments, metric by metric, against the bounds")
	)
	flag.Parse()
	if *agree {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -agree A.json B.json"))
		}
		ok, err := agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	selected := allWorkloads
	if *name != "" {
		wl, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{wl}
	}
	// One process drives the load, on at most four processors, and the
	// server child gets as many.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "bench: warning: one processor — the pipelined modes' walls measure timesharing, not overlap")
	}
	cfg := config{seed: *seed, seconds: *seconds, rounds: *rounds, traced: *traced != 0, procs: procs, serveBin: *serveBin, outDir: *outDir}
	if cfg.traced {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	file := resultFile{Schema: schema, Machine: fingerprint(), Seed: cfg.seed, Seconds: cfg.seconds, Rounds: cfg.rounds, Traced: cfg.traced}
	failed := false
	for _, wl := range selected {
		res, err := runWorkload(cfg, wl)
		if err != nil {
			fatal(err)
		}
		file.Workloads = append(file.Workloads, res)
		printResult(res, cfg.traced)
		failed = failed || res.Failed > 0
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printResult prints one workload's metrics as a table and then, as the
// last line, the one-object summary the benchmark driver reads: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced run.
func printResult(res *result, traced bool) {
	fmt.Printf("== %s (%s, pad %d B): %d live rounds, %d served traces, %d/%d operations failed\n",
		res.Workload, res.Params, res.PadBytes, res.LiveRounds, res.ServeUploads, res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Println("FAIL", f)
	}
	for _, m := range res.metrics() {
		fmt.Printf("%-36s %14.4f %-8s median %12.4f  p25 %12.4f  p75 %12.4f  n=%d\n", m.Name, m.Value, m.Unit, m.Median, m.P25, m.P75, m.N)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]value)}
	reported := res.EndToEnd
	if traced {
		reported = res.PerLayer
	}
	for _, m := range reported {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}
