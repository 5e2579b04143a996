package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// agreeFiles prints, for every workload and metric the two result files
// share, both medians, their relative difference, the bound, and PASS or
// FAIL: an end-to-end metric passes within its bound, an exact count only
// when identical (given equal seeds), other ledger metrics are shown
// without a verdict. It reports whether every verdict was PASS.
func agreeFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	if a.Machine != b.Machine {
		fmt.Fprintf(w, "WARNING: fingerprints differ, the comparison measures the machines:\n  A %+v\n  B %+v\n", a.Machine, b.Machine)
	}
	sameSeed := a.Seed == b.Seed
	ok := true
	fmt.Fprintf(w, "%-12s %-36s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "verdict")
	for _, ra := range a.Workloads {
		for _, rb := range b.Workloads {
			if ra.Workload != rb.Workload {
				continue
			}
			if ra.Failed+rb.Failed > 0 {
				ok = false
				fmt.Fprintf(w, "%-12s failed operations: A %d/%d, B %d/%d  FAIL\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			}
			byName := make(map[string]metric)
			for _, m := range rb.metrics() {
				byName[m.Name] = m
			}
			for _, ma := range ra.metrics() {
				mb, shared := byName[ma.Name]
				if !shared {
					continue
				}
				diff := ratio(mb.Value-ma.Value, ma.Value)
				verdict := "-"
				switch {
				case ma.Exact && sameSeed:
					verdict = passFail(ma.Value == mb.Value)
				case ma.Bound > 0:
					verdict = passFail(math.Abs(diff) <= ma.Bound)
				}
				if verdict == "FAIL" {
					ok = false
				}
				bound := "-"
				if ma.Bound > 0 {
					bound = fmt.Sprintf("%.1f%%", 100*ma.Bound)
				}
				fmt.Fprintf(w, "%-12s %-36s %14.4f %14.4f %+8.2f%% %7s  %s\n",
					ra.Workload, ma.Name, ma.Value, mb.Value, 100*diff, bound, verdict)
			}
		}
	}
	return ok, nil
}

func passFail(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
