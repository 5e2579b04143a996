package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// machine is the fingerprint every result file carries: numbers from two
// files compare only when these agree.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func fingerprint() machine {
	m := machine{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	// The go tool stamps the revision into the binary when it is built
	// inside a git checkout; an exported tree has none.
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		m.Commit += dirty
	}
	return m
}

// resetPeakRSS returns freed heap to the system and asks the kernel to start
// the resident-set high-water mark afresh, so that when one process runs
// several workloads each reports its own peak. Best effort: where the
// kernel refuses, a later workload reports the highest peak so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads a process's resident-set high-water mark (VmHWM) from
// /proc; pid 0 means this process.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
