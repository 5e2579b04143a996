package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, recorded from
// outside the program. Times are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	ID     int    `json:"id"`     // live round or service request the span belongs to
}

// recorder keeps spans in memory until the run ends. A nil recorder, or one
// switched off, records nothing: begin returns -1 and end ignores it, so
// call sites need no branches.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	on    bool
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), on: true} }

func (r *recorder) begin(name string, parent, id int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, ID: id})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].End = int64(time.Since(r.epoch))
	r.mu.Unlock()
}

// enable switches recording on or off; spans begun while off stay dropped.
func (r *recorder) enable(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// spanTotals is one row of the per-name summary: how often a span name
// occurred, its summed duration, and its summed self time.
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// summarizeSpans groups spans by name, in order of first appearance.
func summarizeSpans(spans []span) []spanTotals {
	self := selfTimes(spans)
	index := make(map[string]int)
	var rows []spanTotals
	for i, s := range spans {
		j, ok := index[s.Name]
		if !ok {
			j = len(rows)
			index[s.Name] = j
			rows = append(rows, spanTotals{Name: s.Name})
		}
		rows[j].Count++
		rows[j].TotalMs += float64(s.End-s.Start) / 1e6
		rows[j].SelfMs += float64(self[i]) / 1e6
	}
	return rows
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Summary  []spanTotals `json:"summary"`
	Spans    []span       `json:"spans"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
