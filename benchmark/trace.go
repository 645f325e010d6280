package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test carries no instrumentation yet). Spans
// of one operation share Op; Parent is the index of the enclosing span in
// the tracer's slice, or -1 for the operation's root span.
type span struct {
	Name   string `json:"name"`   // "<layer>.<call>", e.g. "bsql.parse"
	Op     int    `json:"op"`     // operation id within the traced run
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run calls the same helpers for free.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// layerOf returns the layer (module) part of a span name.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children of one span are recorded
// by one goroutine one after another, but the computation does not rely on
// that: overlapping children are merged before subtracting, so a covered
// nanosecond is subtracted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, curStart, curEnd int64
		curStart, curEnd = -1, -1
		for _, k := range kids {
			ks, ke := spans[k].Start, spans[k].End
			if ks < s.Start {
				ks = s.Start
			}
			if ke > s.End {
				ke = s.End
			}
			if ke <= ks {
				continue
			}
			if curEnd < 0 || ks > curEnd {
				if curEnd >= 0 {
					covered += curEnd - curStart
				}
				curStart, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		if curEnd >= 0 {
			covered += curEnd - curStart
		}
		self[i] -= covered
	}
	return self
}

// layerSelf sums self time per layer and returns it with the total
// duration of the root spans, in nanoseconds.
func layerSelf(spans []span) (byLayer map[string]int64, rootTotal int64) {
	self := selfTimes(spans)
	byLayer = make(map[string]int64)
	for i, s := range spans {
		byLayer[layerOf(s.Name)] += self[i]
		if s.Parent < 0 {
			rootTotal += s.End - s.Start
		}
	}
	return byLayer, rootTotal
}

// spanMedianUS returns the median duration, in microseconds, of the spans
// with the given name, and how many there were.
func spanMedianUS(spans []span, name string) (float64, int) {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e3)
		}
	}
	return median(ds), len(ds)
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Note        string           `json:"note"`
	LayerSelfNS map[string]int64 `json:"layer_self_ns"`
	RootTotalNS int64            `json:"root_total_ns"`
	Spans       []span           `json:"spans"`
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	byLayer, total := layerSelf(t.spans)
	f := traceFile{
		Workload:    workload,
		Seed:        seed,
		Note:        "times are ns since the start of the traced phase; self time = span minus the interval covered by its children; layer = name up to the first dot",
		LayerSelfNS: byLayer,
		RootTotalNS: total,
		Spans:       t.spans,
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
