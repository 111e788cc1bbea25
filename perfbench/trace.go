package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// traced request started; Parent is the enclosing span's ID (-1 for the
// root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the spans of one traced request in memory. It is safe
// for concurrent use: parallel workers record their spans under the span
// that started them.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

// rootID is the ID of the request span every traced run opens first.
const rootID = 0

func newTracer() *tracer { return &tracer{base: time.Now()} }

// do runs f inside a span named name under parent; f receives the new
// span's ID so it can open children.
func (t *tracer) do(parent int, name string, f func(id int) error) error {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.base))})
	t.mu.Unlock()
	err := f(id)
	end := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
	return err
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// attribute splits the root span's wall time among span names: every
// instant goes to the innermost spans open at that instant, shared
// equally when parallel workers are inside spans of different names.
// Parallel spans of the same name count once, so the result is wall time,
// not busy time, and its values sum to the root span's duration.
func attribute(spans []span) map[string]float64 {
	bounds := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		bounds = append(bounds, s.Start, s.End)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	out := map[string]float64{}
	open := make([]bool, len(spans))
	hasOpenChild := make([]bool, len(spans))
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi == lo {
			continue
		}
		for j, s := range spans {
			open[j] = s.Start <= lo && s.End >= hi
			hasOpenChild[j] = false
		}
		for j, s := range spans {
			if open[j] && s.Parent >= 0 {
				hasOpenChild[s.Parent] = true
			}
		}
		var names []string
		for j, s := range spans {
			if open[j] && !hasOpenChild[j] && !contains(names, s.Name) {
				names = append(names, s.Name)
			}
		}
		for _, n := range names {
			out[n] += float64(hi-lo) / 1e9 / float64(len(names))
		}
	}
	return out
}

// total sums the durations of every span named name, in seconds.
func total(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
