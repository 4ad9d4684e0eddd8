package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls. Parent links a span to the
// span that caused it (0 = none); Job groups the spans of one job or
// request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out when the run
// ends. A nil recorder records nothing, so untimed helpers can share
// code with traced ones.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span and returns its ID.
func (r *recorder) start(name string, parent int, job string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Job: job, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.dur()
}

// add records an already measured span (the server's own stages).
func (r *recorder) add(name string, parent int, job string, start time.Time, d time.Duration, note string) int {
	if r == nil {
		return 0
	}
	st := start.Sub(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Job: job,
		Start: st, End: st + d.Nanoseconds(), Note: note})
	return len(r.spans)
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// layerTotal is the time spent in one span name: Total sums the spans'
// durations, Self subtracts the time their child spans cover.
type layerTotal struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// totals sums every span name's total and self time.
func (r *recorder) totals() []layerTotal {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent > 0 && s.End >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	by := map[string]*layerTotal{}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		t := by[s.Name]
		if t == nil {
			t = &layerTotal{Name: s.Name}
			by[s.Name] = t
		}
		t.Count++
		t.Total += ms(s.dur())
		t.Self += ms(s.dur() - child[s.ID])
	}
	out := make([]layerTotal, 0, len(by))
	for _, name := range sortedKeys(by) {
		out = append(out, *by[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// write saves the provenance, the per-name totals and every span.
func (r *recorder) write(path string, prov *provenance) error {
	doc := struct {
		Provenance *provenance  `json:"provenance"`
		Layers     []layerTotal `json:"layers"`
		Spans      []span       `json:"spans"`
	}{prov, r.totals(), r.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
