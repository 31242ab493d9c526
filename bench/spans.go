package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Op;
// Parent is the ID of the span that caused this one (0 for the op's root).
type span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Time
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the untraced run pays one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID (0 when not recording).
func (r *recorder) add(name string, start, end time.Time, parent, op int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover, and returns that with the summed duration of the
// roots. A child is clipped to its parent and to the end of the sibling
// before it, so time that overlapping siblings share (the four exec spans
// of a 4-vector request) is counted once and the self times add up to the
// root total exactly.
func (r *recorder) selfTimes() (self map[string]time.Duration, roots time.Duration) {
	self = map[string]time.Duration{}
	if r == nil {
		return self, 0
	}
	children := map[int][]span{}
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var walk func(s span, from, to time.Time)
	walk = func(s span, from, to time.Time) {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		own, edge := to.Sub(from), from
		for _, k := range kids {
			kf, kt := k.Start, k.End
			if kf.Before(edge) {
				kf = edge
			}
			if kt.After(to) {
				kt = to
			}
			if kt.After(kf) {
				walk(k, kf, kt)
				own -= kt.Sub(kf)
				edge = kt
			}
		}
		self[s.Name] += own
	}
	for _, root := range children[0] {
		walk(root, root.Start, root.End)
		roots += root.End.Sub(root.Start)
	}
	return self, roots
}

// writeChrome writes the spans as Chrome trace events (one track per op),
// loadable in Perfetto or chrome://tracing.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	if len(r.spans) > 0 {
		epoch := r.spans[0].Start
		for _, s := range r.spans {
			if s.Start.Before(epoch) {
				epoch = s.Start
			}
		}
		for _, s := range r.spans {
			events = append(events, event{
				Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op,
				Ts: us(s.Start.Sub(epoch)), Dur: us(s.End.Sub(s.Start)),
				Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
