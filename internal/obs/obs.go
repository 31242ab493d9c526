// Package obs is the observability layer of the stack: a dual-clock
// tracing subsystem that spans both the serving stack (wall-clock request
// spans) and the cycle-level simulator (sim-cycle command timelines).
//
// Two sinks, both behind nil-checked hooks in the style of internal/fault
// (a disabled hook costs one pointer compare and zero allocations, and is
// invisible to the determinism goldens — the trace observes, never
// perturbs):
//
//   - Tracer is a bounded ring-buffer flight recorder of Spans. The
//     serving stack starts a root span per HTTP request (carrying the
//     request ID that the X-Request-ID response header returns), and
//     hangs queue/batch/exec children plus instant events (re-dispatches,
//     driver allocations) off it, so one slow request reconstructs as a
//     span tree. A slow-request hook fires with the full tree whenever a
//     root span exceeds a latency threshold.
//
//   - Timeline is the simulator-side sink: one command Log per channel,
//     run records of DRAM command issues and PIM trigger retirements at
//     exact simulated cycles, written by the memctrl and pim layers and
//     expanded on demand into commands, mode windows (SB / AB / AB-PIM)
//     and per-trigger instruction counts. One writer per channel (the
//     ownership model of the runtime's engines), so recording takes no
//     locks.
//
// Both sinks export Chrome trace-event JSON (WriteSpans, WriteChrome)
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing —
// one process per pseudo channel with command/mode/bank-row/PIM-counter
// tracks, one process for the serving stack with a track per shard. See
// docs/OBSERVABILITY.md.
package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within a Tracer. IDs are never reused; 0 is
// reserved for "no parent".
type SpanID uint64

// Span is one completed operation in the flight recorder. Start/End are
// wall clock; Cycles carries the simulated-cycle cost when the operation
// wraps a kernel launch (the dual-clock part).
type Span struct {
	ID     SpanID    `json:"id"`
	Parent SpanID    `json:"parent,omitempty"`
	Req    string    `json:"req,omitempty"` // request ID the span belongs to
	Name   string    `json:"name"`
	Shard  int       `json:"shard"` // -1 when not bound to a shard
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Cycles int64     `json:"cycles,omitempty"` // simulated cycles (kernel spans)
	Attrs  string    `json:"attrs,omitempty"`  // free-form "k=v k=v" details
	Err    string    `json:"err,omitempty"`
}

// Duration returns the span's wall-clock duration.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Instant reports whether the span is a point event (Event).
func (s Span) Instant() bool { return s.End.Equal(s.Start) }

// Tracer is a bounded ring-buffer flight recorder. All methods are safe
// for concurrent use, and every method on a nil *Tracer (and on the zero
// SpanHandle) is a no-op — callers hook it behind a single field and
// never branch.
type Tracer struct {
	seq atomic.Uint64

	mu    sync.Mutex
	ring  []Span // fixed capacity, preallocated
	next  int    // ring write cursor
	full  bool
	total int64

	slowThresh time.Duration
	onSlow     func(tree []Span)
}

// NewTracer returns a flight recorder keeping the newest capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{ring: make([]Span, 0, capacity)}
}

// SetSlow arms the slow-request hook: whenever a root span (no parent)
// ends with a duration of at least threshold, fn is called synchronously
// with the request's span tree (root first, every recorded span sharing
// its request ID). Call before serving traffic.
func (t *Tracer) SetSlow(threshold time.Duration, fn func(tree []Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slowThresh, t.onSlow = threshold, fn
	t.mu.Unlock()
}

// Start opens a root span for a request. On a nil Tracer the returned
// handle is inert: every operation on it is a no-op.
func (t *Tracer) Start(req, name string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{
		t:     t,
		id:    SpanID(t.seq.Add(1)),
		req:   req,
		name:  name,
		shard: -1,
		start: time.Now(),
	}
}

// Event records an instant event (zero-duration span) — a re-dispatch, a
// driver allocation — attached to a request ID.
func (t *Tracer) Event(req, name, attrs string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.record(Span{
		ID:    SpanID(t.seq.Add(1)),
		Req:   req,
		Name:  name,
		Shard: -1,
		Start: now,
		End:   now,
		Attrs: attrs,
	})
}

// record appends one finished span to the ring, evicting the oldest.
func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next] = sp
		t.full = true
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	t.mu.Unlock()
}

// Snapshot copies the recorded spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if t.full {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Total returns how many spans were ever recorded (including evicted).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Tree returns every recorded span belonging to req, roots first (then
// recording order) — the reconstruction of one request's life.
func (t *Tracer) Tree(req string) []Span {
	if t == nil || req == "" {
		return nil
	}
	all := t.Snapshot()
	out := make([]Span, 0, 8)
	for _, sp := range all {
		if sp.Req == req && sp.Parent == 0 && !sp.Instant() {
			out = append(out, sp)
		}
	}
	for _, sp := range all {
		if sp.Req == req && !(sp.Parent == 0 && !sp.Instant()) {
			out = append(out, sp)
		}
	}
	return out
}

// SpanHandle is an open span. It is a value (no allocation to create),
// and the zero handle — returned by a nil Tracer — ignores every call.
type SpanHandle struct {
	t      *Tracer
	id     SpanID
	parent SpanID
	req    string
	name   string
	shard  int32
	start  time.Time
}

// Enabled reports whether the handle records anywhere. Callers use it to
// skip building attribute strings when tracing is off.
func (h SpanHandle) Enabled() bool { return h.t != nil }

// Child opens a sub-span under h with the same request ID.
func (h SpanHandle) Child(name string) SpanHandle {
	if h.t == nil {
		return SpanHandle{}
	}
	return SpanHandle{
		t:      h.t,
		id:     SpanID(h.t.seq.Add(1)),
		parent: h.id,
		req:    h.req,
		name:   name,
		shard:  h.shard,
		start:  time.Now(),
	}
}

// WithShard labels the span with the shard it executed on.
func (h SpanHandle) WithShard(shard int) SpanHandle {
	h.shard = int32(shard)
	return h
}

// End closes the span cleanly.
func (h SpanHandle) End() { h.finish(0, "", nil) }

// EndWith closes the span with a simulated-cycle cost and detail attrs.
func (h SpanHandle) EndWith(cycles int64, attrs string, err error) {
	h.finish(cycles, attrs, err)
}

func (h SpanHandle) finish(cycles int64, attrs string, err error) {
	if h.t == nil {
		return
	}
	sp := Span{
		ID:     h.id,
		Parent: h.parent,
		Req:    h.req,
		Name:   h.name,
		Shard:  int(h.shard),
		Start:  h.start,
		End:    time.Now(),
		Cycles: cycles,
		Attrs:  attrs,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	t := h.t
	t.record(sp)
	// Slow-request hook: only root spans qualify, and the tree is
	// collected after the root lands in the ring so it includes itself.
	if h.parent == 0 {
		t.mu.Lock()
		thresh, fn := t.slowThresh, t.onSlow
		t.mu.Unlock()
		if fn != nil && thresh > 0 && sp.Duration() >= thresh {
			fn(t.Tree(h.req))
		}
	}
}

// Request IDs: unique within a process, prefixed with a boot-time salt so
// IDs from different server runs don't collide in aggregated logs.
var (
	reqSalt = func() uint32 {
		var b [4]byte
		if _, err := crand.Read(b[:]); err != nil {
			return uint32(time.Now().UnixNano())
		}
		return binary.LittleEndian.Uint32(b[:])
	}()
	reqSeq atomic.Uint64
)

// NewRequestID returns a fresh request ID ("<salt>-<seq>" in hex). It is
// independent of any Tracer: the X-Request-ID header and the access log
// carry request IDs even with the flight recorder disabled.
func NewRequestID() string {
	return fmt.Sprintf("%08x-%06x", reqSalt, reqSeq.Add(1)&0xffffff)
}
