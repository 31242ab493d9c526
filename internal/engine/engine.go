// Package engine provides the execution engines that drive per-pseudo-
// channel kernel work. Every pseudo channel is an independent machine —
// its own clock, banks, PIM units, counters and timeline buffer —
// so a kernel's per-channel command streams can run in any order, or
// concurrently, and produce bit-for-bit identical state. The engine is
// the policy layer that picks the order: Serial replays channels one
// after another on the caller's goroutine (the determinism oracle),
// Parallel dispatches each channel to a persistent worker pinned to it.
//
// The join point at the end of Run is the cycle barrier: no caller
// observes channel state until every channel's stream has quiesced, so
// cross-channel reads (metrics collection, result readout) always see a
// consistent frontier.
package engine

import (
	"fmt"
	"strings"
	"sync"
)

// Engine runs one kernel's channel work. Implementations are not safe
// for concurrent Run calls on the same value: a kernel owns its runtime
// (and therefore its engine) for the duration of a launch, mirroring
// how a leased shard owns its channels.
type Engine interface {
	// Run invokes fn(ch) for every ch in [0, n) and returns only after
	// all invocations finished (the result-join barrier). The error
	// reported is the lowest-channel error, matching the sequential
	// engine's "first error wins" order.
	Run(n int, fn func(ch int) error) error
	// Name identifies the engine for flags and logs.
	Name() string
	// Close releases engine resources (worker goroutines). Run must not
	// be called after Close. Close is idempotent.
	Close()
}

// Names lists the valid engine names, in the order flags document them.
func Names() []string { return []string{"serial", "parallel"} }

// Validate rejects anything that is not a known engine name. Commands
// call it right after flag parsing so a typo'd -engine fails before any
// device setup, not halfway through shard construction.
func Validate(name string) error {
	for _, n := range Names() {
		if name == n {
			return nil
		}
	}
	return fmt.Errorf("engine: unknown engine %q (valid engines: %s)", name, strings.Join(Names(), ", "))
}

// New builds an engine by name: "serial" or "parallel". workers sizes
// the parallel pool (one worker per pseudo channel the system can run).
func New(name string, workers int) (Engine, error) {
	if err := Validate(name); err != nil {
		return nil, err
	}
	if name == "parallel" {
		return NewParallel(workers), nil
	}
	return Serial{}, nil
}

// Serial runs channels in index order on the caller's goroutine and
// stops at the first error. It is the reference ordering every other
// engine must be indistinguishable from.
type Serial struct{}

// Run implements Engine.
func (Serial) Run(n int, fn func(ch int) error) error {
	for ch := 0; ch < n; ch++ {
		if err := fn(ch); err != nil {
			return err
		}
	}
	return nil
}

// Name implements Engine.
func (Serial) Name() string { return "serial" }

// Close implements Engine.
func (Serial) Close() {}

// Parallel is a worker-per-pCH goroutine pool. Worker i owns channel i
// for the lifetime of the engine, so all of a channel's mutations happen
// on one goroutine and the per-channel single-writer contracts (metrics
// shards, timeline buffers, device scratch) hold without locks. Workers
// are persistent: dispatch is a channel send, not a goroutine spawn, so
// the serve path's many small kernels do not pay creation cost.
type Parallel struct {
	tasks []chan func(ch int) error
	errs  []error
	wg    sync.WaitGroup
	done  bool
}

// NewParallel builds a pool of `workers` pinned workers (grown on demand
// if a Run asks for more channels).
func NewParallel(workers int) *Parallel {
	p := &Parallel{}
	p.grow(workers)
	return p
}

func (p *Parallel) grow(n int) {
	for len(p.tasks) < n {
		ch := len(p.tasks)
		t := make(chan func(int) error, 1)
		p.tasks = append(p.tasks, t)
		p.errs = append(p.errs, nil)
		go p.worker(ch, t)
	}
}

func (p *Parallel) worker(ch int, t <-chan func(int) error) {
	for fn := range t {
		p.errs[ch] = fn(ch)
		p.wg.Done()
	}
}

// Run implements Engine. A single-channel kernel (the timing-only
// SimChannels=1 path) runs inline: there is nothing to overlap and the
// dispatch round trip would only add latency.
func (p *Parallel) Run(n int, fn func(ch int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return fn(0)
	}
	p.grow(n)
	p.wg.Add(n)
	for ch := 0; ch < n; ch++ {
		p.tasks[ch] <- fn
	}
	p.wg.Wait() // the cycle barrier: all channels quiesced
	var first error
	for ch := 0; ch < n; ch++ {
		if p.errs[ch] != nil && first == nil {
			first = p.errs[ch]
		}
		p.errs[ch] = nil
	}
	return first
}

// Name implements Engine.
func (p *Parallel) Name() string { return "parallel" }

// Close implements Engine.
func (p *Parallel) Close() {
	if p.done {
		return
	}
	p.done = true
	for _, t := range p.tasks {
		close(t)
	}
}
