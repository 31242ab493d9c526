package obs

import (
	"pimsim/internal/hbm"
	"pimsim/internal/trace"
)

// TimelineConfig sizes a simulator Timeline and carries the timing facts
// the Chrome exporter needs to paint command occupancy: slice durations
// per command kind (in cycles — visualization widths, derived from the
// device's JEDEC timing, never fed back into the simulation) and the
// cycle-to-wall conversion.
type TimelineConfig struct {
	Channels      int     // pseudo channels (one Log each)
	MaxPerChannel int     // record cap per channel's Log (default 1<<18)
	NsPerCycle    float64 // tCK in ns (default 1: export in "cycle" units)
	BankGroups    int     // geometry for the per-bank row tracks
	BanksPerGroup int
	ActCycles     int64 // slice widths per command kind
	PreCycles     int64
	RdCycles      int64
	WrCycles      int64
	RefCycles     int64
}

func (c *TimelineConfig) applyDefaults() {
	if c.Channels <= 0 {
		c.Channels = 1
	}
	if c.MaxPerChannel <= 0 {
		c.MaxPerChannel = defaultMaxRecords
	}
	if c.NsPerCycle <= 0 {
		c.NsPerCycle = 1
	}
}

// FromHBM derives a TimelineConfig from a device configuration: command
// slice widths from the JEDEC timing (ACT occupies tRCD, PRE tRP, column
// commands their latency plus the data burst, REF tRFC) and the wall
// clock from tCK. maxPerChannel <= 0 takes the default cap.
func FromHBM(cfg hbm.Config, channels, maxPerChannel int) *Timeline {
	t := cfg.Timing
	return NewTimeline(TimelineConfig{
		Channels:      channels,
		MaxPerChannel: maxPerChannel,
		NsPerCycle:    float64(t.TCKps) / 1000,
		BankGroups:    cfg.BankGroups,
		BanksPerGroup: cfg.BanksPerGroup,
		ActCycles:     int64(t.RCD),
		PreCycles:     int64(t.RP),
		RdCycles:      int64(t.RL + t.DataCycles()),
		WrCycles:      int64(t.WL + t.DataCycles()),
		RefCycles:     int64(t.RFC),
	})
}

// Timeline is the simulator-side trace sink: one Log per pseudo
// channel. Recording is lock free because each channel's log has exactly
// one writer (the goroutine driving that channel, per the ownership model
// of the runtime's engines); export happens only after the kernel
// quiesces.
type Timeline struct {
	cfg   TimelineConfig
	chans []*Log
}

// NewTimeline allocates a timeline for cfg.Channels channels.
func NewTimeline(cfg TimelineConfig) *Timeline {
	cfg.applyDefaults()
	tl := &Timeline{cfg: cfg, chans: make([]*Log, cfg.Channels)}
	for i := range tl.chans {
		tl.chans[i] = NewLog(i, cfg.MaxPerChannel, false)
	}
	return tl
}

// Reset discards all recorded events while keeping every channel's
// buffer capacity, so a long-lived Timeline (benchmark harnesses,
// repeated sweeps) records run after run without reallocating — growing
// the buffers from scratch costs megabytes per run.
func (t *Timeline) Reset() {
	if t == nil {
		return
	}
	for _, c := range t.chans {
		c.Reset()
	}
}

// Channel returns channel i's log (nil if out of range, which keeps the
// hook nil-safe on misconfigured wiring).
func (t *Timeline) Channel(i int) *Log {
	if t == nil || i < 0 || i >= len(t.chans) {
		return nil
	}
	return t.chans[i]
}

// Events returns the total event count the channels' logs expand to.
func (t *Timeline) Events() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, c := range t.chans {
		n += c.events()
	}
	return n
}

// Dropped returns how many events hit a full log and were discarded (the
// bound keeps long sweeps from eating the heap; exporters surface the
// loss instead of silently truncating).
func (t *Timeline) Dropped() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for _, c := range t.chans {
		n += c.dropped
	}
	return n
}

// CmdEvent is one issued DRAM command at its exact simulated cycle.
type CmdEvent struct {
	Cycle     int64
	Row, Col  uint32
	Kind      string // constant string from hbm.CmdKind.String()
	BG, Bank  int16
	Broadcast bool // issued while the channel was in an all-bank mode
}

// ModeEvent marks the channel entering Mode at Cycle.
type ModeEvent struct {
	Cycle int64
	Mode  string
}

// PIMEvent is one AB-PIM trigger: Instr instructions retired across the
// channel's units at Cycle (the exporter's PIM-activity counter track).
type PIMEvent struct {
	Cycle int64
	Instr int32
}

// defaultMaxRecords is a Log's record cap when none is given.
const defaultMaxRecords = 1 << 18

// record is one run in a channel's Log: N events of one kind, event i at
// cycle First + i*Stride. A command record's event i is the command at
// column Col+i (a row command or a refresh is a record of one); every
// command but the last leaves the channel in mode Before and the last in
// mode After, since only a run's last command can switch the mode. A PIM
// record's events are AB-PIM triggers that each retired Instr
// instructions across the channel's units.
type record struct {
	First, Stride int64
	N, Instr      int32
	Row, Col      uint32
	BG, Bank      int16
	Kind          hbm.CmdKind
	PIM           bool
	Before, After hbm.Mode
}

func (r *record) cycle(i int32) int64 { return r.First + int64(i)*r.Stride }

// Log is one channel's command log: the run records its memctrl channel
// (commands, the refresh machinery's included) and its PIM executor
// (retired triggers) wrote, in order, expanded on demand by its readers.
// It keeps its first max records and drops any record past them whole,
// or, as a ring, keeps its last max. Dropped counts the events of the
// records it no longer holds. One writer, no locks.
type Log struct {
	id, max int
	ring    bool
	head    int // the oldest record's index (a full ring wraps)
	recs    []record
	dropped int64
}

// NewLog returns channel id's log of at most max records (max <= 0: the
// default cap), keeping the last ones when ring is set: at least the last
// max commands when only commands are logged.
func NewLog(id, max int, ring bool) *Log {
	if max <= 0 {
		max = defaultMaxRecords
	}
	return &Log{id: id, max: max, ring: ring}
}

// Reset truncates the log in place (capacity kept) and clears the drop
// counter.
func (l *Log) Reset() {
	if l != nil {
		l.recs, l.head, l.dropped = l.recs[:0], 0, 0
	}
}

// Dropped returns how many events the log discarded.
func (l *Log) Dropped() int64 { return l.dropped }

// Commands logs a run of n commands like cmd, command i at column
// cmd.Col+i issued at cycle first+i*stride; before is the mode every
// command but the last leaves the channel in, after the mode the last
// does.
func (l *Log) Commands(cmd *hbm.Command, first, stride int64, n int, before, after hbm.Mode) {
	l.add(record{First: first, Stride: stride, N: int32(n), Row: cmd.Row, Col: cmd.Col,
		BG: int16(cmd.BG), Bank: int16(cmd.Bank), Kind: cmd.Kind, Before: before, After: after})
}

// PIM logs n triggers from cycle first, stride apart, each of which
// retired instr instructions across the channel's units. Triggers that
// continue the last record's progression with its count extend it.
func (l *Log) PIM(first, stride int64, n, instr int) {
	if len(l.recs) > 0 {
		last := &l.recs[len(l.recs)-1]
		if l.head > 0 { // a wrapped ring: the newest record precedes the oldest
			last = &l.recs[l.head-1]
		}
		if last.PIM && last.Instr == int32(instr) {
			gap := first - last.cycle(last.N-1)
			if last.N == 1 {
				last.Stride = gap
			}
			if gap == last.Stride && (n == 1 || stride == gap) {
				last.N += int32(n)
				return
			}
		}
	}
	l.add(record{First: first, Stride: stride, N: int32(n), Instr: int32(instr), PIM: true})
}

// add appends r, or drops it (a full log) or the oldest record (a full
// ring).
func (l *Log) add(r record) {
	switch {
	case len(l.recs) < l.max:
		l.recs = append(l.recs, r)
	case l.ring:
		l.dropped += int64(l.recs[l.head].N)
		l.recs[l.head] = r
		l.head = (l.head + 1) % l.max
	default:
		l.dropped += int64(r.N)
	}
}

// each calls f for every record of the log, in the order they were
// logged.
func (l *Log) each(f func(r *record)) {
	if l == nil {
		return
	}
	for _, part := range [2][]record{l.recs[l.head:], l.recs[:l.head]} {
		for i := range part {
			f(&part[i])
		}
	}
}

// eachMode calls f for every mode transition the logged commands make:
// the cycle of the first command that leaves the channel in a new mode,
// and that mode. The channel starts in SB.
func (l *Log) eachMode(f func(at int64, m hbm.Mode)) {
	cur := hbm.ModeSB
	l.each(func(r *record) {
		if r.PIM {
			return
		}
		if r.N > 1 && r.Before != cur {
			cur = r.Before
			f(r.First, cur)
		}
		if r.After != cur {
			cur = r.After
			f(r.cycle(r.N-1), cur)
		}
	})
}

// events counts the events the log expands to, without expanding it.
func (l *Log) events() int {
	n := 0
	l.each(func(r *record) { n += int(r.N) })
	l.eachMode(func(int64, hbm.Mode) { n++ })
	return n
}

// Cmds expands the log's command records into one event per command.
func (l *Log) Cmds() []CmdEvent {
	var out []CmdEvent
	l.each(func(r *record) {
		for i := int32(0); i < r.N && !r.PIM; i++ {
			mode := r.Before
			if i == r.N-1 {
				mode = r.After
			}
			out = append(out, CmdEvent{Cycle: r.cycle(i), Kind: r.Kind.String(), BG: r.BG, Bank: r.Bank,
				Row: r.Row, Col: r.Col + uint32(i), Broadcast: mode != hbm.ModeSB})
		}
	})
	return out
}

// TraceEvents expands the log's command records into the trace text
// format's events, labelled with the log's channel.
func (l *Log) TraceEvents() []trace.Event {
	var out []trace.Event
	l.each(func(r *record) {
		for i := int32(0); i < r.N && !r.PIM; i++ {
			out = append(out, trace.Event{Cycle: r.cycle(i), Channel: l.id, Kind: r.Kind,
				BG: int(r.BG), Bank: int(r.Bank), Row: r.Row, Col: r.Col + uint32(i)})
		}
	})
	return out
}

// Modes expands the log into its mode transitions.
func (l *Log) Modes() []ModeEvent {
	var out []ModeEvent
	l.eachMode(func(at int64, m hbm.Mode) { out = append(out, ModeEvent{Cycle: at, Mode: m.String()}) })
	return out
}

// PIMs expands the log's PIM records into one event per trigger.
func (l *Log) PIMs() []PIMEvent {
	var out []PIMEvent
	l.each(func(r *record) {
		for i := int32(0); i < r.N && r.PIM; i++ {
			out = append(out, PIMEvent{Cycle: r.cycle(i), Instr: r.Instr})
		}
	})
	return out
}
