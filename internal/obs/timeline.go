package obs

import "pimsim/internal/hbm"

// TimelineConfig sizes a simulator Timeline and carries the timing facts
// the Chrome exporter needs to paint command occupancy: slice durations
// per command kind (in cycles — visualization widths, derived from the
// device's JEDEC timing, never fed back into the simulation) and the
// cycle-to-wall conversion.
type TimelineConfig struct {
	Channels      int     // pseudo channels (one event buffer each)
	MaxPerChannel int     // command-event cap per channel (default 1<<18)
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
		c.MaxPerChannel = 1 << 18
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

// Timeline is the simulator-side trace sink: one ChannelTimeline per
// pseudo channel. Recording is lock free because each channel's buffer
// has exactly one writer (the goroutine driving that channel, per the
// ownership model of the runtime's engines); export happens only after
// the kernel quiesces.
type Timeline struct {
	cfg   TimelineConfig
	chans []*ChannelTimeline
}

// NewTimeline allocates a timeline for cfg.Channels channels.
func NewTimeline(cfg TimelineConfig) *Timeline {
	cfg.applyDefaults()
	tl := &Timeline{cfg: cfg, chans: make([]*ChannelTimeline, cfg.Channels)}
	for i := range tl.chans {
		tl.chans[i] = &ChannelTimeline{id: i, max: cfg.MaxPerChannel}
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

// Channel returns channel i's buffer (nil if out of range, which keeps
// the hook nil-safe on misconfigured wiring).
func (t *Timeline) Channel(i int) *ChannelTimeline {
	if t == nil || i < 0 || i >= len(t.chans) {
		return nil
	}
	return t.chans[i]
}

// Events returns the total recorded event count across channels.
func (t *Timeline) Events() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, c := range t.chans {
		n += len(c.cmds) + len(c.modes) + len(c.pims)
	}
	return n
}

// Dropped returns how many command events hit a full buffer and were
// discarded (the bound keeps long sweeps from eating the heap; exporters
// surface the loss instead of silently truncating).
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

// ChannelTimeline is one channel's event buffers. All record methods are
// nil-receiver safe — the memctrl/pim hooks call through a possibly-nil
// field — and drop (counting) rather than grow past the cap.
type ChannelTimeline struct {
	id      int
	max     int
	cmds    []CmdEvent
	modes   []ModeEvent
	pims    []PIMEvent
	dropped int64
}

// Reset truncates the channel's event buffers in place (capacity kept)
// and clears the drop counter.
func (c *ChannelTimeline) Reset() {
	if c == nil {
		return
	}
	c.cmds = c.cmds[:0]
	c.modes = c.modes[:0]
	c.pims = c.pims[:0]
	c.dropped = 0
}

// Cmd records one issued command.
func (c *ChannelTimeline) Cmd(cycle int64, kind string, bg, bank int, row, col uint32, broadcast bool) {
	if c == nil {
		return
	}
	if len(c.cmds) >= c.max {
		c.dropped++
		return
	}
	c.cmds = append(c.cmds, CmdEvent{
		Cycle: cycle, Kind: kind,
		BG: int16(bg), Bank: int16(bank), Row: row, Col: col,
		Broadcast: broadcast,
	})
}

// ModeChange records the channel entering mode at cycle.
func (c *ChannelTimeline) ModeChange(cycle int64, mode string) {
	if c == nil {
		return
	}
	if len(c.modes) >= c.max {
		c.dropped++
		return
	}
	c.modes = append(c.modes, ModeEvent{Cycle: cycle, Mode: mode})
}

// PIMInstr records one trigger's retired instruction count at cycle.
func (c *ChannelTimeline) PIMInstr(cycle int64, instr int) {
	if c == nil {
		return
	}
	if len(c.pims) >= c.max {
		c.dropped++
		return
	}
	c.pims = append(c.pims, PIMEvent{Cycle: cycle, Instr: int32(instr)})
}

// Cmds exposes the recorded command events (tests and exporters).
func (c *ChannelTimeline) Cmds() []CmdEvent {
	if c == nil {
		return nil
	}
	return c.cmds
}

// Modes exposes the recorded mode transitions.
func (c *ChannelTimeline) Modes() []ModeEvent {
	if c == nil {
		return nil
	}
	return c.modes
}

// PIMs exposes the recorded trigger events.
func (c *ChannelTimeline) PIMs() []PIMEvent {
	if c == nil {
		return nil
	}
	return c.pims
}
