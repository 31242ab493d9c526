package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Chrome trace-event export. The JSON object format — {"traceEvents":
// [...]} with ph "X" complete slices (ts/dur in microseconds), ph "M"
// metadata, ph "C" counters, ph "i" instants — loads directly in Perfetto
// (https://ui.perfetto.dev) and chrome://tracing.

// chromeEvent is one trace event. Dur uses a pointer so metadata and
// counter events omit it without dropping a legitimate dur of 0.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func durp(d float64) *float64 { return &d }

func meta(name string, pid, tid int, value any) chromeEvent {
	return chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": value}}
}

// Thread (track) IDs within each channel's process.
const (
	tidCmds     = 0 // every issued command, painted with its timing width
	tidMode     = 1 // SB / AB / AB-PIM occupancy windows
	tidPIM      = 2 // retired-PIM-instructions counter track
	tidBankBase = 8 // + flat bank index: per-bank open-row windows
)

// WriteChrome exports the timeline as Chrome trace-event JSON: one
// process per pseudo channel, with a command track, a mode-window track,
// a PIM-instruction counter track and one open-row track per bank.
func (t *Timeline) WriteChrome(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteChrome on a nil timeline")
	}
	var evs []chromeEvent
	for _, c := range t.chans {
		evs = t.appendChannel(evs, c)
	}
	return json.NewEncoder(w).Encode(chromeFile{TraceEvents: evs})
}

// tsUs converts a simulated cycle to trace microseconds.
func (t *Timeline) tsUs(cycle int64) float64 {
	return float64(cycle) * t.cfg.NsPerCycle / 1000
}

func (t *Timeline) kindDur(kind string) int64 {
	var d int64
	switch kind {
	case "ACT":
		d = t.cfg.ActCycles
	case "PRE", "PREA":
		d = t.cfg.PreCycles
	case "RD":
		d = t.cfg.RdCycles
	case "WR":
		d = t.cfg.WrCycles
	case "REF":
		d = t.cfg.RefCycles
	}
	if d <= 0 {
		d = 1
	}
	return d
}

func (t *Timeline) appendChannel(evs []chromeEvent, c *Log) []chromeEvent {
	if len(c.recs) == 0 {
		return evs
	}
	cmds, modes, pims := c.Cmds(), c.Modes(), c.PIMs()
	pid := c.id
	evs = append(evs,
		meta("process_name", pid, 0, fmt.Sprintf("pCH%d", c.id)),
		meta("thread_name", pid, tidCmds, "commands"),
	)

	// The horizon closes every still-open window (modes, bank rows). Every
	// mode transition is at a command's cycle, so the commands bound it.
	var horizon int64
	for _, e := range cmds {
		if end := e.Cycle + t.kindDur(e.Kind); end > horizon {
			horizon = end
		}
	}
	for _, e := range pims {
		if e.Cycle > horizon {
			horizon = e.Cycle
		}
	}
	horizon++

	// Command track: every issue as a complete slice with its timing width.
	for _, e := range cmds {
		evs = append(evs, chromeEvent{
			Name: e.Kind, Ph: "X",
			Ts: t.tsUs(e.Cycle), Dur: durp(t.tsUs(e.Cycle+t.kindDur(e.Kind)) - t.tsUs(e.Cycle)),
			Pid: pid, Tid: tidCmds,
			Args: map[string]any{
				"bg": e.BG, "bank": e.Bank, "row": e.Row, "col": e.Col,
				"broadcast": e.Broadcast, "cycle": e.Cycle,
			},
		})
	}

	// Mode track: windows between transitions. An implicit SB window runs
	// from cycle 0 to the first recorded transition.
	if len(modes) > 0 {
		evs = append(evs, meta("thread_name", pid, tidMode, "mode"))
		if first := modes[0].Cycle; first > 0 {
			evs = append(evs, chromeEvent{
				Name: "SB", Ph: "X", Ts: 0, Dur: durp(t.tsUs(first)),
				Pid: pid, Tid: tidMode,
			})
		}
		for i, m := range modes {
			end := horizon
			if i+1 < len(modes) {
				end = modes[i+1].Cycle
			}
			evs = append(evs, chromeEvent{
				Name: m.Mode, Ph: "X",
				Ts: t.tsUs(m.Cycle), Dur: durp(t.tsUs(end) - t.tsUs(m.Cycle)),
				Pid: pid, Tid: tidMode,
				Args: map[string]any{"cycle": m.Cycle},
			})
		}
	}

	// PIM activity: a counter track of instructions retired per trigger.
	if len(pims) > 0 {
		evs = append(evs, meta("thread_name", pid, tidPIM, "pim instr"))
		for _, e := range pims {
			evs = append(evs, chromeEvent{
				Name: "pim_instr", Ph: "C",
				Ts: t.tsUs(e.Cycle), Pid: pid, Tid: tidPIM,
				Args: map[string]any{"instr": e.Instr},
			})
		}
	}

	// Per-bank open-row windows, replayed from the command stream: an ACT
	// opens the addressed bank's row (every bank when broadcast), PRE
	// closes its bank, PREA closes everything. REF implies all closed.
	return t.appendBankRows(evs, cmds, pid, horizon)
}

func (t *Timeline) appendBankRows(evs []chromeEvent, cmds []CmdEvent, pid int, horizon int64) []chromeEvent {
	banks := t.cfg.BankGroups * t.cfg.BanksPerGroup
	if banks <= 0 || len(cmds) == 0 {
		return evs
	}
	type openState struct {
		row   uint32
		since int64
		open  bool
	}
	state := make([]openState, banks)
	used := make([]bool, banks)
	closeBank := func(b int, at int64) {
		if !state[b].open {
			return
		}
		evs = append(evs, chromeEvent{
			Name: fmt.Sprintf("row %d", state[b].row), Ph: "X",
			Ts: t.tsUs(state[b].since), Dur: durp(t.tsUs(at) - t.tsUs(state[b].since)),
			Pid: pid, Tid: tidBankBase + b,
			Args: map[string]any{"row": state[b].row},
		})
		state[b].open = false
	}
	for _, e := range cmds {
		flat := int(e.BG)*t.cfg.BanksPerGroup + int(e.Bank)
		if flat < 0 || flat >= banks {
			continue
		}
		switch e.Kind {
		case "ACT":
			if e.Broadcast {
				for b := range state {
					closeBank(b, e.Cycle)
					state[b] = openState{row: e.Row, since: e.Cycle, open: true}
					used[b] = true
				}
			} else {
				closeBank(flat, e.Cycle)
				state[flat] = openState{row: e.Row, since: e.Cycle, open: true}
				used[flat] = true
			}
		case "PRE":
			closeBank(flat, e.Cycle)
		case "PREA", "REF":
			for b := range state {
				closeBank(b, e.Cycle)
			}
		}
	}
	for b := range state {
		closeBank(b, horizon)
	}
	for b := range used {
		if used[b] {
			evs = append(evs, meta("thread_name", pid, tidBankBase+b,
				fmt.Sprintf("bank bg%d.b%d rows", b/t.cfg.BanksPerGroup, b%t.cfg.BanksPerGroup)))
		}
	}
	return evs
}

// Serving-stack export: one process, one track per shard plus a frontend
// track for spans not bound to a shard.
const (
	servePid     = 1
	tidFrontend  = 1
	tidShardBase = 10
)

// WriteSpans exports flight-recorder spans as Chrome trace-event JSON.
// Timestamps are wall-clock microseconds relative to the earliest span,
// so the file stays loadable regardless of absolute time. Instant events
// export as ph "i" markers.
func WriteSpans(w io.Writer, spans []Span) error {
	evs := []chromeEvent{meta("process_name", servePid, 0, "pimserve")}
	if len(spans) > 0 {
		t0 := spans[0].Start
		for _, sp := range spans {
			if sp.Start.Before(t0) {
				t0 = sp.Start
			}
		}
		tids := map[int]bool{}
		for _, sp := range spans {
			tid := tidFrontend
			if sp.Shard >= 0 {
				tid = tidShardBase + sp.Shard
			}
			tids[tid] = true
			ts := float64(sp.Start.Sub(t0)) / float64(time.Microsecond)
			ev := chromeEvent{
				Name: sp.Name, Pid: servePid, Tid: tid, Ts: ts,
				Args: map[string]any{"req": sp.Req, "id": sp.ID},
			}
			if sp.Parent != 0 {
				ev.Args["parent"] = sp.Parent
			}
			if sp.Cycles > 0 {
				ev.Args["cycles"] = sp.Cycles
			}
			if sp.Attrs != "" {
				ev.Args["attrs"] = sp.Attrs
			}
			if sp.Err != "" {
				ev.Args["err"] = sp.Err
			}
			if sp.Instant() {
				ev.Ph, ev.S = "i", "t"
			} else {
				ev.Ph = "X"
				ev.Dur = durp(float64(sp.End.Sub(sp.Start)) / float64(time.Microsecond))
			}
			evs = append(evs, ev)
		}
		ids := make([]int, 0, len(tids))
		for tid := range tids {
			ids = append(ids, tid)
		}
		sort.Ints(ids)
		for _, tid := range ids {
			name := "frontend"
			if tid >= tidShardBase {
				name = fmt.Sprintf("shard%d", tid-tidShardBase)
			}
			evs = append(evs, meta("thread_name", servePid, tid, name))
		}
	}
	return json.NewEncoder(w).Encode(chromeFile{TraceEvents: evs})
}
