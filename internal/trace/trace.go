// Package trace is the text format of DRAM command streams: one line per
// command, written from a channel's command log (obs.Log.TraceEvents,
// pimsim -trace) and parsed back so traces can be replayed against the
// device model (cmd/tracerun) — the DRAMSim2 workflow the paper used for
// its own design space exploration.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pimsim/internal/hbm"
)

// Event is one issued command.
type Event struct {
	Cycle   int64
	Channel int
	Kind    hbm.CmdKind
	BG      int
	Bank    int
	Row     uint32
	Col     uint32
}

// String renders one trace line: "cycle ch CMD bg bank row col".
func (e Event) String() string {
	return fmt.Sprintf("%d %d %s %d %d %d %d",
		e.Cycle, e.Channel, e.Kind, e.BG, e.Bank, e.Row, e.Col)
}

// Parse reads a text trace. Lines starting with '#' and blank lines are
// skipped. The cycle column is advisory on replay (commands re-time
// against the device model); it must still parse. Each line must consist
// of exactly the seven fields of the format — trailing tokens are a
// malformed line, not ignorable noise (a truncated or column-shifted
// trace would otherwise replay with silently wrong addresses).
func Parse(rd io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(rd)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 7 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 7 (\"cycle ch CMD bg bank row col\"): %q",
				lineno, len(fields), line)
		}
		var e Event
		var err error
		if e.Cycle, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: cycle: %v", lineno, err)
		}
		if e.Channel, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("trace: line %d: channel: %v", lineno, err)
		}
		k, ok := parseKind(fields[2])
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown command %q", lineno, fields[2])
		}
		e.Kind = k
		if e.BG, err = strconv.Atoi(fields[3]); err != nil {
			return nil, fmt.Errorf("trace: line %d: bank group: %v", lineno, err)
		}
		if e.Bank, err = strconv.Atoi(fields[4]); err != nil {
			return nil, fmt.Errorf("trace: line %d: bank: %v", lineno, err)
		}
		row, err := strconv.ParseUint(fields[5], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: row: %v", lineno, err)
		}
		e.Row = uint32(row)
		col, err := strconv.ParseUint(fields[6], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: column: %v", lineno, err)
		}
		e.Col = uint32(col)
		out = append(out, e)
	}
	return out, sc.Err()
}

// Validate checks every event's channel and addresses against a device
// geometry before replay, so a bad trace fails with the offending line's
// index instead of erroring deep inside the channel model mid-replay.
func Validate(events []Event, cfg hbm.Config, channels int) error {
	for i, e := range events {
		if e.Channel < 0 || e.Channel >= channels {
			return fmt.Errorf("trace: event %d (%s): channel %d out of range (%d channels)",
				i, e, e.Channel, channels)
		}
		if err := cfg.CheckCommand(e.Command()); err != nil {
			return fmt.Errorf("trace: event %d (%s): %w", i, e, err)
		}
	}
	return nil
}

func parseKind(s string) (hbm.CmdKind, bool) {
	for k := hbm.CmdACT; k <= hbm.CmdREF; k++ {
		if strings.ToUpper(s) == k.String() {
			return k, true
		}
	}
	return 0, false
}

// Command converts an event back into an issueable command (no payload).
func (e Event) Command() hbm.Command {
	return hbm.Command{Kind: e.Kind, BG: e.BG, Bank: e.Bank, Row: e.Row, Col: e.Col}
}
