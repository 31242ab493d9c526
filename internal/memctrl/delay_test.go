package memctrl

import (
	"testing"

	"pimsim/internal/hbm"
)

// fixedDelay delays every command by a constant: the minimal Delayer.
type fixedDelay struct {
	cycles int64
	calls  int64
}

func (f *fixedDelay) ExtraIssueCycles(channel int, seq, now int64) int64 {
	f.calls++
	return f.cycles
}

// The Delay hook pushes issue cycles later without breaking legality:
// the same command sequence still succeeds, just slower, and the nil
// path is untouched.
func TestDelayHook(t *testing.T) {
	run := func(d Delayer) (*Channel, error) {
		cfg := hbm.HBM2Config(1000)
		dev, err := hbm.NewDevice(cfg)
		if err != nil {
			return nil, err
		}
		c := NewChannel(dev.PCH(0), cfg, 0)
		c.Delay = d
		cmds := []hbm.Command{
			{Kind: hbm.CmdACT, BG: 0, Bank: 0, Row: 5},
			{Kind: hbm.CmdRD, BG: 0, Bank: 0, Col: 1},
			{Kind: hbm.CmdPRE, BG: 0, Bank: 0},
		}
		for _, cmd := range cmds {
			if _, err := c.Issue(cmd); err != nil {
				return nil, err
			}
		}
		return c, nil
	}

	base, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	fd := &fixedDelay{cycles: 50}
	slow, err := run(fd)
	if err != nil {
		t.Fatalf("delayed issue became illegal: %v", err)
	}
	if fd.calls != 3 {
		t.Errorf("delayer called %d times, want 3", fd.calls)
	}
	// Each delayed command issues at least 50 cycles after the previous
	// command's clock (delays can overlap mandatory timing gaps, so the
	// naive 3*50-on-top-of-base sum does not hold).
	if want := int64(3 * 50); slow.Now() < want {
		t.Errorf("delayed clock %d, want >= %d (base %d)", slow.Now(), want, base.Now())
	}
	if slow.Now() <= base.Now() {
		t.Errorf("delay had no effect: %d <= %d", slow.Now(), base.Now())
	}
}
