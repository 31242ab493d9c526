package hbm

import (
	"fmt"
	"math/rand"
	"testing"
)

// The timing oracle is an independent, brute-force re-implementation of
// the JEDEC inter-command constraints: it keeps the full command history
// and checks every pairwise rule on each issue. Random SB-mode traffic
// issued through IssueEarliest must never violate it — if the
// incremental state machine in bank.go/pch.go ever disagrees with the
// written-out rules, this test finds the sequence.

type oracleCmd struct {
	kind  CmdKind
	bg, b int
	cycle int64
}

type oracle struct {
	t    *testing.T
	tm   Timing
	hist []oracleCmd
	open map[[2]int]bool
}

func newOracle(t *testing.T, tm Timing) *oracle {
	return &oracle{t: t, tm: tm, open: map[[2]int]bool{}}
}

func (o *oracle) sameBank(a, b oracleCmd) bool { return a.bg == b.bg && a.b == b.b }

// check validates cmd at cycle t against the entire history, then appends.
func (o *oracle) check(kind CmdKind, bg, b int, t64 int64) {
	o.t.Helper()
	if v := o.violation(kind, bg, b, t64); v != "" {
		o.t.Fatal(v)
	}
	key := [2]int{bg, b}
	switch kind {
	case CmdACT:
		o.open[key] = true
	case CmdPRE:
		o.open[key] = false
	case CmdPREA:
		for k := range o.open {
			o.open[k] = false
		}
	}
	o.hist = append(o.hist, oracleCmd{kind: kind, bg: bg, b: b, cycle: t64})
}

// violation reports the first rule cmd at cycle t breaks against the
// entire history, or "" when it breaks none. It changes nothing.
func (o *oracle) violation(kind CmdKind, bg, b int, t64 int64) (broken string) {
	tm := o.tm
	c := oracleCmd{kind: kind, bg: bg, b: b, cycle: t64}
	req := func(prev oracleCmd, min int, rule string) {
		if broken == "" && t64-prev.cycle < int64(min) {
			broken = fmt.Sprintf("%s at %d violates %s: %s at %d needs +%d",
				kind, t64, rule, prev.kind, prev.cycle, min)
		}
	}

	var acts []oracleCmd
	for _, p := range o.hist {
		switch {
		case kind == CmdACT && p.kind == CmdACT:
			acts = append(acts, p)
			if o.sameBank(p, c) {
				req(p, tm.RC, "tRC")
			}
			if p.bg == bg {
				req(p, tm.RRDL, "tRRD_L")
			}
			req(p, tm.RRDS, "tRRD_S")
		case kind == CmdACT && p.kind == CmdPRE && o.sameBank(p, c):
			req(p, tm.RP, "tRP")
		case kind == CmdACT && p.kind == CmdPREA:
			req(p, tm.RP, "tRP(A)")
		case kind == CmdACT && p.kind == CmdREF:
			req(p, tm.RFC, "tRFC")

		case kind.IsColumn() && p.kind.IsColumn():
			if p.bg == bg {
				req(p, tm.CCDL, "tCCD_L")
			} else {
				req(p, tm.CCDS, "tCCD_S")
			}
			if kind == CmdRD && p.kind == CmdWR {
				wtr := tm.WTRS
				if p.bg == bg {
					wtr = tm.WTRL
				}
				req(p, tm.WL+tm.BL/2+wtr, "tWTR")
			}
			if kind == CmdWR && p.kind == CmdRD {
				req(p, tm.RTW, "tRTW")
			}
		case kind.IsColumn() && p.kind == CmdACT && o.sameBank(p, c):
			// Only the most recent ACT of this bank matters; older ones
			// are satisfied transitively. Track via acts list below.
		case kind == CmdPRE && o.sameBank(p, c):
			switch p.kind {
			case CmdACT:
				req(p, tm.RAS, "tRAS")
			case CmdRD:
				req(p, tm.RTP, "tRTP")
			case CmdWR:
				req(p, tm.WL+tm.BL/2+tm.WR, "tWR")
			}
		case kind == CmdREF && p.kind == CmdPRE && o.sameBank(p, oracleCmd{bg: p.bg, b: p.b}):
			req(p, tm.RP, "tRP before REF")
		case kind == CmdREF && p.kind == CmdPREA:
			req(p, tm.RP, "tRP before REF")
		}
	}

	// tRCD: the latest ACT of this bank must be tRCD old for a column.
	if kind.IsColumn() {
		var last *oracleCmd
		for i := range o.hist {
			p := o.hist[i]
			if p.kind == CmdACT && o.sameBank(p, c) {
				last = &o.hist[i]
			}
		}
		if last == nil {
			return fmt.Sprintf("%s at %d on a never-activated bank", kind, t64)
		}
		req(*last, tm.RCD, "tRCD")
	}

	// tFAW: at most 4 ACTs in any tFAW window.
	if kind == CmdACT {
		inWindow := 0
		for _, p := range acts {
			if t64-p.cycle < int64(tm.FAW) {
				inWindow++
			}
		}
		if inWindow >= 4 && broken == "" {
			broken = fmt.Sprintf("ACT at %d is the 5th inside tFAW=%d", t64, tm.FAW)
		}
	}
	if broken != "" {
		return broken
	}

	// Row-buffer state discipline.
	key := [2]int{bg, b}
	switch kind {
	case CmdACT:
		if o.open[key] {
			return fmt.Sprintf("ACT at %d to open bank %v", t64, key)
		}
	case CmdPRE:
		if !o.open[key] {
			return fmt.Sprintf("PRE at %d to idle bank %v", t64, key)
		}
	case CmdRD, CmdWR:
		if !o.open[key] {
			return fmt.Sprintf("%s at %d to idle bank %v", kind, t64, key)
		}
	case CmdREF:
		for k, v := range o.open {
			if v {
				return fmt.Sprintf("REF at %d with bank %v open", t64, k)
			}
		}
	}
	return ""
}

func TestTimingOracleRandomTraffic(t *testing.T) {
	for _, mhz := range []int{1000, 1200} {
		cfg := HBM2Config(mhz)
		cfg.Functional = false
		dev := MustNewDevice(cfg)
		p := dev.PCH(0)
		o := newOracle(t, cfg.Timing)
		rng := rand.New(rand.NewSource(int64(mhz)))

		type bankState struct {
			open bool
			row  uint32
		}
		banks := map[[2]int]*bankState{}
		for bg := 0; bg < cfg.BankGroups; bg++ {
			for b := 0; b < cfg.BanksPerGroup; b++ {
				banks[[2]int{bg, b}] = &bankState{}
			}
		}

		var now int64
		issue := func(cmd Command) {
			t.Helper()
			var res IssueResult
			if err := p.IssueEarliest(&cmd, now, &res); err != nil {
				t.Fatalf("IssueEarliest(%s): %v", cmd, err)
			}
			o.check(cmd.Kind, cmd.BG, cmd.Bank, res.Cycle)
			now = res.Cycle + int64(rng.Intn(3)) // issue promptly or dawdle a little
		}

		for step := 0; step < 4000; step++ {
			bg := rng.Intn(cfg.BankGroups)
			b := rng.Intn(cfg.BanksPerGroup)
			st := banks[[2]int{bg, b}]
			switch r := rng.Float64(); {
			case r < 0.02:
				// Refresh: close everything first.
				anyOpen := false
				for _, s := range banks {
					anyOpen = anyOpen || s.open
				}
				if anyOpen {
					issue(Command{Kind: CmdPREA})
					for _, s := range banks {
						s.open = false
					}
				}
				issue(Command{Kind: CmdREF})
			case !st.open:
				st.row = uint32(rng.Intn(64))
				issue(Command{Kind: CmdACT, BG: bg, Bank: b, Row: st.row})
				st.open = true
			case r < 0.25:
				issue(Command{Kind: CmdPRE, BG: bg, Bank: b})
				st.open = false
			case r < 0.65:
				issue(Command{Kind: CmdRD, BG: bg, Bank: b, Col: uint32(rng.Intn(cfg.ColumnsPerRow()))})
			default:
				issue(Command{Kind: CmdWR, BG: bg, Bank: b, Col: uint32(rng.Intn(cfg.ColumnsPerRow()))})
			}
		}
	}
}

// TestEarliestIssueIsTight checks that EarliestIssue is not merely safe
// but minimal, judged by the independent history oracle: whenever a rule
// holds a command past the stream's clock, one cycle before the reported
// cycle must break a rule the oracle writes out, and the reported cycle
// none.
func TestEarliestIssueIsTight(t *testing.T) {
	cfg := HBM2Config(1000)
	cfg.Functional = false
	dev := MustNewDevice(cfg)
	p := dev.PCH(0)
	o := newOracle(t, cfg.Timing)
	rng := rand.New(rand.NewSource(42))

	var now int64
	open := map[[2]int]bool{}
	for step := 0; step < 2000; step++ {
		bg := rng.Intn(cfg.BankGroups)
		b := rng.Intn(cfg.BanksPerGroup)
		key := [2]int{bg, b}
		var cmd Command
		switch {
		case !open[key]:
			cmd = Command{Kind: CmdACT, BG: bg, Bank: b, Row: uint32(rng.Intn(64))}
		case rng.Float64() < 0.2:
			cmd = Command{Kind: CmdPRE, BG: bg, Bank: b}
		case rng.Float64() < 0.6:
			cmd = Command{Kind: CmdRD, BG: bg, Bank: b, Col: uint32(rng.Intn(64))}
		default:
			cmd = Command{Kind: CmdWR, BG: bg, Bank: b, Col: uint32(rng.Intn(64))}
		}
		at, err := p.EarliestIssue(cmd, now)
		if err != nil {
			t.Fatal(err)
		}
		if at > now && o.violation(cmd.Kind, bg, b, at-1) == "" {
			t.Fatalf("step %d: %s at %d, one cycle before its earliest %d, breaks no rule", step, cmd, at-1, at)
		}
		o.check(cmd.Kind, bg, b, at)
		if _, err := issueAt(p, cmd, at); err != nil {
			t.Fatal(err)
		}
		switch cmd.Kind {
		case CmdACT:
			open[key] = true
		case CmdPRE:
			open[key] = false
		}
		now = at
	}
}
