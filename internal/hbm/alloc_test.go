package hbm

import (
	"math"
	"testing"
)

// TestIssueColumnZeroAlloc pins the steady-state command path: once a
// row's functional storage exists, SB-mode RD and WR must not allocate,
// nor an ACT/PRE pair.
// RD results live in per-pseudo-channel scratch (see IssueResult.Data),
// so a cycle-level loop issuing millions of column commands runs
// allocation free.
func TestIssueColumnZeroAlloc(t *testing.T) {
	cfg := PIMHBMConfig(1200)
	cfg.Functional = true
	s := newTestPCH(t, cfg)
	buf := make([]byte, cfg.AccessBytes)

	s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 3})
	// First touch lazily allocates the row and its ECC parity storage.
	s.issue(Command{Kind: CmdWR, BG: 0, Bank: 0, Col: 0, Data: buf})
	s.issue(Command{Kind: CmdWR, BG: 0, Bank: 0, Col: 1, Data: buf})
	s.issue(Command{Kind: CmdRD, BG: 0, Bank: 0, Col: 0})

	rd := Command{Kind: CmdRD, BG: 0, Bank: 0, Col: 0}
	wr := Command{Kind: CmdWR, BG: 0, Bank: 0, Col: 1, Data: buf}
	if avg := testing.AllocsPerRun(200, func() {
		s.issue(rd)
		s.issue(wr)
	}); avg != 0 {
		t.Errorf("SB column RD+WR allocates %v objects per pair, want 0", avg)
	}

	// Row commands are runs of one through the same entry.
	act := Command{Kind: CmdACT, BG: 1, Bank: 2, Row: 5}
	pre := Command{Kind: CmdPRE, BG: 1, Bank: 2}
	var run Run
	if avg := testing.AllocsPerRun(200, func() {
		for _, cmd := range []*Command{&act, &pre} {
			if err := s.p.IssueRun(cmd, 1, nil, s.now, math.MaxInt64, &run); err != nil {
				t.Fatal(err)
			}
			s.now = run.First
		}
	}); avg != 0 {
		t.Errorf("SB ACT+PRE allocates %v objects per pair, want 0", avg)
	}
}
