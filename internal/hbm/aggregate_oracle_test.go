package hbm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Property test for the incremental timing aggregates: every legality
// verdict (cycle and error alike) the O(1) aggregate path produces for the
// fuzzed streams is re-derived by the brute-force all-bank scan
// (earliestBrute), and any disagreement panics with the command and both
// verdicts. The fuzzer drives thousands of short command streams through
// every mode (SB, AB, AB-PIM via the mode-row handshake), under refresh
// pressure, with deliberately illegal commands mixed in so error verdicts
// are compared too. Runs under -race in the golden gate (make
// race-goldens).

// earliestBrute recomputes earliest's verdict by scanning every bank and
// bank group — the pre-aggregate implementation kept as the tests' oracle.
// Per-bank preAllowed reads fold in preFloor and per-group rdAllowedL
// reads fold in rdFloorL (broadcast raises live in the floors now); the
// tCCD_L raise of a broadcast column lives in colAllowedS, which the
// column cases already take. This is the ground truth the O(1) aggregate
// path must match, cycle for cycle and error for error.
func (p *PseudoChannel) earliestBrute(cmd *Command, now int64) (int64, bool, error) {
	if err := p.cfg.addrCheck(cmd); err != nil {
		return 0, false, err
	}
	t := maxi64(now, p.busyUntil)
	tm := &p.cfg.Timing

	broadcast := p.mode != ModeSB && !p.isModeHandshake(cmd)

	switch cmd.Kind {
	case CmdACT:
		if broadcast {
			if cmd.Row >= uint32(p.cfg.Rows)-1 {
				return 0, false, fmt.Errorf("hbm: broadcast ACT to the mode row is illegal")
			}
			for i := range p.banks {
				t = maxi64(t, p.banks[i].earliestACT())
			}
			return t, broadcast, nil
		}
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		if b.state == bankActive {
			return 0, false, fmt.Errorf("hbm: ACT to open bank bg%d b%d", cmd.BG, cmd.Bank)
		}
		t = maxi64(t, b.earliestACT())
		t = maxi64(t, p.rrdAllowed)
		t = maxi64(t, p.rrdAllowedL[cmd.BG])
		t = maxi64(t, p.actWindow.earliest(int64(tm.FAW)))
		return t, broadcast, nil

	case CmdPRE:
		if broadcast {
			for i := range p.banks {
				if p.banks[i].state == bankActive {
					t = maxi64(t, maxi64(p.banks[i].preAllowed, p.preFloor))
				}
			}
			return t, broadcast, nil
		}
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		if b.state != bankActive {
			return 0, false, fmt.Errorf("hbm: PRE to idle bank bg%d b%d", cmd.BG, cmd.Bank)
		}
		return maxi64(t, maxi64(b.preAllowed, p.preFloor)), broadcast, nil

	case CmdPREA:
		for i := range p.banks {
			if p.banks[i].state == bankActive {
				t = maxi64(t, maxi64(p.banks[i].preAllowed, p.preFloor))
			}
		}
		return t, broadcast, nil

	case CmdRD, CmdWR:
		t = maxi64(t, p.colAllowedS)
		if cmd.Kind == CmdWR {
			t = maxi64(t, p.wrAllowed)
		} else {
			t = maxi64(t, p.rdAllowedS)
		}
		if broadcast {
			for bg := range p.colAllowedL {
				t = maxi64(t, p.colAllowedL[bg])
				if cmd.Kind == CmdRD {
					t = maxi64(t, maxi64(p.rdAllowedL[bg], p.rdFloorL))
				}
			}
			for i := range p.banks {
				if p.banks[i].state != bankActive {
					return 0, false, fmt.Errorf("hbm: broadcast %s with bank %d idle", cmd.Kind, i)
				}
				t = maxi64(t, p.banks[i].earliestCol(cmd.Kind))
			}
			return t, broadcast, nil
		}
		t = maxi64(t, p.colAllowedL[cmd.BG])
		if cmd.Kind == CmdRD {
			t = maxi64(t, maxi64(p.rdAllowedL[cmd.BG], p.rdFloorL))
		}
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		if b.state != bankActive {
			return 0, false, fmt.Errorf("hbm: %s to idle bank bg%d b%d", cmd.Kind, cmd.BG, cmd.Bank)
		}
		return maxi64(t, b.earliestCol(cmd.Kind)), broadcast, nil

	case CmdREF:
		for i := range p.banks {
			if p.banks[i].state == bankActive {
				return 0, false, fmt.Errorf("hbm: REF with bank %d active", i)
			}
			t = maxi64(t, p.banks[i].earliestACT())
		}
		return t, broadcast, nil
	}
	return 0, false, fmt.Errorf("hbm: unknown command kind %d", cmd.Kind)
}

// crossCheck derives cmd's verdict at floor now from the aggregates
// (earliest) and from the bank scan (earliestBrute), panics when they
// differ, and returns the verdict. Call it before the command issues.
func crossCheck(p *PseudoChannel, cmd Command, now int64) (int64, error) {
	at, _, err := p.earliest(&cmd, now)
	bat, _, berr := p.earliestBrute(&cmd, now)
	switch {
	case (err == nil) != (berr == nil),
		err == nil && at != bat,
		err != nil && berr != nil && err.Error() != berr.Error():
		panic(fmt.Sprintf("hbm: timing aggregate mismatch for %s at cycle %d: aggregates say (%d, %v), brute force says (%d, %v)",
			cmd, now, at, err, bat, berr))
	}
	return at, err
}

// issueAt issues cmd alone, a WR carrying cmd.Data, as a run of one with
// floor at, and reports an error when it could not issue at exactly that
// cycle: what a scheduler that computed the cycle itself expects.
func issueAt(p *PseudoChannel, cmd Command, at int64) (IssueResult, error) {
	var data [][]byte
	if cmd.Data != nil {
		data = [][]byte{cmd.Data}
	}
	var run Run
	if err := p.IssueRun(&cmd, 1, data, at, math.MaxInt64, &run); err != nil {
		return IssueResult{}, err
	}
	res := IssueResult{Cycle: run.First}
	if len(run.Data) > 0 {
		res.Data = run.Data[0]
	}
	if run.First != at {
		return res, fmt.Errorf("hbm: %s issued at %d, not at %d", cmd, run.First, at)
	}
	return res, nil
}

// aggregateOracleStreams is the fuzz budget: total fuzzed streams across
// the frequency variants. The race-goldens gate runs the full budget;
// -short keeps the default test loop quick.
const aggregateOracleStreams = 10000

func TestAggregateEarliestMatchesBruteForce(t *testing.T) {
	streams := aggregateOracleStreams
	if testing.Short() {
		streams = 1000
	}
	freqs := []int{1000, 1200}
	var cov fuzzCoverage
	for i := 0; i < streams; i++ {
		seed := int64(i)
		cfg := PIMHBMConfig(freqs[i%len(freqs)])
		cfg.Functional = false
		fuzzAggregateStream(t, cfg, seed, &cov)
	}
	// Generator self-check: the fuzz must keep reaching every mode and
	// the refresh path, or the property quietly stops covering them.
	if cov.modeSwitches == 0 || cov.triggers == 0 || cov.refreshes == 0 {
		t.Fatalf("fuzz coverage collapsed: %d mode switches, %d AB-PIM triggers, %d refreshes",
			cov.modeSwitches, cov.triggers, cov.refreshes)
	}
	t.Logf("coverage over %d streams: %d mode switches, %d AB-PIM triggers, %d refreshes",
		streams, cov.modeSwitches, cov.triggers, cov.refreshes)
}

type fuzzCoverage struct {
	modeSwitches int64
	triggers     int64
	refreshes    int64
}

func fuzzAggregateStream(t *testing.T, cfg Config, seed int64, cov *fuzzCoverage) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("stream seed %d: %v", seed, r)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	dev := MustNewDevice(cfg)
	p := dev.PCH(0)
	exec := newFakeExec()
	p.AttachPIM(exec)
	defer func() {
		st := p.Stats()
		cov.modeSwitches += st.ModeSwitches
		cov.triggers += int64(len(exec.triggers))
		cov.refreshes += st.REF
	}()

	modeRow := cfg.ModeRow()
	cols := uint32(cfg.ColumnsPerRow())
	var now int64

	// try probes the verdict at the stream's clock, then cross-checks the
	// verdict the issue takes at its own cycle and issues there. Illegal
	// commands are the point, not a failure: their error verdicts must
	// match the oracle's too. The issue may still reject a timing-legal
	// command on semantic grounds the legality scan does not see
	// (register-space rules like PIM_OP_MODE outside AB); those leave no
	// state behind and the stream simply moves on.
	try := func(cmd Command) {
		at, err := crossCheck(p, cmd, now)
		if err != nil {
			return
		}
		crossCheck(p, cmd, at)
		if _, err := issueAt(p, cmd, at); err != nil {
			return
		}
		now = at + 1 + int64(rng.Intn(4))
	}

	steps := 24 + rng.Intn(24)
	for s := 0; s < steps; s++ {
		bg := rng.Intn(cfg.BankGroups)
		b := rng.Intn(cfg.BanksPerGroup)
		row := uint32(rng.Intn(cfg.Rows)) // includes conf rows and the mode row
		col := uint32(rng.Intn(int(cols)))
		switch r := rng.Float64(); {
		case r < 0.05:
			// Refresh pressure: close everything, then REF.
			try(Command{Kind: CmdPREA})
			try(Command{Kind: CmdREF})
		case r < 0.09:
			try(Command{Kind: CmdREF}) // often illegal (banks open)
		case r < 0.17:
			// Mode-row handshake toward AB (bank 0) or SB (bank 1),
			// sometimes flipping PIM_OP_MODE while the mode row is open.
			hsBank := ABMRBank
			if rng.Intn(2) == 0 {
				hsBank = SBMRBank
			}
			try(Command{Kind: CmdACT, BG: 0, Bank: hsBank, Row: modeRow})
			if hsBank == ABMRBank && rng.Intn(2) == 0 {
				data := make([]byte, cfg.AccessBytes)
				data[0] = byte(rng.Intn(2))
				try(Command{Kind: CmdWR, BG: 0, Bank: hsBank, Col: ColPIMOpMode, Data: data})
			}
			try(Command{Kind: CmdPRE, BG: 0, Bank: hsBank})
		case r < 0.22:
			// Fully random command: exercises the error verdicts.
			kinds := []CmdKind{CmdACT, CmdPRE, CmdPREA, CmdRD, CmdWR, CmdREF}
			try(Command{Kind: kinds[rng.Intn(len(kinds))], BG: bg, Bank: b, Row: row, Col: col})
		case p.Mode() == ModeSB:
			if openRow, open := p.OpenRow(bg, b); open {
				switch rng.Intn(4) {
				case 0:
					try(Command{Kind: CmdPRE, BG: bg, Bank: b})
				case 1:
					try(Command{Kind: CmdWR, BG: bg, Bank: b, Col: col})
				default:
					_ = openRow
					try(Command{Kind: CmdRD, BG: bg, Bank: b, Col: col})
				}
			} else {
				try(Command{Kind: CmdACT, BG: bg, Bank: b, Row: row})
			}
		default:
			// AB / AB-PIM: broadcast traffic, including the occasional
			// illegal broadcast ACT to the mode row and columns with banks
			// idle.
			switch rng.Intn(5) {
			case 0:
				try(Command{Kind: CmdACT, Row: row})
			case 1:
				try(Command{Kind: CmdPRE})
			case 2:
				try(Command{Kind: CmdWR, Bank: rng.Intn(2), Col: col})
			case 3:
				try(Command{Kind: CmdPREA})
			default:
				try(Command{Kind: CmdRD, Bank: rng.Intn(2), Col: col})
			}
		}
		// Probe-only check: a random command's verdict is cross-checked
		// even when it is never issued.
		kinds := []CmdKind{CmdACT, CmdPRE, CmdPREA, CmdRD, CmdWR, CmdREF}
		probe := Command{
			Kind: kinds[rng.Intn(len(kinds))],
			BG:   rng.Intn(cfg.BankGroups), Bank: rng.Intn(cfg.BanksPerGroup),
			Row: uint32(rng.Intn(cfg.Rows)), Col: uint32(rng.Intn(int(cols))),
		}
		_, _ = crossCheck(p, probe, now)
	}
}
