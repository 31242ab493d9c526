package hbm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Property test for the closed form of column runs: on two identical
// timing-only channels driven into the same random state, a run issued as
// one IssueRun must issue what the commands issued one at a time at their
// brute-force earliest cycles (earliestBrute) do, the next at the previous
// one's cycle plus one: the same count, cycles and error, and the same
// timing state, statistics and per-bank counts after it. Every Fig. 14
// variant and every DRAM family preset, single-bank and broadcast runs
// (array rows, register rows, AB-PIM triggers), RD and WR, runs cut by a
// refresh deadline and runs past the last column. A third channel issues
// the run with the trigger path's proof withdrawn (pimReady), so through
// earliest and columnRun, and must leave what the first does.

// runPresets are the device descriptions the property covers.
func runPresets() map[string]Config {
	out := map[string]Config{
		"hbm2":   HBM2Config(1000),
		"gddr6":  GDDR6PIMConfig(1000),
		"lpddr5": LPDDR5PIMConfig(1000),
	}
	for v := VariantBase; v <= VariantSRW; v++ {
		out["pimhbm-"+v.String()] = PIMHBMVariantConfig(v, 1200)
	}
	return out
}

func TestRunMatchesBruteForce(t *testing.T) {
	streams := 400
	if testing.Short() {
		streams = 80
	}
	for name, cfg := range runPresets() {
		t.Run(name, func(t *testing.T) {
			cfg.Functional = false
			kinds := map[string]int{}
			for seed := int64(0); seed < int64(streams); seed++ {
				kinds[runAgainstBrute(t, cfg, seed)]++
			}
			want := []string{"SB RD", "SB WR"}
			if cfg.PIMUnits > 0 {
				want = append(want, "AB RD", "AB WR", "AB-PIM RD", "AB-PIM WR")
			}
			for _, k := range want {
				if kinds[k] == 0 {
					t.Errorf("no %s run in %d streams: %v", k, streams, kinds)
				}
			}
		})
	}
}

// runAgainstBrute drives two channels of cfg into the state seed picks,
// issues one run on the first and its commands one at a time on the
// second, and compares them. It returns the run's mode and kind.
func runAgainstBrute(t *testing.T, cfg Config, seed int64) string {
	var p [3]*PseudoChannel
	var now [3]int64
	for i := range p {
		p[i] = MustNewDevice(cfg).PCH(0)
		if cfg.PIMUnits > 0 {
			p[i].AttachPIM(newFakeExec())
		}
		now[i] = randomState(p[i], cfg, rand.New(rand.NewSource(seed)))
	}
	rng := rand.New(rand.NewSource(seed + 1<<32))
	cmd, n, stop := randomRun(p[0], cfg, rng, now[0])
	label := fmt.Sprintf("%s %s", p[0].Mode(), cmd.Kind)
	for i := range p {
		if err := prepareRun(p[i], cfg, &cmd, &now[i]); err != nil {
			t.Fatalf("seed %d: preparing %s: %v", seed, label, err)
		}
	}
	if now[1] != now[0] || now[2] != now[0] {
		t.Fatalf("seed %d: the channels diverged before the run", seed)
	}

	var run, generic Run
	runErr := p[0].IssueRun(&cmd, n, nil, now[0], stop, &run)
	p[2].pimReady = false
	genericErr := p[2].IssueRun(&cmd, n, nil, now[2], stop, &generic)

	var cycles []int64
	var refErr error
	for i, at := 0, now[1]; i < n && (i == 0 || at < stop); i++ {
		one := cmd
		one.Col += uint32(i)
		c, _, err := p[1].earliestBrute(&one, at)
		if err == nil {
			_, err = issueAt(p[1], one, c)
		}
		if err != nil {
			refErr = err
			break
		}
		cycles = append(cycles, c)
		at = c + 1
	}

	var got []int64
	for i := 0; i < run.N; i++ {
		got = append(got, run.Cycle(i))
	}
	where := fmt.Sprintf("seed %d: %s run of %d from %s (stop %d)", seed, label, n, cmd, stop)
	if fmt.Sprint(runErr) != fmt.Sprint(refErr) || fmt.Sprint(got) != fmt.Sprint(cycles) {
		t.Fatalf("%s: run cycles %v error %v, one at a time %v error %v", where, got, runErr, cycles, refErr)
	}
	if a, b := timingState(p[0]), timingState(p[1]); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: state after the run\n%+v\none at a time\n%+v", where, a, b)
	}
	if fmt.Sprint(genericErr) != fmt.Sprint(runErr) || generic.First != run.First || generic.N != run.N {
		t.Fatalf("%s: run %+v error %v, without the proof %+v error %v", where, run, runErr, generic, genericErr)
	}
	if a, b := timingState(p[0]), timingState(p[2]); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: state after the run\n%+v\nwithout the proof\n%+v", where, a, b)
	}
	return label
}

// randomState drives p through a random legal prefix: rows opened and
// closed, column traffic, refreshes and mode changes. It returns the
// cycle the prefix ends at.
func randomState(p *PseudoChannel, cfg Config, rng *rand.Rand) int64 {
	var now int64
	try := func(cmd Command) {
		var res IssueResult
		if err := p.IssueEarliest(&cmd, now, &res); err == nil {
			now = res.Cycle + 1 + int64(rng.Intn(6))
		}
	}
	cols := cfg.ColumnsPerRow()
	for s, steps := 0, 10+rng.Intn(30); s < steps; s++ {
		bg, b := rng.Intn(cfg.BankGroups), rng.Intn(cfg.BanksPerGroup)
		row := uint32(rng.Intn(cfg.Rows - 1)) // not the mode row
		col := uint32(rng.Intn(cols))
		switch r := rng.Float64(); {
		case r < 0.05:
			try(Command{Kind: CmdPREA})
			try(Command{Kind: CmdREF})
		case r < 0.12 && cfg.PIMUnits > 0:
			hs := ABMRBank
			if rng.Intn(3) == 0 {
				hs = SBMRBank
			}
			try(Command{Kind: CmdPREA})
			try(Command{Kind: CmdACT, Bank: hs, Row: cfg.ModeRow()})
			if hs == ABMRBank && rng.Intn(2) == 0 {
				data := make([]byte, cfg.AccessBytes)
				data[0] = 1
				try(Command{Kind: CmdWR, Bank: hs, Col: ColPIMOpMode, Data: data})
			}
			try(Command{Kind: CmdPRE, Bank: hs})
		case p.Mode() == ModeSB:
			if _, open := p.OpenRow(bg, b); !open {
				try(Command{Kind: CmdACT, BG: bg, Bank: b, Row: row})
			} else if rng.Intn(4) == 0 {
				try(Command{Kind: CmdPRE, BG: bg, Bank: b})
			} else {
				try(Command{Kind: []CmdKind{CmdRD, CmdWR}[rng.Intn(2)], BG: bg, Bank: b, Col: col})
			}
		default:
			switch rng.Intn(4) {
			case 0:
				try(Command{Kind: CmdPREA})
			case 1:
				try(Command{Kind: CmdACT, Row: row})
			default:
				try(Command{Kind: []CmdKind{CmdRD, CmdWR}[rng.Intn(2)], Bank: rng.Intn(2), Col: col})
			}
		}
	}
	return now
}

// randomRun picks a run for p's mode: its command, length and refresh
// deadline.
func randomRun(p *PseudoChannel, cfg Config, rng *rand.Rand, now int64) (Command, int, int64) {
	cols := cfg.ColumnsPerRow()
	cmd := Command{Kind: []CmdKind{CmdRD, CmdWR}[rng.Intn(2)], Col: uint32(rng.Intn(cols))}
	// A row: an array row, or a register row on a PIM device.
	cmd.Row = uint32(rng.Intn(cfg.Rows - NumConfRows))
	if cfg.PIMUnits > 0 && rng.Intn(4) == 0 {
		cmd.Row = []uint32{cfg.CRFRow(), cfg.GRFRow(), cfg.SRFRow()}[rng.Intn(3)]
		cmd.Col = uint32(rng.Intn(2 * cfg.GRFDepth()))
	}
	if p.Mode() == ModeSB {
		cmd.BG, cmd.Bank = rng.Intn(cfg.BankGroups), rng.Intn(cfg.BanksPerGroup)
	} else {
		cmd.Bank = rng.Intn(2)
	}
	n := 1 + rng.Intn(24)
	stop := int64(math.MaxInt64)
	if rng.Intn(3) == 0 {
		stop = now + int64(rng.Intn(120))
	}
	return cmd, n, stop
}

// prepareRun opens cmd.Row where the run needs it: in the addressed bank
// (SB), or in every bank (a broadcast run), issuing from *now.
func prepareRun(p *PseudoChannel, cfg Config, cmd *Command, now *int64) error {
	issue := func(c Command) error {
		var res IssueResult
		err := p.IssueEarliest(&c, *now, &res)
		*now = res.Cycle + 1
		return err
	}
	if p.Mode() == ModeSB {
		if row, open := p.OpenRow(cmd.BG, cmd.Bank); open && row == cmd.Row {
			return nil
		} else if open {
			if err := issue(Command{Kind: CmdPRE, BG: cmd.BG, Bank: cmd.Bank}); err != nil {
				return err
			}
		}
		return issue(Command{Kind: CmdACT, BG: cmd.BG, Bank: cmd.Bank, Row: cmd.Row})
	}
	if row, open := p.OpenRow(0, 0); open && row == cmd.Row && p.activeBanks == len(p.banks) {
		return nil
	}
	if err := issue(Command{Kind: CmdPREA}); err != nil {
		return err
	}
	return issue(Command{Kind: CmdACT, Row: cmd.Row})
}

// channelTiming is everything a column run books on a timing-only
// channel.
type channelTiming struct {
	Banks                                  []bank
	ColAllowedS, WrAllowed, RdAllowedS     int64
	ColAllowedL, RdAllowedL                []int64
	AggColL, AggRdL, RdFloorL              int64
	PreFloor, AggPre, AggACT, AggRD, AggWR int64
	BusyUntil                              int64
	Mode                                   Mode
	ModeSince                              int64
	ModeCycles                             [3]int64
	Stats                                  Stats
	BankOps                                []BankOps
	Earliest                               []string
}

func timingState(p *PseudoChannel) channelTiming {
	s := channelTiming{
		Banks:       append([]bank(nil), p.banks...),
		ColAllowedS: p.colAllowedS, WrAllowed: p.wrAllowed, RdAllowedS: p.rdAllowedS,
		ColAllowedL: append([]int64(nil), p.colAllowedL...), RdAllowedL: append([]int64(nil), p.rdAllowedL...),
		AggColL: p.aggColL, AggRdL: p.aggRdL, RdFloorL: p.rdFloorL,
		PreFloor: p.preFloor, AggPre: p.aggPreNow(), AggACT: p.aggACT, AggRD: p.aggRD, AggWR: p.aggWR,
		BusyUntil: p.busyUntil, Mode: p.mode, ModeSince: p.modeSince, ModeCycles: p.modeCycles,
		Stats: p.stats, BankOps: p.BankOps(),
	}
	// And the verdict on every next command.
	for _, k := range []CmdKind{CmdACT, CmdPRE, CmdPREA, CmdRD, CmdWR, CmdREF} {
		for bg := 0; bg < p.cfg.BankGroups; bg++ {
			at, _, err := p.earliestBrute(&Command{Kind: k, BG: bg, Bank: 1, Row: 3, Col: 5}, 0)
			s.Earliest = append(s.Earliest, fmt.Sprint(at, err))
		}
	}
	return s
}

// TestIssueRunContract pins the one entry's contract: now is a floor, a
// row command is a run of one (a longer run is refused before it touches
// any state), and a run of none issues nothing.
func TestIssueRunContract(t *testing.T) {
	cfg := PIMHBMConfig(1200)
	cfg.Functional = false
	p := MustNewDevice(cfg).PCH(0)
	p.AttachPIM(newFakeExec())
	var run Run
	issue := func(cmd Command, n int, floor int64) error {
		t.Helper()
		return p.IssueRun(&cmd, n, nil, floor, math.MaxInt64, &run)
	}
	if err := issue(Command{Kind: CmdACT, BG: 1, Bank: 2, Row: 9}, 1, 0); err != nil || run.N != 1 || run.First != 0 {
		t.Fatalf("ACT: %+v, %v", run, err)
	}

	// A floor above the earliest cycle issues exactly at the floor, for a
	// column run and for a row command.
	for _, cmd := range []Command{{Kind: CmdRD, BG: 1, Bank: 2, Col: 4}, {Kind: CmdPRE, BG: 1, Bank: 2}} {
		at, err := p.EarliestIssue(cmd, run.First+1)
		if err != nil {
			t.Fatal(err)
		}
		floor := at + 7
		if err := issue(cmd, 1, floor); err != nil || run.N != 1 || run.First != floor {
			t.Fatalf("%s with floor %d (earliest %d): %+v, %v", cmd, floor, at, run, err)
		}
	}

	// A row kind run longer than one is refused and leaves no state
	// behind; a run of none is a no-op for every kind.
	before := timingState(p)
	for _, kind := range []CmdKind{CmdACT, CmdPRE, CmdPREA, CmdREF} {
		if err := issue(Command{Kind: kind, BG: 1, Bank: 2, Row: 9}, 2, 0); err == nil || run.N != 0 {
			t.Errorf("%s run of 2: %+v, %v; want a refusal", kind, run, err)
		}
	}
	for _, kind := range []CmdKind{CmdACT, CmdPRE, CmdPREA, CmdRD, CmdWR, CmdREF} {
		if err := issue(Command{Kind: kind, BG: 1, Bank: 2, Row: 9}, 0, 0); err != nil || run.N != 0 {
			t.Errorf("%s run of 0: %+v, %v; want nothing issued", kind, run, err)
		}
	}
	if after := timingState(p); !reflect.DeepEqual(before, after) {
		t.Errorf("refused and empty runs changed the channel:\n%+v\n%+v", before, after)
	}
}
