package memctrl

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pimsim/internal/fault"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/obs"
	"pimsim/internal/pim"
	"pimsim/internal/trace"
)

// refuser wraps an executor's bank access and refuses the bank write to
// one bank and column: the error a run must stop at mid-window.
type refuser struct {
	hbm.PIMExecutor
	access    hbm.BankAccess
	bank, col int
}

func (r *refuser) Trigger(ctx *hbm.TriggerContext) (hbm.TriggerInfo, error) {
	r.access, ctx.Access = ctx.Access, r
	defer func() { ctx.Access = r.access }()
	return r.PIMExecutor.Trigger(ctx)
}

func (r *refuser) ReadBanks(first, stride, n int, col uint32, cols int, scratch []byte, views [][]byte) (int, error) {
	return r.access.ReadBanks(first, stride, n, col, cols, scratch, views)
}

func (r *refuser) WriteBank(bank int, col uint32, data []byte) error {
	if bank == r.bank && int(col) == r.col {
		return errors.New("bank refuses the write")
	}
	return r.access.WriteBank(bank, col, data)
}

func (r *refuser) ReplicateBankAccess(reads, writes, times int64) {
	r.access.ReplicateBankAccess(reads, writes, times)
}

// runCase is one device and fault setting the runs and the single
// commands must agree under.
type runCase struct {
	name    string
	refi    int  // tREFI override, 0: the preset's
	ecc     bool // the ECC engine on
	delay   bool // a fault.Injector as Delayer (and readout fault, with ECC)
	flips   int  // stored bit errors planted at unit 5's even bank, column 3 (1: correctable, 2: not)
	refuse  bool // unit 5's odd bank refuses the store at column 2
	tail    int  // commands past the program's EXIT in the last run
	columns bool // the register and bank column stream instead of the kernel's triggers
	wantErr string
}

const (
	runRow    = 40
	runPasses = 24
)

// runRig is one channel of a functional device running the kernel of
// TestIssueRunMatchesSingles, with everything observable recorded.
type runRig struct {
	t    *testing.T
	cfg  hbm.Config
	ch   *Channel
	exec *pim.Executor
	log  *obs.Log

	issued    int      // commands the stream issued
	midWindow bool     // the stream failed after its entry's first command
	midRun    bool     // a refresh fell due inside a packet entry's column run
	columns   int64    // broadcast column commands the device counted before the stream
	read      []string // the bursts the column stream's RD entries returned
}

func newRunRig(t *testing.T, rc runCase) *runRig {
	t.Helper()
	cfg := hbm.PIMHBMConfig(1000)
	cfg.PseudoChannels = 1
	cfg.ECC = rc.ecc
	if rc.refi > 0 {
		cfg.Timing.REFI = rc.refi
	}
	dev := hbm.MustNewDevice(cfg)
	exec, err := pim.NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var attached hbm.PIMExecutor = exec
	if rc.refuse {
		attached = &refuser{PIMExecutor: exec, bank: 5*cfg.BanksPerUnit() + 1, col: 2}
	}
	dev.PCH(0).AttachPIM(attached)
	r := &runRig{t: t, cfg: cfg, ch: NewChannel(dev.PCH(0), cfg, 0), exec: exec}
	r.log = obs.NewLog(0, 1<<16, false)
	r.ch.Log, exec.Log = r.log, r.log
	if rc.delay {
		inj := fault.New(fault.Config{Seed: 5, SpikeEvery: 7, SpikeCycles: 50, FlipRate: 0.002})
		r.ch.Delay = inj
		if rc.ecc {
			dev.AttachFault(inj)
		}
	}

	// Random operands in every bank, then the planted bit errors.
	rng := rand.New(rand.NewSource(9))
	for flat := 0; flat < cfg.Banks(); flat++ {
		bg, b := cfg.BankOf(flat)
		r.must(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: runRow})
		for col := 0; col < 32; col++ {
			data := make([]byte, 32)
			for i := 0; i < len(data); i += 2 {
				data[i], data[i+1] = byte(rng.Intn(256)), byte(0x30+rng.Intn(16)) // finite, modest
			}
			r.must(hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: uint32(col), Data: data})
		}
		r.must(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	}
	bg, b := cfg.BankOf(5 * cfg.BanksPerUnit())
	for bit := 0; bit < rc.flips; bit++ {
		if err := dev.PCH(0).InjectBitError(bg, b, runRow, 3, 40+bit); err != nil {
			t.Fatal(err)
		}
	}

	// AB mode, the kernel in the CRF, AB-PIM mode with the row open: per
	// pass, load GRF_A from the WR payloads, accumulate GRF_A x even bank
	// into GRF_B, store ReLU(GRF_B) to the odd banks.
	r.must(hbm.Command{Kind: hbm.CmdACT, Bank: hbm.ABMRBank, Row: cfg.ModeRow()})
	r.must(hbm.Command{Kind: hbm.CmdPRE, Bank: hbm.ABMRBank})
	prog, err := isa.Assemble(fmt.Sprintf(`
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		MOV(AAM_RELU) ODD_BANK, GRF_B
		JUMP -1, 7
		JUMP -6, %d
		EXIT`, runPasses-1))
	if err != nil {
		t.Fatal(err)
	}
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for i, w := range words {
		buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	r.must(hbm.Command{Kind: hbm.CmdACT, Row: cfg.CRFRow()})
	r.must(hbm.Command{Kind: hbm.CmdWR, Col: 0, Data: buf})
	r.must(hbm.Command{Kind: hbm.CmdPREA})
	r.pimOp(true)
	r.must(hbm.Command{Kind: hbm.CmdACT, Row: runRow})
	st := r.ch.PCH().Stats()
	r.columns = st.ABRD + st.ABWR
	return r
}

func (r *runRig) must(cmd hbm.Command) {
	r.t.Helper()
	if _, err := r.ch.Issue(cmd); err != nil {
		r.t.Fatalf("%s: %v", cmd, err)
	}
}

func (r *runRig) pimOp(on bool) {
	data := make([]byte, 32)
	if on {
		data[0] = 1
	}
	r.must(hbm.Command{Kind: hbm.CmdACT, Bank: hbm.ABMRBank, Row: r.cfg.ModeRow()})
	r.must(hbm.Command{Kind: hbm.CmdWR, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: data})
	r.must(hbm.Command{Kind: hbm.CmdPRE, Bank: hbm.ABMRBank})
}

// send issues pk as one IssuePacket call, or as its commands through one
// Issue call each with a Fence after each fenced entry, and records the
// commands that issued, the bursts the RD entries read, and whether a
// failure came after its entry's first command.
func (r *runRig) send(packet bool, pk []Entry, data [][]byte) error {
	if packet {
		before := len(r.log.TraceEvents())
		pr, err := r.ch.IssuePacket(pk, data)
		for _, e := range pk[:pr.Entries] {
			r.issued += e.N
		}
		r.issued += pr.Issued
		r.midWindow = err != nil && pr.Issued > 0
		r.midRun = r.midRun || refreshMidRun(r.log.TraceEvents()[before:])
		for _, b := range pr.Read {
			r.read = append(r.read, fmt.Sprintf("%x", b))
		}
		return err
	}
	for _, e := range pk {
		for i := 0; i < e.N; i++ {
			cmd := e.Command(i)
			if data != nil && e.Kind == hbm.CmdWR {
				cmd.Data = data[e.Data+i]
			}
			res, err := r.ch.Issue(cmd)
			if err != nil {
				r.midWindow = i > 0
				return err
			}
			if res.Data != nil {
				r.read = append(r.read, fmt.Sprintf("%x", res.Data))
			}
			r.issued++
		}
		if e.Fence {
			r.ch.Fence()
		}
	}
	return nil
}

// stream issues the kernel's trigger windows, each pass's three fenced
// windows as one packet or as single Issue calls and fences, until one
// fails. The last window runs tail commands past the program's EXIT.
func (r *runRig) stream(packets bool, tail int) (issued int, err error) {
	payloads := make([][]byte, 8+tail)
	for i := range payloads {
		payloads[i] = make([]byte, 32)
		for j := range payloads[i] {
			payloads[i][j] = byte(7*i + j)
		}
		payloads[i][1] &= 0x3f // finite, modest
	}
	for pass := 0; pass < runPasses; pass++ {
		col0 := uint32(pass % 4 * 8)
		store := 8
		if pass == runPasses-1 {
			store += tail
		}
		pk := []Entry{
			{Kind: hbm.CmdWR, Col: col0, N: 8, Fence: true},
			{Kind: hbm.CmdRD, Col: col0, N: 8, Fence: true},
			{Kind: hbm.CmdWR, Bank: 1, Col: col0, N: store, Fence: true},
		}
		if err := r.send(packets, pk, payloads); err != nil {
			return r.issued, err
		}
	}
	return r.issued, nil
}

// columnStream issues what the runtime issues outside its trigger
// windows, in rounds: in AB mode a ZeroGRF (16 register writes of zeros),
// a CRF program (4 writes) and a GRF_A load (8 writes), each between its
// row's ACT and a PREA; the SBMR handshake; in SB mode the unload of
// GRF_A from every unit (8 register reads a unit), a 32-column write of
// one bank row and a 32-column read of unit 5's even bank's kernel row,
// each between its row's ACT and PRE; the ABMR handshake. Each row access
// is one packet, or single Issue calls; it stops at the first error.
func (r *runRig) columnStream(packets bool) (issued int, err error) {
	cfg := r.cfg
	payloads := make([][]byte, 32)
	for i := range payloads {
		payloads[i] = make([]byte, 32)
		for j := range payloads[i] {
			payloads[i][j] = byte(5*i + 3*j)
		}
		payloads[i][1] &= 0x3f
	}
	zeros := make([][]byte, 16)
	for i := range zeros {
		zeros[i] = make([]byte, 32)
	}
	access := func(bg, bank int, row uint32, kind hbm.CmdKind, col uint32, n int, pre hbm.CmdKind) []Entry {
		return []Entry{
			{Kind: hbm.CmdACT, BG: bg, Bank: bank, Row: row, N: 1},
			{Kind: kind, BG: bg, Bank: bank, Col: col, N: n},
			{Kind: pre, BG: bg, Bank: bank, N: 1},
		}
	}
	handshake := func(bank int) error {
		return r.send(packets, access(0, bank, cfg.ModeRow(), hbm.CmdWR, 0, 0, hbm.CmdPRE), nil)
	}
	r.must(hbm.Command{Kind: hbm.CmdPREA})
	r.pimOp(false)
	bpu := cfg.BanksPerUnit()
	for round := 0; round < 12; round++ {
		for _, w := range []struct {
			row  uint32
			col  int
			data [][]byte
		}{
			{cfg.GRFRow(), 2*cfg.GRFDepth() - len(zeros), zeros},
			{cfg.CRFRow(), 0, payloads[round%4 : round%4+4]},
			{cfg.GRFRow(), 0, payloads[round : round+8]},
		} {
			if err := r.send(packets, access(0, 0, w.row, hbm.CmdWR, uint32(w.col), len(w.data), hbm.CmdPREA), w.data); err != nil {
				return r.issued, err
			}
		}
		if err := handshake(hbm.SBMRBank); err != nil {
			return r.issued, err
		}
		for u := 0; u < cfg.PIMUnits; u++ {
			bg, b := cfg.BankOf(u * bpu)
			if err := r.send(packets, access(bg, b, cfg.GRFRow(), hbm.CmdRD, 0, 8, hbm.CmdPRE), nil); err != nil {
				return r.issued, err
			}
		}
		for _, w := range []struct {
			flat int
			kind hbm.CmdKind
			row  uint32
			data [][]byte
		}{
			{round % cfg.Banks(), hbm.CmdWR, runRow + 1, payloads},
			{round % cfg.Banks(), hbm.CmdRD, runRow + 1, nil},
			{5 * bpu, hbm.CmdRD, runRow, nil},
		} {
			bg, b := cfg.BankOf(w.flat)
			if err := r.send(packets, access(bg, b, w.row, w.kind, 0, 32, hbm.CmdPRE), w.data); err != nil {
				return r.issued, err
			}
		}
		if err := handshake(hbm.ABMRBank); err != nil {
			return r.issued, err
		}
	}
	return r.issued, nil
}

// refreshMidRun reports whether a refresh came between two column
// commands of the events one packet recorded.
func refreshMidRun(events []trace.Event) bool {
	column, ref := false, false
	for _, e := range events {
		switch {
		case e.Kind.IsColumn():
			if ref {
				return true
			}
			column = true
		case e.Kind == hbm.CmdREF && column:
			ref = true
		}
	}
	return false
}

// observed is everything one stream left observable.
type observed struct {
	Issued    int
	Err       string
	MidWindow bool
	Read      []string
	Now       int64
	Refreshes int64
	Stats     hbm.Stats
	BankOps   []hbm.BankOps
	Trace     []trace.Event
	Cmds      []obs.CmdEvent
	Modes     []obs.ModeEvent
	PIMs      []obs.PIMEvent
	Ops       [isa.NumOpcodes]int64
	AAM       int64
	Triggers  int64
	GRF       [][]uint16
	Banks     []string // the row of every bank read back in SB mode, or its error
}

func (r *runRig) observe(issued int, err error) observed {
	o := observed{
		Issued: issued, Err: fmt.Sprint(err), MidWindow: r.midWindow, Now: r.ch.Now(), Refreshes: r.ch.Refreshes(),
		Stats: r.ch.PCH().Stats(), BankOps: r.ch.PCH().BankOps(),
		Trace: r.log.TraceEvents(),
		Cmds:  r.log.Cmds(), Modes: r.log.Modes(), PIMs: r.log.PIMs(),
		Ops: r.exec.OpCountsArray(), AAM: r.exec.AAMInstructions(), Triggers: r.exec.Triggers(),
		Read: r.read,
	}
	for u := 0; u < r.exec.NumUnits(); u++ {
		for h := 0; h < 2; h++ {
			for i := 0; i < r.cfg.GRFDepth(); i++ {
				v := r.exec.Unit(u).GRF(h, i)
				lanes := make([]uint16, len(v))
				for l, x := range v {
					lanes[l] = uint16(x)
				}
				o.GRF = append(o.GRF, lanes)
			}
		}
	}
	// Back to SB mode, then every bank's row, column by column.
	r.ch.Delay = nil
	r.must(hbm.Command{Kind: hbm.CmdPREA})
	if r.ch.PCH().Mode() != hbm.ModeSB {
		r.pimOp(false)
		r.must(hbm.Command{Kind: hbm.CmdACT, Bank: hbm.SBMRBank, Row: r.cfg.ModeRow()})
		r.must(hbm.Command{Kind: hbm.CmdPRE, Bank: hbm.SBMRBank})
	}
	for flat := 0; flat < r.cfg.Banks(); flat++ {
		bg, b := r.cfg.BankOf(flat)
		r.must(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: runRow})
		var row strings.Builder
		for col := 0; col < 32; col++ {
			res, err := r.ch.Issue(hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: uint32(col)})
			fmt.Fprintf(&row, "%x/%v ", res.Data, err)
		}
		o.Banks = append(o.Banks, row.String())
		r.must(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	}
	return o
}

// TestIssueRunMatchesSingles issues one kernel's trigger windows, or the
// register and bank row accesses around them (columnStream), into two
// identical channels with Trace and timeline armed, as packets (one per
// pass, one per row access) and as one Issue per command with the same
// fences, and requires the same of
// everything either leaves observable: commands issued and the error, the
// data the reads returned, the channel clock and refreshes, the device's
// statistics and per-bank counts, the trace and timeline events, the
// executor's retirement counters and registers, and every bank's bytes;
// under a refresh that falls due mid-window, a delaying fault injector,
// ECC corrections, and a window that fails part way (an uncorrectable
// operand or SB read, a refused store, the program's EXIT).
func TestIssueRunMatchesSingles(t *testing.T) {
	for _, rc := range []runCase{
		{name: "plain"},
		{name: "refresh", refi: 700},
		{name: "delay", delay: true, ecc: true, refi: 900},
		{name: "ecc-corrected", ecc: true, flips: 1},
		{name: "ecc-uncorrectable", ecc: true, flips: 2, wantErr: "uncorrectable ECC error at ch0 bank 10"},
		{name: "refused-write", refuse: true, wantErr: "pim: unit 5: pim: CRF[4] MOV(AAM_RELU) ODD_BANK, GRF_B: bank refuses the write"},
		{name: "exit", tail: 3, wantErr: "column command after EXIT"},
		{name: "columns", columns: true},
		{name: "columns-refresh", columns: true, refi: 700},
		{name: "columns-delay", columns: true, delay: true, ecc: true, refi: 900},
		{name: "columns-ecc-corrected", columns: true, ecc: true, flips: 1},
		{name: "columns-ecc-uncorrectable", columns: true, ecc: true, flips: 2, wantErr: "uncorrectable ECC error at ch0 bank 10"},
	} {
		t.Run(rc.name, func(t *testing.T) {
			var got [2]observed
			var columnsBefore int64
			for i, packets := range []bool{true, false} {
				r := newRunRig(t, rc)
				columnsBefore = r.columns
				if rc.columns {
					got[i] = r.observe(r.columnStream(packets))
				} else {
					got[i] = r.observe(r.stream(packets, rc.tail))
				}
				if packets && rc.refi > 0 && rc.columns && !r.midRun {
					t.Error("no refresh fell due inside a column run")
				}
			}
			run, single := got[0], got[1]
			if rc.wantErr == "" && run.Err != "<nil>" || !strings.Contains(run.Err, rc.wantErr) {
				t.Fatalf("runs ended in %q, want %q", run.Err, rc.wantErr)
			}
			// A trigger the executor failed on has issued: its column
			// timing and count stand, as a lone command's do.
			failed := int64(0)
			if rc.wantErr != "" {
				failed = 1
			}
			if st := run.Stats; !rc.columns && st.ABRD+st.ABWR-columnsBefore != int64(run.Issued)+failed {
				t.Errorf("%d triggers counted for %d issued (failed: %d)", st.ABRD+st.ABWR-columnsBefore, run.Issued, failed)
			}
			if rc.wantErr != "" && !run.MidWindow {
				t.Errorf("the failure came at a window's first command (%d issued): want one mid-window", run.Issued)
			}
			v := reflect.ValueOf(run)
			for f := 0; f < v.NumField(); f++ {
				name := v.Type().Field(f).Name
				if a, b := v.Field(f).Interface(), reflect.ValueOf(single).Field(f).Interface(); !reflect.DeepEqual(a, b) {
					t.Errorf("%s differs: runs %v\nsingles %v", name, a, b)
				}
			}
			if rc.refi > 0 && !rc.columns && !refreshMidWindow(run.Trace) {
				t.Error("no refresh fell due mid-window")
			}
		})
	}
}

// refreshMidWindow reports whether a refresh's precharge followed a
// trigger that was not the last of its window (every window here ends at
// a column 8k+7, unless it failed).
func refreshMidWindow(events []trace.Event) bool {
	for i := 1; i < len(events); i++ {
		prev := events[i-1]
		if events[i].Kind == hbm.CmdPREA && prev.Kind.IsColumn() && prev.Row == 0 && prev.Col%8 != 7 {
			return true
		}
	}
	return false
}
