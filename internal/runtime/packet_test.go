package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pimsim/internal/fault"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/memctrl"
	"pimsim/internal/obs"
)

// packetRows are the rows the packet rigs' kernels run on, alternately.
var packetRows = [2]uint32{40, 41}

// packetCase is one device and controller setting the packet path and
// the per-entry loop must agree under.
type packetCase struct {
	name       string
	functional bool // a functional device with WR payloads, else timing-only
	refi       int  // tREFI override, 0: the preset's
	delay      bool // a fault.Injector as the channel's Delayer
	inOrder    bool // GuaranteeOrder: free fences
}

// packetRig is one stack of a twin: a one-channel runtime whose command
// log is a timeline, in AB-PIM mode with every bank precharged and a
// kernel in the CRF that per pass loads GRF_A from the WR payloads (8 WR),
// accumulates GRF_A x even bank into GRF_B (8 RD) and stores
// ReLU(GRF_B) to the odd banks (8 WR), 128 times.
type packetRig struct {
	rt   *Runtime
	tl   *obs.Timeline
	crf  []uint32 // the kernel's CRF words
	read []string // the bursts the rig's SB reads returned, one hex string each
}

func newPacketRig(t testing.TB, pc packetCase) *packetRig {
	t.Helper()
	cfg := hbm.PIMHBMConfig(1000)
	cfg.PseudoChannels = 1
	cfg.Functional = pc.functional
	if pc.refi > 0 {
		cfg.Timing.REFI = pc.refi
	}
	rt, _, err := NewStack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &packetRig{rt: rt, tl: obs.NewTimeline(obs.TimelineConfig{Channels: 1})}
	rt.AttachTimeline(r.tl)
	if pc.functional {
		rng := rand.New(rand.NewSource(9))
		row := make([]byte, cfg.RowBytes)
		for flat := 0; flat < cfg.Banks(); flat++ {
			for _, kernelRow := range packetRows {
				for i := 0; i < len(row); i += 2 {
					row[i], row[i+1] = byte(rng.Intn(256)), byte(0x30+rng.Intn(16)) // finite, modest
				}
				if err := rt.WriteBankSB(0, flat, kernelRow, 0, row); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	r.crf = assemble(t, `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		MOV(AAM_RELU) ODD_BANK, GRF_B
		JUMP -1, 7
		JUMP -6, 127
		EXIT`)
	if err := chain(func() error { return rt.EnterAB(0) }, func() error { return rt.ProgramCRF(0, r.crf) },
		func() error { return rt.SetPIMMode(0, true) }); err != nil {
		t.Fatal(err)
	}
	if pc.delay {
		rt.Chans[0].Delay = fault.New(fault.Config{Seed: 5, SpikeEvery: 7, SpikeCycles: 50})
	}
	rt.SetGuaranteeOrder(pc.inOrder)
	r.tl.Reset()
	return r
}

// singles is the reference for one runtime packet: pk's commands sent one
// Channel.Issue call each (a WR entry's command i carrying data[e.Data+i]
// when data is non-nil), whole(e, start) called after each entry that
// issued whole, start the clock before it, then the entry's fence if it
// has one. The bursts the RD commands read are kept on the rig; an error
// is worded as the runtime words it.
func singles(r *packetRig, pk []memctrl.Entry, data [][]byte, whole func(e *memctrl.Entry, start int64)) error {
	ch := r.rt.Chans[0]
	for k := range pk {
		e := &pk[k]
		start := ch.Now()
		for i := 0; i < e.N; i++ {
			cmd := e.Command(i)
			if data != nil && e.Kind == hbm.CmdWR {
				cmd.Data = data[e.Data+i]
			}
			res, err := ch.Issue(cmd)
			if err != nil {
				return fmt.Errorf("runtime: ch0 %s: %w", cmd, err)
			}
			if res.Data != nil {
				r.read = append(r.read, fmt.Sprintf("%x", res.Data))
			}
		}
		if whole != nil {
			whole(e, start)
		}
		if e.Fence {
			ch.Fence()
		}
	}
	return nil
}

// refVisit is the reference of Runtime.IssuePacket: the row's ACT, the
// trigger packet's commands one at a time, each entry's trigger phase
// noted alone and its fence after it, the PREA.
func refVisit(r *packetRig, row uint32, pk []memctrl.Entry, data [][]byte) error {
	defer func(read []string) { r.read = read }(r.read) // a row visit returns no bursts
	if err := singles(r, []memctrl.Entry{{Kind: hbm.CmdACT, Row: row, N: 1}}, nil, nil); err != nil {
		return err
	}
	err := singles(r, pk, data, func(e *memctrl.Entry, start int64) { r.rt.notePhase(0, PhaseTrigger, e.N, start) })
	if err != nil {
		return err
	}
	return singles(r, []memctrl.Entry{{Kind: hbm.CmdPREA, N: 1}}, nil, nil)
}

// refConf is the reference of one configuration-row access booked as
// phase ph: the ACT of row on bank group 0's bank, the writes of data to
// columns col, col+1, ..., then a PRE of kind pre, one command at a time.
func refConf(r *packetRig, ph KernelPhase, bank int, row, col uint32, data [][]byte, pre hbm.CmdKind) error {
	start := r.rt.Now(0)
	err := singles(r, []memctrl.Entry{
		{Kind: hbm.CmdACT, Bank: bank, Row: row, N: 1},
		{Kind: hbm.CmdWR, Bank: bank, Col: col, N: len(data)},
		{Kind: pre, Bank: bank, N: 1},
	}, data, nil)
	if err != nil {
		return err
	}
	r.rt.notePhase(0, ph, 1, start)
	return nil
}

// refMode is the reference of the mode-row accesses: a handshake on bank
// (no data), or a PIM_OP_MODE write through the ABMR bank.
func refMode(r *packetRig, bank int, data [][]byte) error {
	return refConf(r, PhaseMode, bank, r.rt.Cfg.ModeRow(), hbm.ColPIMOpMode, data, hbm.CmdPRE)
}

func refPIMMode(r *packetRig, on bool) error {
	b := make([]byte, r.rt.Cfg.AccessBytes)
	if on {
		b[0] = 1
	}
	return refMode(r, hbm.ABMRBank, [][]byte{b})
}

// refRow is the reference of one SB access to a bank's row: its ACT, n
// column commands of kind from column col, its PRE.
func refRow(r *packetRig, flat int, row uint32, kind hbm.CmdKind, col uint32, n int, data [][]byte) error {
	bg, b := r.rt.Cfg.BankOf(flat)
	return singles(r, []memctrl.Entry{
		{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row, N: 1},
		{Kind: kind, BG: bg, Bank: b, Col: col, N: n},
		{Kind: hbm.CmdPRE, BG: bg, Bank: b, N: 1},
	}, data, nil)
}

// payloads is data on a functional rig, nil on a timing-only one.
func (r *packetRig) payloads(data [][]byte) [][]byte {
	if !r.rt.Cfg.Functional {
		return nil
	}
	return data
}

// step is one runtime operation of a twin comparison: pkt issues it
// through the runtime, ref as the reference's single commands.
type step struct {
	pkt, ref func(r *packetRig) error
}

// visitStep is a row visit: the trigger packet pk on row.
func visitStep(row uint32, pk []memctrl.Entry, data [][]byte) step {
	return step{
		pkt: func(r *packetRig) error { return r.rt.IssuePacket(0, row, pk, r.payloads(data)) },
		ref: func(r *packetRig) error { return refVisit(r, row, pk, r.payloads(data)) },
	}
}

// chain runs ops in order up to the first error.
func chain(ops ...func() error) error {
	for _, op := range ops {
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// confStep leaves PIM mode, makes one configuration-row access (what 0:
// ZeroGRF, 1: ProgramSRF of scalar into a few SRF_M and SRF_A entries, 2:
// ProgramCRF of the rig's kernel) and re-enters PIM mode.
func confStep(what int, scalar fp16.F16) step {
	m := []fp16.F16{scalar, scalar, scalar}
	a := []fp16.F16{fp16.One, scalar}
	return step{
		pkt: func(r *packetRig) error {
			rt := r.rt
			access := func() error {
				switch what {
				case 0:
					return rt.ZeroGRF(0)
				case 1:
					return rt.ProgramSRF(0, m, a)
				}
				return rt.ProgramCRF(0, r.crf)
			}
			return chain(func() error { return rt.SetPIMMode(0, false) }, access,
				func() error { return rt.SetPIMMode(0, true) })
		},
		ref: func(r *packetRig) error {
			cfg := r.rt.Cfg
			access := func() error {
				switch what {
				case 0:
					zeros := make([][]byte, 2*isa.GRFEntries)
					for i := range zeros {
						zeros[i] = make([]byte, cfg.AccessBytes)
					}
					col := uint32(2*cfg.GRFDepth() - len(zeros))
					return refConf(r, PhaseGRF, 0, cfg.GRFRow(), col, zeros, hbm.CmdPREA)
				case 1:
					srf := make([]byte, cfg.AccessBytes)
					fp16.Vector(m).PutBytes(srf)
					fp16.Vector(a).PutBytes(srf[2*isa.SRFEntries:])
					return refConf(r, PhaseSRF, 0, cfg.SRFRow(), 0, [][]byte{srf}, hbm.CmdPREA)
				}
				var cols [][]byte
				for i, w := range r.crf {
					if i%8 == 0 {
						cols = append(cols, make([]byte, cfg.AccessBytes))
					}
					binary.LittleEndian.PutUint32(cols[i/8][4*(i%8):], w)
				}
				return refConf(r, PhaseCRF, 0, cfg.CRFRow(), 0, cols, hbm.CmdPREA)
			}
			return chain(func() error { return refPIMMode(r, false) }, access,
				func() error { return refPIMMode(r, true) })
		},
	}
}

// bankStep leaves PIM and AB mode, makes one SB access and returns to
// AB-PIM mode. The access is (what 0) a WriteBankSB of n columns from col
// of flat bank's row, (1) a ReadBankSB of them, or (2) a ReadGRFRowSB of
// the first n%8+1 registers of GRF half col%2.
func bankStep(what, flat int, row, col uint32, n int) step {
	payload := make([]byte, 32*n)
	for i := range payload {
		payload[i] = byte(3*i+int(col)) & 0x3b // finite, modest lanes
	}
	half, regs := int(col%2), n%8+1
	return step{
		pkt: func(r *packetRig) error {
			rt := r.rt
			access := func() error {
				switch what {
				case 0:
					return rt.WriteBankSB(0, flat, row, col, payload)
				case 1:
					out, err := rt.ReadBankSB(0, flat, row, col, n)
					if !rt.Cfg.Functional {
						return err // zeros: a timing-only device reads nothing
					}
					for o := 0; o < len(out); o += rt.Cfg.AccessBytes {
						r.read = append(r.read, fmt.Sprintf("%x", out[o:o+rt.Cfg.AccessBytes]))
					}
					return err
				}
				return rt.ReadGRFRowSB(0, half, regs, func(_ int, bursts [][]byte) {
					for _, b := range bursts {
						r.read = append(r.read, fmt.Sprintf("%x", b))
					}
				})
			}
			return chain(func() error { return rt.SetPIMMode(0, false) }, func() error { return rt.ExitToSB(0) },
				access, func() error { return rt.EnterAB(0) }, func() error { return rt.SetPIMMode(0, true) })
		},
		ref: func(r *packetRig) error {
			cfg := r.rt.Cfg
			access := func() error {
				switch what {
				case 0:
					cols := make([][]byte, n)
					for i := range cols {
						cols[i] = payload[32*i : 32*(i+1)]
					}
					return refRow(r, flat, row, hbm.CmdWR, col, n, cols)
				case 1:
					read := r.read
					err := refRow(r, flat, row, hbm.CmdRD, col, n, nil)
					if err != nil {
						r.read = read // ReadBankSB returns no bursts with an error
					}
					return err
				}
				for u := 0; u < cfg.PIMUnits; u++ {
					err := refRow(r, u*cfg.BanksPerUnit(), cfg.GRFRow(), hbm.CmdRD, uint32(half*cfg.GRFDepth()), regs, nil)
					if err != nil {
						return err
					}
				}
				return nil
			}
			return chain(func() error { return refPIMMode(r, false) }, func() error { return refMode(r, hbm.SBMRBank, nil) },
				access, func() error { return refMode(r, hbm.ABMRBank, nil) }, func() error { return refPIMMode(r, true) })
		},
	}
}

// packetState is everything a rig leaves observable after a packet.
type packetState struct {
	Err      string
	Now      int64
	HBM      hbm.Stats
	BankOps  []hbm.BankOps
	Ctrl     memctrl.Stats
	Phases   PhaseBreakdown
	Cmds     []obs.CmdEvent
	Modes    []obs.ModeEvent
	PIMs     []obs.PIMEvent
	Triggers int64
	Ops      [isa.NumOpcodes]int64
	GRF      []fp16.Vector
	Read     []string
}

func (r *packetRig) observe(err error) packetState {
	ch, exec := r.rt.Chans[0], r.rt.Execs[0]
	log := r.tl.Channel(0)
	s := packetState{
		Err: fmt.Sprint(err), Now: ch.Now(), HBM: ch.PCH().Stats(), BankOps: ch.PCH().BankOps(),
		Ctrl: ch.Stats(), Phases: r.rt.chs[0].phases,
		Cmds: log.Cmds(), Modes: log.Modes(), PIMs: log.PIMs(),
		Triggers: exec.Triggers(), Ops: exec.OpCountsArray(), Read: r.read,
	}
	if r.rt.Cfg.Functional {
		for u := 0; u < exec.NumUnits(); u++ {
			for h := 0; h < 2; h++ {
				for i := 0; i < r.rt.Cfg.GRFDepth(); i++ {
					s.GRF = append(s.GRF, append(fp16.Vector(nil), exec.Unit(u).GRF(h, i)...))
				}
			}
		}
	}
	return s
}

// packetPayloads returns n WR payloads of finite, modest lanes.
func packetPayloads(n int) [][]byte {
	data := make([][]byte, n)
	for i := range data {
		data[i] = make([]byte, 32)
		for j := range data[i] {
			data[i][j] = byte(7*i + j)
		}
		for j := 1; j < 32; j += 2 {
			data[i][j] &= 0x3b
		}
	}
	return data
}

// rowPacket is the packet of a row visit of passes passes of the rigs'
// kernel, from pass 0 of the row: per pass, the fenced load, MAC and
// store windows, the load's payloads those of its pass.
func rowPacket(passes int) []memctrl.Entry {
	var pk []memctrl.Entry
	for j := 0; j < passes; j++ {
		col := uint32(8 * j)
		pk = append(pk,
			memctrl.Entry{Kind: hbm.CmdWR, Col: col, N: 8, Data: 8 * j, Fence: true},
			memctrl.Entry{Kind: hbm.CmdRD, Col: col, N: 8, Fence: true},
			memctrl.Entry{Kind: hbm.CmdWR, Bank: 1, Col: col, N: 8, Fence: true})
	}
	return pk
}

// visits is a row visit step per packet, on the two rows in turn, so the
// device proves its trigger path anew after each ACT.
func visits(packets [][]memctrl.Entry, data [][]byte) []step {
	steps := make([]step, len(packets))
	for i, pk := range packets {
		steps[i] = visitStep(packetRows[i%2], pk, data)
	}
	return steps
}

// twinSteps runs steps in two rigs of pc, through the runtime's packets
// and through the reference's single commands, and requires the same
// observable state after every step, and the same Chrome timeline at the
// end. It returns the packet side's rig and its last step's error.
func twinSteps(t testing.TB, pc packetCase, steps []step) (*packetRig, error) {
	t.Helper()
	pkt, ref := newPacketRig(t, pc), newPacketRig(t, pc)
	var err error
	for i, st := range steps {
		err = st.pkt(pkt)
		got, want := pkt.observe(err), ref.observe(st.ref(ref))
		if !reflect.DeepEqual(got, want) {
			gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
			for f := 0; f < gv.NumField(); f++ {
				if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
					t.Errorf("step %d: %s differs:\npacket  %v\nsingles %v", i, gv.Type().Field(f).Name,
						clip(gv.Field(f).Interface()), clip(wv.Field(f).Interface()))
				}
			}
			t.FailNow()
		}
	}
	var got, want bytes.Buffer
	if err := pkt.tl.WriteChrome(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.tl.WriteChrome(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Chrome timelines differ (%d vs %d bytes)", got.Len(), want.Len())
	}
	return pkt, err
}

func clip(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 400 {
		s = s[:400] + "..."
	}
	return s
}

// refreshes reports whether a refresh fell inside an entry (between two
// consecutive columns of one window) and between entries, from a log's
// commands: a REF's neighbouring triggers continue one window when they
// share kind and bank and the second is the first's next column.
func refreshes(cmds []obs.CmdEvent) (inside, between bool) {
	var prev *obs.CmdEvent
	ref := false
	for i := range cmds {
		c := &cmds[i]
		switch c.Kind {
		case "REF":
			ref = true
		case "RD", "WR":
			if ref && prev != nil {
				if c.Kind == prev.Kind && c.Bank == prev.Bank && c.Col == prev.Col+1 {
					inside = true
				} else {
					between = true
				}
			}
			prev, ref = c, false
		}
	}
	return inside, between
}

// hostSteps is a twin run's host traffic between its row visits: each
// configuration-row access and each SB access once, on varied banks,
// rows and columns.
func hostSteps() []step {
	return []step{
		confStep(0, 0),
		bankStep(0, 5, 42, 3, 12),
		confStep(1, fp16.FromFloat32(0.75)),
		bankStep(1, 5, 42, 1, 16),
		confStep(2, 0),
		bankStep(2, 0, 0, 1, 7),
		bankStep(1, 12, packetRows[1], 0, 32),
	}
}

// TestTriggerPacketMatchesRuns issues kernel row visits, and the
// configuration-row and SB bank-row packets between them, as the
// runtime's packets into one stack and as the same commands one
// Channel.Issue call each, with the same fences and phase notes, into a
// twin, and requires the same of everything observable: the error, the
// channel clock, the device's and the controller's counters, the phase
// ledger, the bursts read, the command log's readers and its Chrome
// export, the executor's counters and registers. The cases cover
// functional WR payloads, a timing-only device, refreshes that fall due
// inside an entry and between entries, a delaying fault injector, free
// fences, and entries that run past the row's last column.
func TestTriggerPacketMatchesRuns(t *testing.T) {
	data := packetPayloads(32)
	var steps []step
	host := hostSteps()
	for i := 0; i < 12; i++ {
		steps = append(steps, visitStep(packetRows[i%2], rowPacket(1+i%4), data))
		if i%2 == 1 {
			steps = append(steps, host[i/2%len(host)])
		}
	}
	for _, pc := range []packetCase{
		{name: "functional", functional: true},
		{name: "timing"},
		{name: "refresh", functional: true, refi: 500},
		{name: "delay", functional: true, delay: true, refi: 900},
		{name: "in-order", functional: true, inOrder: true},
		{name: "in-order-timing", inOrder: true, refi: 500},
	} {
		t.Run(pc.name, func(t *testing.T) {
			r, err := twinSteps(t, pc, steps)
			if err != nil {
				t.Fatal(err)
			}
			if pc.refi == 500 {
				if inside, between := refreshes(r.tl.Channel(0).Cmds()); !inside || !between {
					t.Errorf("refresh inside an entry %v, between entries %v; want both", inside, between)
				}
			}
		})
	}
	t.Run("bad-column", func(t *testing.T) {
		pk := rowPacket(4)
		pk[4].Col = 60 // the MAC window of pass 1 runs past column 63
		_, err := twinSteps(t, packetCase{functional: true}, visits([][]memctrl.Entry{rowPacket(2), pk}, data))
		if want := "runtime: ch0 RD bg0 b0 col64: hbm: "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("error %v, want %q...", err, want)
		}
	})
	t.Run("bad-bank-column", func(t *testing.T) {
		_, err := twinSteps(t, packetCase{functional: true}, []step{bankStep(0, 6, 42, 60, 8)})
		if want := "runtime: ch0 WR bg1 b2 col64: hbm: "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("error %v, want %q...", err, want)
		}
	})
}

// TestIssuePacketZeroAlloc pins that a warm packet allocates nothing, on
// a functional and on a timing-only device: a whole row visit of four
// passes, the configuration-row packets around it (PIM_OP_MODE, ZeroGRF,
// CRF and SRF programming), an SB bank-row write and a GRF unload.
func TestIssuePacketZeroAlloc(t *testing.T) {
	pk := rowPacket(4)
	m := []fp16.F16{fp16.One}
	row := make([]byte, 16*32)
	for _, functional := range []bool{true, false} {
		r := newPacketRig(t, packetCase{functional: functional})
		rt := r.rt
		rt.Chans[0].Log, rt.Execs[0].Log = nil, nil
		var data [][]byte
		if functional {
			data = packetPayloads(32)
		}
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"row visit", func() {
				rt.Execs[0].ResetPPC() // the kernel takes 128 passes
				must(rt.IssuePacket(0, packetRows[0], pk, data))
			}},
			{"configuration rows", func() {
				must(rt.SetPIMMode(0, false))
				must(rt.ZeroGRF(0))
				must(rt.ProgramCRF(0, r.crf))
				must(rt.ProgramSRF(0, m, m))
				must(rt.SetPIMMode(0, true))
			}},
			{"bank row and unload", func() {
				must(rt.SetPIMMode(0, false))
				must(rt.ExitToSB(0))
				must(rt.WriteBankSB(0, 5, 42, 8, row))
				must(rt.ReadGRFRowSB(0, 1, 8, nil))
				must(rt.EnterAB(0))
				must(rt.SetPIMMode(0, true))
			}},
		} {
			c.op()
			if allocs := testing.AllocsPerRun(50, c.op); allocs != 0 {
				t.Errorf("functional %v: a warm %s allocates %.1f times, want 0", functional, c.name, allocs)
			}
		}
	}
}

// FuzzTriggerPacket runs TestTriggerPacketMatchesRuns' twin comparison
// over fuzzer-built steps: flags pick the device and controller setting
// (functional, a Delayer, free fences, a short tREFI), and every four
// bytes of raw make one trigger entry, of either kind, bank select and
// fence, any column up to a few past the row's end, 1 to 16 commands and
// any payload offset, which may close its packet; or, flagged in the
// first byte, a host step between row visits: a configuration-row access
// (ZeroGRF, ProgramSRF, ProgramCRF) or an SB access (a bank row's write
// or read of 1 to 16 columns from any column up to a few past the row's
// end, or a GRF unload).
func FuzzTriggerPacket(f *testing.F) {
	var visit []byte
	for _, e := range rowPacket(4) {
		b0 := byte(e.Bank<<1) | 4
		if e.Kind == hbm.CmdWR {
			b0 |= 1
		}
		visit = append(visit, b0, byte(e.Col), byte(e.N-1), byte(e.Data))
	}
	f.Add(byte(1), visit)
	f.Add(byte(0x5b), visit)
	f.Add(byte(3), []byte{1, 60, 7, 0, 0, 0, 15, 0})
	f.Add(byte(0x19), append(append([]byte{0x10, 1, 0x3c, 0, 0x30, 0, 0x2d, 7, 0x30, 2, 0x14, 1}, visit...), 0x30, 9, 0x1e, 30))
	data := packetPayloads(32)
	f.Fuzz(func(t *testing.T, flags byte, raw []byte) {
		pc := packetCase{functional: flags&1 != 0, delay: flags&2 != 0, inOrder: flags&4 != 0}
		if flags&8 != 0 {
			pc.refi = 500 + 40*int(flags>>4)
		}
		var steps []step
		var pk []memctrl.Entry
		visit := func() {
			if pk != nil {
				steps, pk = append(steps, visitStep(packetRows[len(steps)%2], pk, data)), nil
			}
		}
		for ; len(raw) >= 4 && len(steps) < 16; raw = raw[4:] {
			if raw[0]&0x10 != 0 {
				visit()
				what := int(raw[1]) % 3
				if raw[0]&0x20 == 0 {
					steps = append(steps, confStep(what, fp16.F16(uint16(raw[2])|uint16(raw[3]&0x3b)<<8)))
				} else {
					row := [...]uint32{packetRows[0], packetRows[1], 42, 43}[raw[2]&3]
					steps = append(steps, bankStep(what, int(raw[1]>>2)%16, row, uint32(raw[3])%72, 1+int(raw[2]>>2)%16))
				}
				continue
			}
			n := 1 + int(raw[2])%16
			e := memctrl.Entry{Kind: hbm.CmdRD, Bank: int(raw[0]>>1) & 1, Col: uint32(raw[1]) % 72, N: n,
				Data: int(raw[3]) % (len(data) - n + 1), Fence: raw[0]&4 != 0}
			if raw[0]&1 != 0 {
				e.Kind = hbm.CmdWR
			}
			if pk = append(pk, e); raw[0]&8 != 0 || len(pk) == 12 {
				visit()
			}
		}
		visit()
		twinSteps(t, pc, steps)
	})
}
