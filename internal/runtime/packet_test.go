package runtime

import (
	"bytes"
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
// kernel in the CRF that
// per pass loads GRF_A from the WR payloads (8 WR), accumulates GRF_A x
// even bank into GRF_B (8 RD) and stores ReLU(GRF_B) to the odd banks
// (8 WR), 128 times.
type packetRig struct {
	rt *Runtime
	tl *obs.Timeline
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
	prog, err := isa.Assemble(`
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		MOV(AAM_RELU) ODD_BANK, GRF_B
		JUMP -1, 7
		JUMP -6, 127
		EXIT`)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { return rt.EnterAB(0) },
		func() error { return rt.ProgramCRF(0, prog) },
		func() error { return rt.SetPIMMode(0, true) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if pc.delay {
		rt.Chans[0].Delay = fault.New(fault.Config{Seed: 5, SpikeEvery: 7, SpikeCycles: 50})
	}
	rt.SetGuaranteeOrder(pc.inOrder)
	r.tl.Reset()
	return r
}

// issueEntries is the row visit a packet replaces: the row's ACT, then
// per entry one Channel.IssueRun, its trigger phase noted alone, and its
// fence, then the PREA.
func issueEntries(r *Runtime, ch int, row uint32, pk []memctrl.Trigger, data [][]byte) error {
	if _, err := r.run(ch, hbm.Command{Kind: hbm.CmdACT, Row: row}, 1, nil); err != nil {
		return err
	}
	for _, e := range pk {
		var d [][]byte
		if data != nil && e.Kind == hbm.CmdWR {
			d = data[e.Data : e.Data+e.N]
		}
		start := r.Chans[ch].Now()
		if _, err := r.run(ch, hbm.Command{Kind: e.Kind, Bank: e.Bank, Col: e.Col}, e.N, d); err != nil {
			return err
		}
		r.notePhase(ch, PhaseTrigger, e.N, start)
		if e.Fence {
			r.Chans[ch].Fence()
		}
	}
	_, err := r.run(ch, hbm.Command{Kind: hbm.CmdPREA}, 1, nil)
	return err
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
}

func (r *packetRig) observe(err error) packetState {
	ch, exec := r.rt.Chans[0], r.rt.Execs[0]
	log := r.tl.Channel(0)
	s := packetState{
		Err: fmt.Sprint(err), Now: ch.Now(), HBM: ch.PCH().Stats(), BankOps: ch.PCH().BankOps(),
		Ctrl: ch.Stats(), Phases: r.rt.chs[0].phases,
		Cmds: log.Cmds(), Modes: log.Modes(), PIMs: log.PIMs(),
		Triggers: exec.Triggers(), Ops: exec.OpCountsArray(),
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
func rowPacket(passes int) []memctrl.Trigger {
	var pk []memctrl.Trigger
	for j := 0; j < passes; j++ {
		col := uint32(8 * j)
		pk = append(pk,
			memctrl.Trigger{Kind: hbm.CmdWR, Col: col, N: 8, Data: 8 * j, Fence: true},
			memctrl.Trigger{Kind: hbm.CmdRD, Col: col, N: 8, Fence: true},
			memctrl.Trigger{Kind: hbm.CmdWR, Bank: 1, Col: col, N: 8, Fence: true})
	}
	return pk
}

// twinPackets issues packets into two rigs of pc, through the packet
// path and through the per-entry loop, and requires the same observable
// state after every packet, and the same Chrome timeline at the end.
// The packets visit the two rows in turn, so the device proves its
// trigger path anew after each ACT. It returns the packet path's rig and
// its last packet's error.
func twinPackets(t testing.TB, pc packetCase, packets [][]memctrl.Trigger, data [][]byte) (*packetRig, error) {
	t.Helper()
	pkt, ref := newPacketRig(t, pc), newPacketRig(t, pc)
	var err error
	if !pc.functional {
		data = nil
	}
	for i, pk := range packets {
		row := packetRows[i%2]
		err = pkt.rt.IssuePacket(0, row, pk, data)
		got, want := pkt.observe(err), ref.observe(issueEntries(ref.rt, 0, row, pk, data))
		if !reflect.DeepEqual(got, want) {
			gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
			for f := 0; f < gv.NumField(); f++ {
				if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
					t.Errorf("packet %d %v: %s differs:\npacket  %v\nentries %v", i, pk, gv.Type().Field(f).Name,
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

// TestTriggerPacketMatchesRuns issues kernel row visits as packets into
// one stack and entry by entry (one memctrl run, its phase and its fence
// each) into a twin, and requires the same of everything observable:
// the error, the channel clock, the device's and the controller's
// counters, the phase ledger, the command log's readers and its Chrome
// export, the executor's counters and registers. The cases cover
// functional WR payloads, a timing-only device, refreshes that fall due
// inside an entry and between entries, a delaying fault injector, free
// fences, and an entry that runs past the row's last column.
func TestTriggerPacketMatchesRuns(t *testing.T) {
	data := packetPayloads(32)
	visits := make([][]memctrl.Trigger, 12)
	for i := range visits {
		visits[i] = rowPacket(1 + i%4)
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
			r, err := twinPackets(t, pc, visits, data)
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
		_, err := twinPackets(t, packetCase{functional: true}, [][]memctrl.Trigger{rowPacket(2), pk}, data)
		if want := "runtime: ch0 RD bg0 b0 col64: hbm: "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("error %v, want %q...", err, want)
		}
	})
}

// TestIssuePacketZeroAlloc pins that a warm packet, a whole row visit of
// four passes, allocates nothing on a functional and on a timing-only
// device.
func TestIssuePacketZeroAlloc(t *testing.T) {
	pk := rowPacket(4)
	for _, functional := range []bool{true, false} {
		r := newPacketRig(t, packetCase{functional: functional})
		r.rt.Chans[0].Log, r.rt.Execs[0].Log = nil, nil
		var data [][]byte
		if functional {
			data = packetPayloads(32)
		}
		issue := func() {
			r.rt.Execs[0].ResetPPC() // the kernel takes 128 passes
			if err := r.rt.IssuePacket(0, packetRows[0], pk, data); err != nil {
				t.Fatal(err)
			}
		}
		issue()
		if allocs := testing.AllocsPerRun(50, issue); allocs != 0 {
			t.Errorf("functional %v: a warm packet allocates %.1f times, want 0", functional, allocs)
		}
	}
}

// FuzzTriggerPacket runs TestTriggerPacketMatchesRuns' twin comparison
// over fuzzer-built packets: flags pick the device and controller
// setting (functional, a Delayer, free fences, a short tREFI), and every
// four bytes of raw make one entry, of either kind, bank select and
// fence, any column up to a few past the row's end, 1 to 16 commands and
// any payload offset; an entry may close its packet.
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
	data := packetPayloads(32)
	f.Fuzz(func(t *testing.T, flags byte, raw []byte) {
		pc := packetCase{functional: flags&1 != 0, delay: flags&2 != 0, inOrder: flags&4 != 0}
		if flags&8 != 0 {
			pc.refi = 500 + 40*int(flags>>4)
		}
		var packets [][]memctrl.Trigger
		var pk []memctrl.Trigger
		for ; len(raw) >= 4 && len(packets) < 16; raw = raw[4:] {
			n := 1 + int(raw[2])%16
			e := memctrl.Trigger{Kind: hbm.CmdRD, Bank: int(raw[0]>>1) & 1, Col: uint32(raw[1]) % 72, N: n,
				Data: int(raw[3]) % (len(data) - n + 1), Fence: raw[0]&4 != 0}
			if raw[0]&1 != 0 {
				e.Kind = hbm.CmdWR
			}
			if pk = append(pk, e); raw[0]&8 != 0 || len(pk) == 12 {
				packets, pk = append(packets, pk), nil
			}
		}
		if pk != nil {
			packets = append(packets, pk)
		}
		twinPackets(t, pc, packets, data)
	})
}
