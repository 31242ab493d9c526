package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"testing"

	"pimsim/internal/engine"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/memctrl"
)

func newRT(t *testing.T, channels int) *Runtime {
	t.Helper()
	cfg := hbm.PIMHBMConfig(1000)
	cfg.PseudoChannels = channels
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New([]*hbm.Device{dev})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// assemble assembles and encodes a microkernel, as a kernel plan does.
func assemble(t testing.TB, src string) []uint32 {
	t.Helper()
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return words
}

func TestModeSequences(t *testing.T) {
	rt := newRT(t, 2)
	pch := rt.Chans[0].PCH()
	if pch.Mode() != hbm.ModeSB {
		t.Fatal("not in SB initially")
	}
	if err := rt.EnterAB(0); err != nil {
		t.Fatal(err)
	}
	if pch.Mode() != hbm.ModeAB {
		t.Fatalf("mode %s after EnterAB", pch.Mode())
	}
	if err := rt.SetPIMMode(0, true); err != nil {
		t.Fatal(err)
	}
	if pch.Mode() != hbm.ModeABPIM {
		t.Fatalf("mode %s after SetPIMMode", pch.Mode())
	}
	if err := rt.SetPIMMode(0, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.ExitToSB(0); err != nil {
		t.Fatal(err)
	}
	if pch.Mode() != hbm.ModeSB {
		t.Fatalf("mode %s after ExitToSB", pch.Mode())
	}
	// The other channel is untouched.
	if rt.Chans[1].PCH().Mode() != hbm.ModeSB {
		t.Error("channel 1 mode leaked")
	}
}

func TestProgramCRFRoundTrip(t *testing.T) {
	rt := newRT(t, 1)
	prog := assemble(t, `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		EXIT
	`)
	if err := rt.EnterAB(0); err != nil {
		t.Fatal(err)
	}
	if err := rt.ProgramCRF(0, prog); err != nil {
		t.Fatal(err)
	}
	// Read back through the executor's register space.
	buf := make([]byte, 32)
	if _, err := rt.Execs[0].RegisterRead(3, 1, hbm.RegCRF, 0, [][]byte{buf}); err != nil {
		t.Fatal(err)
	}
	words := make([]uint32, 3)
	for i := range words {
		words[i] = uint32(buf[4*i]) | uint32(buf[4*i+1])<<8 | uint32(buf[4*i+2])<<16 | uint32(buf[4*i+3])<<24
	}
	back, err := isa.DecodeProgram(words)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0].Op != isa.MOV || back[2].Op != isa.EXIT {
		t.Fatalf("read back %v", back)
	}
}

func TestProgramSRFAndZeroGRF(t *testing.T) {
	rt := newRT(t, 1)
	if err := rt.EnterAB(0); err != nil {
		t.Fatal(err)
	}
	m := make([]fp16.F16, isa.SRFEntries)
	a := make([]fp16.F16, isa.SRFEntries)
	for i := range m {
		m[i] = fp16.FromFloat32(float32(i + 1))
		a[i] = fp16.FromFloat32(float32(-i))
	}
	if err := rt.ProgramSRF(0, m, a); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < rt.Cfg.PIMUnits; u++ {
		unit := rt.Execs[0].Unit(u)
		for i := range m {
			if unit.SRF(0, i) != m[i] || unit.SRF(1, i) != a[i] {
				t.Fatalf("unit %d SRF[%d] = %v/%v", u, i, unit.SRF(0, i), unit.SRF(1, i))
			}
		}
	}
	if err := rt.ZeroGRF(0); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < rt.Cfg.PIMUnits; u++ {
		for r := 0; r < isa.GRFEntries; r++ {
			v := rt.Execs[0].Unit(u).GRF(1, r)
			for l := range v {
				if v[l] != fp16.Zero {
					t.Fatalf("unit %d GRF_B[%d][%d] = %v after ZeroGRF", u, r, l, v[l])
				}
			}
		}
	}
}

func TestBankWriteReadHelpers(t *testing.T) {
	rt := newRT(t, 1)
	data := fp16.FromFloat32s([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}).Bytes()
	if err := rt.WriteBankSB(0, 5, 40, 7, data); err != nil {
		t.Fatal(err)
	}
	got, err := rt.ReadBankSB(0, 5, 40, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %x, wrote %x", got, data)
	}
	// Several columns in one run each way.
	row := bytes.Repeat(data, 3)
	if err := rt.WriteBankSB(0, 6, 41, 1, row); err != nil {
		t.Fatal(err)
	}
	back, err := rt.ReadBankSB(0, 6, 41, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, row) {
		t.Fatalf("read back %x, wrote %x", back, row)
	}
	// A read is a fresh slice: a later write leaves it alone.
	if err := rt.WriteBankSB(0, 6, 41, 1, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, row) {
		t.Error("a later write reached a returned read")
	}
}

func TestGRFReadback(t *testing.T) {
	rt := newRT(t, 1)
	// Write GRF via the broadcast register space, read back per unit.
	if err := rt.EnterAB(0); err != nil {
		t.Fatal(err)
	}
	v := fp16.FromFloat32s([]float32{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, -1, -2, -3, -4, -5, -6})
	// GRF_B[2] is column 8+2 of the GRF row.
	ch := rt.Chans[0]
	if _, err := ch.Issue(hbm.Command{Kind: hbm.CmdACT, Row: rt.Cfg.GRFRow()}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Issue(hbm.Command{Kind: hbm.CmdWR, Col: 10, Data: v.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Issue(hbm.Command{Kind: hbm.CmdPREA}); err != nil {
		t.Fatal(err)
	}
	if err := rt.ExitToSB(0); err != nil {
		t.Fatal(err)
	}
	var all [][]fp16.Vector
	err := rt.ReadGRFRowSB(0, 1, 4, func(u int, bursts [][]byte) {
		if u != len(all) {
			t.Fatalf("unit %d's bursts handed over after %d units'", u, len(all))
		}
		regs := make([]fp16.Vector, len(bursts))
		for i, b := range bursts {
			regs[i] = fp16.VectorFromBytes(b)
		}
		all = append(all, regs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != rt.Cfg.PIMUnits || len(all[0]) != 4 {
		t.Fatalf("shape %dx%d", len(all), len(all[0]))
	}
	for _, u := range []int{3, 5} {
		for l := range v {
			if got := all[u][2][l]; got != v[l] {
				t.Fatalf("unit %d GRF_B[2] lane %d: %v != %v", u, l, got, v[l])
			}
		}
	}
}

func TestRuntimeValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty device list accepted")
	}
	a := hbm.MustNewDevice(hbm.PIMHBMConfig(1000))
	b := hbm.MustNewDevice(hbm.PIMHBMConfig(1200))
	if _, err := New([]*hbm.Device{a, b}); err == nil {
		t.Error("heterogeneous devices accepted")
	}
}

func TestEffectiveChannels(t *testing.T) {
	rt := newRT(t, 4)
	if rt.EffectiveChannels() != 4 {
		t.Error("functional runtime must drive all channels")
	}
	cfg := hbm.PIMHBMConfig(1000)
	cfg.PseudoChannels = 4
	cfg.Functional = false
	dev := hbm.MustNewDevice(cfg)
	rt2, err := New([]*hbm.Device{dev})
	if err != nil {
		t.Fatal(err)
	}
	rt2.SimChannels = 1
	if rt2.EffectiveChannels() != 1 {
		t.Error("SimChannels ignored")
	}
	rt2.SimChannels = 99
	if rt2.EffectiveChannels() != 4 {
		t.Error("oversized SimChannels not clamped")
	}
}

func TestErrorPropagation(t *testing.T) {
	rt := newRT(t, 1)
	// SetPIMMode in SB mode is an illegal register write: the error must
	// carry channel and command context.
	if err := rt.SetPIMMode(0, true); err == nil {
		t.Error("PIM_OP_MODE accepted in SB mode")
	}
	// PREA with nothing open is fine (it is idempotent)...
	if _, err := rt.packet(0, preA[:], nil); err != nil {
		t.Errorf("PREA on idle banks: %v", err)
	}
	// ...but a trigger outside AB-PIM is a plain column command: in SB
	// mode the row visit opens bank 0 alone, and bank 1 is idle.
	if err := rt.IssuePacket(0, 0, []memctrl.Entry{{Kind: hbm.CmdRD, Bank: 1, N: 1}}, nil); err == nil {
		t.Error("trigger accepted in SB mode with idle banks")
	}
	if err := rt.Recover(0); err != nil {
		t.Fatal(err)
	}
	// Oversized CRF program (an invalid instruction never reaches the
	// runtime: isa.EncodeProgram refuses it, TestEncodeProgramBounds).
	if err := rt.EnterAB(0); err != nil {
		t.Fatal(err)
	}
	if err := rt.ProgramCRF(0, make([]uint32, isa.CRFEntries+1)); err == nil {
		t.Error("oversized program accepted")
	}
}

func TestForEachChannelParallelAndErrors(t *testing.T) {
	rt := newRT(t, 4)
	rt.Cfg.Functional = false // allow SimChannels semantics; views share Cfg copy
	if rt.eng != (engine.Serial{}) {
		t.Fatalf("a new runtime runs %v, want engine.Serial{}", rt.eng)
	}
	rt.UseEngine(engine.NewParallel(4))
	defer rt.CloseEngine()

	var mu sync.Mutex
	seen := map[int]bool{}
	err := rt.ForEachChannel(func(ch int) error {
		mu.Lock()
		seen[ch] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Errorf("visited %d channels", len(seen))
	}

	wantErr := errors.New("boom")
	err = rt.ForEachChannel(func(ch int) error {
		if ch == 2 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("got %v", err)
	}

	// The serial engine stops at the first error. CloseEngine drops the
	// parallel engine installed above (which must run every channel to
	// reach its join barrier) and puts engine.Serial{} back.
	rt.CloseEngine()
	if rt.eng != (engine.Serial{}) {
		t.Fatalf("after CloseEngine the runtime runs %v, want engine.Serial{}", rt.eng)
	}
	calls := 0
	err = rt.ForEachChannel(func(ch int) error {
		calls++
		if ch == 1 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) || calls != 2 {
		t.Errorf("sequential: err=%v calls=%d", err, calls)
	}
}

func TestSetGuaranteeOrder(t *testing.T) {
	rt := newRT(t, 2)
	rt.SetGuaranteeOrder(true)
	for i, ch := range rt.Chans {
		if !ch.GuaranteeOrder {
			t.Errorf("channel %d not order-guaranteed", i)
		}
	}
	rt.SetGuaranteeOrder(false)
	if rt.Chans[0].GuaranteeOrder {
		t.Error("order guarantee not cleared")
	}
}

func TestProgramSRFOverlong(t *testing.T) {
	rt := newRT(t, 1)
	if err := rt.EnterAB(0); err != nil {
		t.Fatal(err)
	}
	// Shorter slices zero-fill; 8 each is the contract.
	m := make([]fp16.F16, 3)
	m[0] = fp16.One
	if err := rt.ProgramSRF(0, m, nil); err != nil {
		t.Fatal(err)
	}
	if rt.Execs[0].Unit(0).SRF(0, 0) != fp16.One {
		t.Error("partial SRF program lost data")
	}
	if rt.Execs[0].Unit(0).SRF(1, 7) != fp16.Zero {
		t.Error("unwritten SRF_A not zero")
	}
	// Oversized slices are an error, not a silent truncation (regression:
	// copy used to drop scalars past the SRF depth without telling anyone).
	over := make([]fp16.F16, isa.SRFEntries+1)
	if err := rt.ProgramSRF(0, over, nil); err == nil {
		t.Error("oversized SRF_M slice accepted")
	}
	if err := rt.ProgramSRF(0, nil, over); err == nil {
		t.Error("oversized SRF_A slice accepted")
	}
	// The channel must be untouched by the rejected call: a kernel can
	// still program a legal payload afterwards.
	if err := rt.ProgramSRF(0, m, m); err != nil {
		t.Fatalf("legal SRF program after rejection: %v", err)
	}
}

// TestProgramCRFOverflow: a program longer than the CRF is rejected before
// any command is issued.
func TestProgramCRFOverflow(t *testing.T) {
	rt := newRT(t, 1)
	if err := rt.EnterAB(0); err != nil {
		t.Fatal(err)
	}
	before := rt.Chans[0].Now()
	if err := rt.ProgramCRF(0, make([]uint32, isa.CRFEntries+1)); err == nil {
		t.Error("oversized CRF program accepted")
	}
	if rt.Chans[0].Now() != before {
		t.Error("rejected CRF program still issued commands")
	}
}

// TestProgramCRFPayloads: an encoded program lands in every unit's CRF as
// its words, the last column zero-padded past the program; and the payload
// buffer a channel's register writes share carries nothing from one write
// into the next (a mode write after a CRF write, zeros after a mode-on).
func TestProgramCRFPayloads(t *testing.T) {
	words := assemble(t, `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		JUMP -4, 27
		EXIT
		NOP
		NOP
		NOP
	`) // nine words: two CRF columns, the second mostly padding
	b := newRT(t, 1)
	if err := b.EnterAB(0); err != nil {
		t.Fatal(err)
	}
	// The buffer first holds a longer program's second column.
	if err := b.ProgramCRF(0, make([]uint32, 16)); err != nil {
		t.Fatal(err)
	}
	if err := b.ProgramCRF(0, words); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for u := 0; u < b.Cfg.PIMUnits; u++ {
		var back []uint32
		for col := uint32(0); col < 2; col++ {
			if _, err := b.Execs[0].RegisterRead(u, 1, hbm.RegCRF, col, [][]byte{buf}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 32; i += 4 {
				back = append(back, binary.LittleEndian.Uint32(buf[i:]))
			}
		}
		if !slices.Equal(back[:len(words)], words) || !slices.Equal(back[len(words):], make([]uint32, 16-len(words))) {
			t.Fatalf("unit %d CRF holds %x, want %x then zeros", u, back, words)
		}
	}

	// The shared buffer now holds CRF words: the mode and zero payloads
	// must not see them.
	if err := b.SetPIMMode(0, false); err != nil {
		t.Fatal(err)
	}
	if got := b.Chans[0].PCH().Mode(); got != hbm.ModeAB {
		t.Fatalf("mode-off after a CRF write left the channel in %v", got)
	}
	if err := b.SetPIMMode(0, true); err != nil {
		t.Fatal(err)
	}
	if got := b.Chans[0].PCH().Mode(); got != hbm.ModeABPIM {
		t.Fatalf("mode-on left the channel in %v", got)
	}
	if err := b.SetPIMMode(0, false); err != nil {
		t.Fatal(err)
	}
	if err := b.ZeroGRF(0); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < b.Cfg.PIMUnits; u++ {
		for r := 0; r < isa.GRFEntries; r++ {
			for l, v := range b.Execs[0].Unit(u).GRF(1, r) {
				if v != fp16.Zero {
					t.Fatalf("unit %d GRF_B[%d][%d] = %v after ZeroGRF", u, r, l, v)
				}
			}
		}
	}
}

// TestWriteBankSBMatchesColumns: a run of consecutive columns from one
// buffer stores what the same commands issued one at a time through the
// channel store, at the same cycles.
func TestWriteBankSBMatchesColumns(t *testing.T) {
	a, b := newRT(t, 1), newRT(t, 1)
	data := make([]byte, 3*32)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	bg, bank := a.Cfg.BankOf(6)
	for _, cmd := range []hbm.Command{
		{Kind: hbm.CmdACT, BG: bg, Bank: bank, Row: 41},
		{Kind: hbm.CmdWR, BG: bg, Bank: bank, Col: 4, Data: data[:32]},
		{Kind: hbm.CmdWR, BG: bg, Bank: bank, Col: 5, Data: data[32:64]},
		{Kind: hbm.CmdWR, BG: bg, Bank: bank, Col: 6, Data: data[64:]},
		{Kind: hbm.CmdPRE, BG: bg, Bank: bank},
	} {
		if _, err := a.Chans[0].Issue(cmd); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.WriteBankSB(0, 6, 41, 4, data); err != nil {
		t.Fatal(err)
	}
	if a.Now(0) != b.Now(0) || a.Chans[0].PCH().Stats() != b.Chans[0].PCH().Stats() {
		t.Errorf("one at a time: cycle %d %+v; run: cycle %d %+v",
			a.Now(0), a.Chans[0].PCH().Stats(), b.Now(0), b.Chans[0].PCH().Stats())
	}
	for _, rt := range []*Runtime{a, b} {
		back, err := rt.ReadBankSB(0, 6, 41, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Errorf("read back %x", back)
		}
	}
	if err := b.WriteBankSB(0, 6, 41, 0, data[:40]); err == nil {
		t.Error("a payload that is not whole columns was accepted")
	}
}

// TestReadGRFRowSBZeroAlloc pins the unload's contract: a warm unload
// allocates nothing, with a fold or without one, and hands every unit's
// bursts over in unit order, one per register, while they are the
// channel's read slots: the units' bursts are the same slots each time.
func TestReadGRFRowSBZeroAlloc(t *testing.T) {
	rt := newRT(t, 2)
	var units int
	var first *byte
	fold := func(u int, bursts [][]byte) {
		if u != units || len(bursts) != 4 || len(bursts[0]) != rt.Cfg.AccessBytes {
			t.Fatalf("unit %d handed %d bursts after %d units", u, len(bursts), units)
		}
		if u == 0 {
			first = &bursts[0][0]
		} else if &bursts[0][0] != first {
			t.Fatalf("unit %d's bursts are not the slots unit 0's were", u)
		}
		units++
	}
	for _, f := range []func(int, [][]byte){fold, nil} {
		if err := rt.ReadGRFRowSB(0, 1, 4, f); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			units = 0
			if err := rt.ReadGRFRowSB(0, 1, 4, f); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("warm ReadGRFRowSB allocates %.1f times, want 0", allocs)
		}
	}
}

func TestReadGRFRowSBBadHalf(t *testing.T) {
	rt := newRT(t, 1)
	if err := rt.ReadGRFRowSB(0, 2, 1, nil); err == nil {
		t.Error("GRF half 2 accepted")
	}
}
