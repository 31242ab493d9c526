package pim

import (
	"encoding/binary"
	"testing"

	"pimsim/internal/hbm"
	"pimsim/internal/isa"
)

// zeroAllocKernel is one trigger form whose steady state must not
// allocate: the instruction, looped by JUMP, and the command that triggers
// it (a WR carries a full payload).
type zeroAllocKernel struct {
	name, src string
	bank      int
	wr        bool
	variant   hbm.Variant
}

// checkZeroAlloc runs k on a plain device, with the ECC engine on, with
// a fault injector attached and on a timing-only device: once the kernel
// is programmed and the first trigger has compiled it and lazily allocated
// the touched bank rows, every further trigger (the table walk, the
// batched bank read, the data step over all units, retire accounting) must
// run without allocating.
func checkZeroAlloc(t *testing.T, kernels []zeroAllocKernel) {
	for _, dev := range []string{"plain", "ecc", "fault", "timing"} {
		for _, k := range kernels {
			t.Run(dev+"/"+k.name, func(t *testing.T) {
				cfg := hbm.PIMHBMVariantConfig(k.variant, 1000)
				cfg.ECC = dev == "ecc"
				cfg.Functional = dev != "timing"
				d, _ := newDriver(t, cfg)
				if dev == "fault" {
					d.p.AttachFault(flipReadout{bank: 6})
				}
				d.enterAB()
				d.programCRF(mustAssemble(t, k.src+"\nJUMP -1, 127\nEXIT"))
				d.setPIMOp(true)
				d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 7})

				trig := hbm.Command{Kind: hbm.CmdRD, Bank: k.bank, Col: 3}
				if k.wr {
					trig.Kind, trig.Data = hbm.CmdWR, splat(0x3c00)
				}
				d.issue(trig) // first trigger allocates each unit's bank row storage

				// 64 measured runs plus AllocsPerRun's warm-up stay within the
				// 128 triggers the JUMP loop accepts before EXIT.
				if avg := testing.AllocsPerRun(64, func() { d.issue(trig) }); avg != 0 {
					t.Errorf("AB-PIM trigger allocates %v objects per command, want 0", avg)
				}
			})
		}
	}
}

// TestTriggerZeroAlloc pins the RD-triggered forms of the data step: the
// burst forms with a bank operand as SRC1 (MAC, ADD, MAD) or SRC0 (MAD,
// MUL) and with register operands only, and moves from a bank into a GRF
// (with ReLU) and into both SRF halves. This is the inner loop of every
// functional kernel the simulator executes.
func TestTriggerZeroAlloc(t *testing.T) {
	checkZeroAlloc(t, []zeroAllocKernel{
		{name: "MAC-even", src: "MAC(AAM) GRF_B, GRF_A, EVEN_BANK"},
		{name: "ADD-odd", src: "ADD(AAM) GRF_A, GRF_A, ODD_BANK", bank: 1},
		{name: "MAD-even", src: "MAD(AAM) GRF_A, EVEN_BANK, SRF_M"},
		{name: "MUL-bank-SRC0", src: "MUL(AAM) GRF_A, EVEN_BANK, SRF_M"},
		{name: "MAD-bank-SRC1", src: "MAD(AAM) GRF_B, GRF_A, ODD_BANK", bank: 1},
		{name: "ADD-registers", src: "ADD(AAM) GRF_A, GRF_B, SRF_A"},
		{name: "MOV-relu", src: "MOV(AAM_RELU) GRF_B, EVEN_BANK"},
		{name: "FILL-SRF_M", src: "FILL(AAM) SRF_M, EVEN_BANK"},
		{name: "FILL-SRF_A", src: "FILL(AAM) SRF_A, ODD_BANK", bank: 1},
	})
}

// TestWRTriggerZeroAlloc pins the WR-triggered forms: a payload every
// unit captures into a GRF (how a kernel's input vector is loaded) or an
// SRF half, a MOV from a GRF to each unit's bank (with ReLU), and the SRW
// variant's forward of the payload into a MAC's SRC0.
func TestWRTriggerZeroAlloc(t *testing.T) {
	checkZeroAlloc(t, []zeroAllocKernel{
		{name: "MOV-payload", src: "MOV(AAM) GRF_A, EVEN_BANK", wr: true},
		{name: "FILL-payload-SRF_A", src: "FILL(AAM) SRF_A, EVEN_BANK", wr: true},
		{name: "MOV-to-bank", src: "MOV(AAM) ODD_BANK, GRF_A", bank: 1, wr: true},
		{name: "MOV-relu-to-bank", src: "MOV(AAM_RELU) EVEN_BANK, GRF_B", wr: true},
		{name: "SRW-forward", src: "MAC(AAM) GRF_B, GRF_A, EVEN_BANK", wr: true, variant: hbm.VariantSRW},
	})
}

// TestReprogramZeroAlloc: reprogramming the CRF, with the words it holds
// or with another program, then re-entering AB-PIM mode and running an AAM
// window allocates nothing, on a functional and on a timing-only device:
// the sequencer compiles a program into fixed arrays, so a kernel that
// reprograms every tile cannot raise its memory.
func TestReprogramZeroAlloc(t *testing.T) {
	var progs [2][]byte // CRF column 0 of each program
	for i, src := range []string{
		"MAC(AAM) GRF_B, GRF_A, EVEN_BANK\nJUMP -1, 7\nEXIT",
		"MOV(AAM) GRF_A, EVEN_BANK\nJUMP -1, 7\nEXIT",
	} {
		progs[i] = make([]byte, 32)
		for j, w := range encodeWords(t, mustAssemble(t, src)) {
			binary.LittleEndian.PutUint32(progs[i][4*j:], w)
		}
	}
	on, off := make([]byte, 32), make([]byte, 32)
	on[0] = 1
	for _, functional := range []bool{true, false} {
		cfg := hbm.PIMHBMConfig(1000)
		cfg.Functional = functional
		d, exec := newDriver(t, cfg)
		d.enterAB()
		window := func(prog []byte) {
			d.issue(hbm.Command{Kind: hbm.CmdACT, Row: cfg.CRFRow()})
			d.issue(hbm.Command{Kind: hbm.CmdWR, Col: 0, Data: prog})
			d.issue(hbm.Command{Kind: hbm.CmdPREA})
			d.issue(hbm.Command{Kind: hbm.CmdACT, Bank: hbm.ABMRBank, Row: cfg.ModeRow()})
			d.issue(hbm.Command{Kind: hbm.CmdWR, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: on})
			d.issue(hbm.Command{Kind: hbm.CmdPRE, Bank: hbm.ABMRBank})
			d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 7})
			for col := uint32(0); col < 8; col++ {
				d.issue(hbm.Command{Kind: hbm.CmdRD, Col: col})
			}
			d.issue(hbm.Command{Kind: hbm.CmdPREA})
			d.issue(hbm.Command{Kind: hbm.CmdACT, Bank: hbm.ABMRBank, Row: cfg.ModeRow()})
			d.issue(hbm.Command{Kind: hbm.CmdWR, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: off})
			d.issue(hbm.Command{Kind: hbm.CmdPRE, Bank: hbm.ABMRBank})
		}
		window(progs[0])
		window(progs[1])
		if avg := testing.AllocsPerRun(16, func() { window(progs[0]) }); avg != 0 {
			t.Errorf("functional=%v: same program again: %v allocations per window, want 0", functional, avg)
		}
		if avg := testing.AllocsPerRun(16, func() { window(progs[0]); window(progs[1]) }); avg != 0 {
			t.Errorf("functional=%v: alternating programs: %v allocations per two windows, want 0", functional, avg)
		}
		if counts := exec.OpCountsArray(); counts[isa.MAC] == 0 || counts[isa.MOV] == 0 || !exec.AllDone() {
			t.Errorf("functional=%v: retired %v, AllDone %v: the windows did not run both programs to EXIT", functional, counts, exec.AllDone())
		}
	}
}
