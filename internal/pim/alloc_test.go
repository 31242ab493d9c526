package pim

import (
	"testing"

	"pimsim/internal/hbm"
)

// TestTriggerZeroAlloc pins the AB-PIM trigger path: once the kernel is
// programmed and the first trigger has lazily allocated the touched bank
// rows, every further triggering column command — decode, the batched bank
// read, the 16-lane operation, retire accounting — must run without
// allocating, on a plain device, with the ECC engine on and with a fault
// injector attached. This is the inner loop of every functional kernel the
// simulator executes.
func TestTriggerZeroAlloc(t *testing.T) {
	for _, dev := range []string{"plain", "ecc", "fault"} {
		for _, k := range []struct {
			name, src string
			bank      int
		}{
			{"MAC-even", "MAC(AAM) GRF_B, GRF_A, EVEN_BANK", 0},
			{"ADD-odd", "ADD(AAM) GRF_A, GRF_A, ODD_BANK", 1},
			{"MAD-even", "MAD(AAM) GRF_A, EVEN_BANK, SRF_M", 0},
		} {
			t.Run(dev+"/"+k.name, func(t *testing.T) {
				cfg := hbm.PIMHBMConfig(1000)
				cfg.ECC = dev == "ecc"
				d, _ := newDriver(t, cfg)
				if dev == "fault" {
					d.p.AttachFault(flipReadout{bank: 6})
				}
				d.enterAB()
				d.programCRF(mustAssemble(t, k.src+"\nJUMP -1, 127\nEXIT"))
				d.setPIMOp(true)
				d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 7})

				trig := hbm.Command{Kind: hbm.CmdRD, Bank: k.bank, Col: 0}
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

// TestWRTriggerZeroAlloc pins the other trigger kind: a WR trigger whose
// payload the sequencer decodes once and every unit captures into its GRF
// (how a kernel's input vector is loaded) allocates nothing either.
func TestWRTriggerZeroAlloc(t *testing.T) {
	d, _ := newDriver(t, hbm.PIMHBMConfig(1000))
	d.enterAB()
	d.programCRF(mustAssemble(t, `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 127
		EXIT
	`))
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 7})

	trig := hbm.Command{Kind: hbm.CmdWR, Bank: 0, Col: 3, Data: splat(0x3c00)}
	d.issue(trig)
	if avg := testing.AllocsPerRun(64, func() { d.issue(trig) }); avg != 0 {
		t.Errorf("AB-PIM MOV capture trigger allocates %v objects per command, want 0", avg)
	}
}
