package pim

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"pimsim/internal/hbm"
	"pimsim/internal/isa"
)

// TestLockStepChecked: an SB-mode column write to one bank's CRF row
// programs that bank's unit alone. The sequencer runs one program for all
// units, so a trigger under diverged CRFs is refused, with the same error
// on a functional and on a timing-only device (which used to disagree: one
// stepped every unit through its own program, the other mirrored unit 0),
// until the units hold one program again.
func TestLockStepChecked(t *testing.T) {
	var texts []string
	for _, functional := range []bool{true, false} {
		cfg := hbm.PIMHBMConfig(1000)
		cfg.Functional = functional
		d, exec := newDriver(t, cfg)

		d.enterAB()
		d.programCRF(mustAssemble(t, "MOV GRF_A[0], GRF_B[0]\nEXIT"))
		d.exitAB()

		// Bank 6 sits on unit 3: overwrite that unit's CRF only.
		words, err := isa.EncodeProgram(mustAssemble(t, `
			MOV GRF_A[0], GRF_B[0]
			MOV GRF_A[1], GRF_B[1]
			MOV GRF_A[2], GRF_B[2]
			EXIT`))
		if err != nil {
			t.Fatal(err)
		}
		block := make([]byte, 32)
		for i, w := range words {
			binary.LittleEndian.PutUint32(block[4*i:], w)
		}
		d.writeBankSB(6, cfg.CRFRow(), 0, block)

		d.enterAB()
		d.setPIMOp(true)
		d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 5})
		err = d.issueErr(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 0})
		if err == nil {
			t.Fatalf("functional=%v: trigger accepted with unit 3 holding its own program (retired %v, AllDone %v)",
				functional, exec.OpCountsArray(), exec.AllDone())
		}
		if !strings.Contains(err.Error(), "unit 3") || !strings.Contains(err.Error(), "CRF[1]") {
			t.Errorf("functional=%v: error %q does not name unit 3 and slot 1", functional, err)
		}
		texts = append(texts, err.Error())

		// Broadcasting one program again restores lock step.
		d.issue(hbm.Command{Kind: hbm.CmdPREA})
		d.setPIMOp(false)
		d.programCRF(mustAssemble(t, "MOV GRF_A[0], GRF_B[0]\nEXIT"))
		d.setPIMOp(true)
		d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 5})
		d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 0})
		if counts := exec.OpCountsArray(); !exec.AllDone() || counts[isa.MOV] != 8 || counts[isa.EXIT] != 8 {
			t.Errorf("functional=%v: after reprogramming: AllDone %v, retired %v", functional, exec.AllDone(), counts)
		}
	}
	if texts[0] != texts[1] {
		t.Errorf("functional device: %q\ntiming-only device: %q", texts[0], texts[1])
	}
}

// TestUncorrectableReadNamesItsUnit: a double-bit error under unit 5's
// bank operand fails the trigger as that unit's, with the text the
// reference interpreter gives it, still unwraps to the typed hbm error,
// and leaves units 0-4 executed and 6-7 untouched on both.
func TestUncorrectableReadNamesItsUnit(t *testing.T) {
	cfg := diffConfig(hbm.VariantBase, true)
	cfg.ECC = true
	d := newDiffPair(t, cfg)
	for u := 0; u < cfg.PIMUnits; u++ {
		bg, b := cfg.BankOf(2 * u)
		d.must(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: diffRow})
		d.must(hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: 0, Data: splat(0x3c00)})
		d.must(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	}
	bg, b := cfg.BankOf(2 * 5)
	for _, p := range d.p {
		for _, bit := range []int{8, 9} {
			if err := p.InjectBitError(bg, b, diffRow, 0, bit); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.modeHandshake(hbm.ABMRBank)
	d.writeRegRow(cfg.GRFRow(), [][]byte{splat(0x4000)}) // GRF_A[0] = 2 in every lane
	prog := make([]byte, 32)
	for i, w := range encodeWords(t, mustAssemble(t, "MAC GRF_B[0], GRF_A[0], EVEN_BANK\nEXIT")) {
		binary.LittleEndian.PutUint32(prog[4*i:], w)
	}
	d.writeRegRow(cfg.CRFRow(), [][]byte{prog})
	d.setPIMOp(true)
	d.must(hbm.Command{Kind: hbm.CmdACT, Row: diffRow})

	err := d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 0}) // compares the two error texts
	var ue *hbm.UncorrectableError
	if !errors.As(err, &ue) || ue.Bank != 10 {
		t.Fatalf("error %v: want an *hbm.UncorrectableError at bank 10", err)
	}
	if !strings.HasPrefix(err.Error(), "pim: unit 5: pim: CRF[0] MAC ") {
		t.Errorf("error %q is not worded as unit 5's", err)
	}
	for u := 0; u < cfg.PIMUnits; u++ {
		got, ref := d.exec.Unit(u).GRF(1, 0), d.oracle.units[u].GRF(1, 0)
		if want := map[bool]uint16{true: 0x4000, false: 0}[u < 5]; uint16(got[0]) != want || uint16(ref[0]) != want {
			t.Errorf("unit %d GRF_B[0][0] = %04x, reference %04x, want %04x", u, uint16(got[0]), uint16(ref[0]), want)
		}
	}
}

// TestZeroRecordIsWordZero: an executor's table is cut with zero records
// and compiled only where unit 0's words differ from the all-zero CRF, so
// a zero record must be exactly what word 0, a NOP, compiles to.
func TestZeroRecordIsWordZero(t *testing.T) {
	e, err := NewExecutor(hbm.PIMHBMConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.words {
		e.words[i] = ^uint32(0) // not unit 0's word: every slot recompiles
	}
	e.compile()
	if *e.code != ([isa.CRFEntries]slot{}) {
		t.Errorf("the all-zero CRF compiles to %+v, want zero records", e.code[0])
	}
}
