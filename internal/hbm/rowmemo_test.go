package hbm

import (
	"bytes"
	"testing"

	"pimsim/internal/fault"
)

// The open-row memo on bank (lastRow, lastData) must never serve another
// row's bytes, and everything that reads or writes the array, from either
// side of the device, must see the same bytes through it.

// pimRead is the PIM unit's row-buffer read of the bank's open row.
func (s *seq) pimRead(bank int, col uint32) []byte {
	s.t.Helper()
	buf := make([]byte, s.p.cfg.AccessBytes)
	if err := (*pchBankAccess)(s.p).ReadBank(bank, col, buf); err != nil {
		s.t.Fatal(err)
	}
	return buf
}

func TestOpenRowMemoFollowsTheOpenRow(t *testing.T) {
	s := newTestPCH(t, PIMHBMConfig(1000))
	const bg, bk, col = 1, 2, 3
	flat := s.p.flat(bg, bk)
	zeros := make([]byte, 32)
	rowA := bytes.Repeat([]byte{0xA5, 0x3C}, 16)
	rowB := bytes.Repeat([]byte{0x11, 0xEE}, 16)

	// First touch allocates the row zeroed; the SB write that follows
	// must land in the slice the PIM side reads.
	s.issue(Command{Kind: CmdACT, BG: bg, Bank: bk, Row: 5})
	if got := s.pimRead(flat, col); !bytes.Equal(got, zeros) {
		t.Fatalf("untouched row reads %x", got)
	}
	s.issue(Command{Kind: CmdWR, BG: bg, Bank: bk, Col: col, Data: rowA})
	if got := s.pimRead(flat, col); !bytes.Equal(got, rowA) {
		t.Fatalf("PIM read after SB write to the open row = %x", got)
	}
	b := &s.p.banks[flat]
	if &b.lastData[0] != &b.rows[5][0] {
		t.Fatal("memo does not alias the stored row")
	}

	// Another row in the same bank: its own (fresh, zeroed) storage.
	s.issue(Command{Kind: CmdPRE, BG: bg, Bank: bk})
	s.issue(Command{Kind: CmdACT, BG: bg, Bank: bk, Row: 9})
	if got := s.issue(Command{Kind: CmdRD, BG: bg, Bank: bk, Col: col}).Data; !bytes.Equal(got, zeros) {
		t.Fatalf("row 9 served row 5's bytes: %x", got)
	}
	if err := (*pchBankAccess)(s.p).WriteBank(flat, col, rowB); err != nil {
		t.Fatal(err)
	}

	// A touch of a row that is not open (fault injection into row 5) moves
	// the memo away; the open row must still read its own data.
	if err := s.p.InjectBitError(bg, bk, 5, col, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.issue(Command{Kind: CmdRD, BG: bg, Bank: bk, Col: col}).Data; !bytes.Equal(got, rowB) {
		t.Fatalf("row 9 after a touch of row 5 = %x", got)
	}

	// And back: row 5 kept its write and the injected flip.
	s.issue(Command{Kind: CmdPRE, BG: bg, Bank: bk})
	s.issue(Command{Kind: CmdACT, BG: bg, Bank: bk, Row: 5})
	want := append([]byte(nil), rowA...)
	want[0] ^= 1
	if got := s.pimRead(flat, col); !bytes.Equal(got, want) {
		t.Fatalf("row 5 reopened = %x, want %x", got, want)
	}
	// Same row number in another bank is another row.
	s.issue(Command{Kind: CmdACT, BG: bg, Bank: bk + 1, Row: 5})
	if got := s.pimRead(flat+1, col); !bytes.Equal(got, zeros) {
		t.Fatalf("neighbouring bank row 5 = %x", got)
	}
}

// The ECC scrub writes corrected data back through the memoised slice and
// the fault hook corrupts the readout copy, not the memoised row.
func TestOpenRowMemoUnderECCAndFaults(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A, 0xC3}, 16)
	const bg, bk, row, col = 1, 2, 10, 4

	t.Run("scrub", func(t *testing.T) {
		s := newTestPCH(t, eccConfig())
		flat := s.p.flat(bg, bk)
		s.issue(Command{Kind: CmdACT, BG: bg, Bank: bk, Row: row})
		s.issue(Command{Kind: CmdWR, BG: bg, Bank: bk, Col: col, Data: payload})
		if err := s.p.InjectBitError(bg, bk, row, col, 77); err != nil {
			t.Fatal(err)
		}
		if got := s.pimRead(flat, col); !bytes.Equal(got, payload) {
			t.Fatalf("corrected PIM read = %x", got)
		}
		stored := s.p.banks[flat].rows[row][col*32 : col*32+32]
		if !bytes.Equal(stored, payload) {
			t.Fatalf("scrub did not reach the stored row: %x", stored)
		}
		s.pimRead(flat, col)
		if got := s.p.Stats().ECCCorrected; got != 1 {
			t.Errorf("corrected count = %d, want 1", got)
		}
	})

	t.Run("readout fault", func(t *testing.T) {
		s := newTestPCH(t, PIMHBMConfig(1000))
		flat := s.p.flat(bg, bk)
		s.issue(Command{Kind: CmdACT, BG: bg, Bank: bk, Row: row})
		s.issue(Command{Kind: CmdWR, BG: bg, Bank: bk, Col: col, Data: payload})
		s.pimRead(flat, col) // memoise before the injector is armed
		s.p.AttachFault(fault.New(fault.Config{Seed: 9, FlipRate: 1.0}))
		if got := s.pimRead(flat, col); bytes.Equal(got, payload) {
			t.Fatal("CorruptReadout not observed on a memoised row")
		}
		s.p.AttachFault(nil)
		if got := s.pimRead(flat, col); !bytes.Equal(got, payload) {
			t.Fatalf("readout fault reached the stored row: %x", got)
		}
	})
}
