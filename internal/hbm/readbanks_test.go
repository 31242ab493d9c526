package hbm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// seqLog is a fault injector that corrupts nothing and records which bank
// each readout came from, under which sequence number.
type seqLog struct{ reads []string }

func (s *seqLog) CorruptReadout(_, bank int, _, _ uint32, seq int64, _ []byte) {
	s.reads = append(s.reads, fmt.Sprintf("%d@%d", bank, seq))
}

// TestReadBanksViews: one ReadBanks call reads the even banks of all eight
// units as eight lone reads would, in unit order (statistics, the fault
// hook's sequence numbers), and hands out windows onto the open rows while
// the readout is the array's own bytes, and the scratch copy once a fault
// injector or the ECC engine has a say. A read that fails stops at its
// bank, which the error names.
func TestReadBanksViews(t *testing.T) {
	const row, col, n, stride = 5, 3, 8, 2
	for _, kind := range []string{"plain", "ecc", "fault"} {
		t.Run(kind, func(t *testing.T) {
			cfg := PIMHBMConfig(1000)
			cfg.ECC = kind == "ecc"
			s := newTestPCH(t, cfg)
			want := make([][]byte, n)
			for u := range want {
				want[u] = bytes.Repeat([]byte{byte(u), 0x3c}, 16)
				bg, b := cfg.BankOf(u * stride)
				s.issue(Command{Kind: CmdACT, BG: bg, Bank: b, Row: row})
				s.issue(Command{Kind: CmdWR, BG: bg, Bank: b, Col: col, Data: want[u]})
			}
			log := &seqLog{}
			if kind == "fault" {
				s.p.AttachFault(log)
			}
			reads0 := s.p.Stats().BankReads
			scratch, views := make([]byte, n*cfg.AccessBytes), make([][]byte, n)
			read, err := (*pchBankAccess)(s.p).ReadBanks(0, stride, n, col, 1, scratch, views)
			if read != n || err != nil {
				t.Fatalf("ReadBanks = %d, %v; want %d, nil", read, err, n)
			}
			if got := s.p.Stats().BankReads - reads0; got != n {
				t.Errorf("BankReads +%d, want +%d", got, n)
			}
			for u, v := range views {
				if !bytes.Equal(v, want[u]) {
					t.Errorf("unit %d view %x, want %x", u, v, want[u])
				}
				inRow := &v[0] == &s.p.banks[u*stride].rows[row][col*cfg.AccessBytes]
				inScratch := &v[0] == &scratch[u*cfg.AccessBytes]
				if kind == "plain" && !inRow || kind != "plain" && !inScratch {
					t.Errorf("unit %d: view on the row %v, in scratch %v", u, inRow, inScratch)
				}
			}
			if kind == "fault" {
				if got, wantLog := strings.Join(log.reads, " "), "0@1 2@2 4@3 6@4 8@5 10@6 12@7 14@8"; got != wantLog {
					t.Errorf("fault hook saw %s, want %s", got, wantLog)
				}
			}

			// Bank 6 (unit 3) closed: units 0-2 are read, the error is bank 6's.
			s.issue(Command{Kind: CmdPRE, BG: 1, Bank: 2})
			reads0 = s.p.Stats().BankReads
			read, err = (*pchBankAccess)(s.p).ReadBanks(0, stride, n, col, 1, scratch, views)
			if read != 3 || err == nil || !strings.Contains(err.Error(), "idle bank 6") {
				t.Errorf("ReadBanks over a closed bank 6 = %d, %v; want 3 and its error", read, err)
			}
			if got := s.p.Stats().BankReads - reads0; got != 3 {
				t.Errorf("BankReads +%d before the failure, want +3", got)
			}
		})
	}
}

// TestReadBanksColumns: one ReadBanks call over three columns reads them
// trigger-major, every unit's block of a column before the next column's,
// as three one-column calls would (views, statistics, the fault hook's
// sequence numbers, an ECC scrub), and a double-bit error under unit 2's
// block of the second column stops the read there: the blocks before it
// read, the error theirs, nothing after it touched.
func TestReadBanksColumns(t *testing.T) {
	const row, col, n, stride, cols = 6, 4, 4, 2, 3
	for _, kind := range []string{"plain", "ecc", "fault"} {
		t.Run(kind, func(t *testing.T) {
			cfg := PIMHBMConfig(1000)
			cfg.ECC = kind == "ecc"
			s := newTestPCH(t, cfg)
			want := make([][]byte, n*cols)
			for u := 0; u < n; u++ {
				bg, b := cfg.BankOf(u * stride)
				s.issue(Command{Kind: CmdACT, BG: bg, Bank: b, Row: row})
				for c := 0; c < cols; c++ {
					want[c*n+u] = bytes.Repeat([]byte{byte(u), byte(c)}, 16)
					s.issue(Command{Kind: CmdWR, BG: bg, Bank: b, Col: uint32(col + c), Data: want[c*n+u]})
				}
			}
			log := &seqLog{}
			if kind == "fault" {
				s.p.AttachFault(log)
			}
			if kind == "ecc" { // one correctable flip, scrubbed on the read
				bg, b := cfg.BankOf(1 * stride)
				if err := s.p.InjectBitError(bg, b, row, col+2, 17); err != nil {
					t.Fatal(err)
				}
			}
			scratch, views := make([]byte, n*cols*cfg.AccessBytes), make([][]byte, n*cols)
			read, err := (*pchBankAccess)(s.p).ReadBanks(0, stride, n, col, cols, scratch, views)
			if read != n*cols || err != nil {
				t.Fatalf("ReadBanks = %d, %v; want %d, nil", read, err, n*cols)
			}
			for k, v := range views {
				if !bytes.Equal(v, want[k]) {
					t.Errorf("view %d (unit %d, column %d) %x, want %x", k, k%n, col+k/n, v, want[k])
				}
			}
			if got := s.p.Stats().BankReads; got != n*cols {
				t.Errorf("BankReads %d, want %d", got, n*cols)
			}
			switch kind {
			case "fault":
				if got, wantLog := strings.Join(log.reads, " "), "0@1 2@2 4@3 6@4 0@5 2@6 4@7 6@8 0@9 2@10 4@11 6@12"; got != wantLog {
					t.Errorf("fault hook saw %s, want %s", got, wantLog)
				}
			case "ecc":
				if got := s.p.Stats().ECCCorrected; got != 1 {
					t.Errorf("ECCCorrected %d, want 1", got)
				}
				bg, b := cfg.BankOf(2 * stride)
				for bit := 8; bit < 10; bit++ {
					if err := s.p.InjectBitError(bg, b, row, col+1, bit); err != nil {
						t.Fatal(err)
					}
				}
				reads0 := s.p.Stats().BankReads
				read, err = (*pchBankAccess)(s.p).ReadBanks(0, stride, n, col, cols, scratch, views)
				var ue *UncorrectableError
				if read != n+2 || !errors.As(err, &ue) || ue.Bank != 2*stride || ue.Col != col+1 {
					t.Errorf("ReadBanks over a double-bit error = %d, %v; want %d and bank %d column %d's error", read, err, n+2, 2*stride, col+1)
				}
				if got := s.p.Stats().BankReads - reads0; got != n+3 {
					t.Errorf("BankReads +%d up to the failure, want +%d", got, n+3)
				}
			}
		})
	}
}

// TestConfigValidatePIMBurst: a PIM unit computes on one 32-byte burst, so
// a PIM device with another access size is refused with both sizes named;
// a plain device may access 64 bytes a column.
func TestConfigValidatePIMBurst(t *testing.T) {
	cfg := PIMHBMConfig(1000)
	cfg.AccessBytes = 64
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "32B") || !strings.Contains(err.Error(), "64B") {
		t.Errorf("PIM device with 64-byte accesses: %v", err)
	}
	plain := HBM2Config(1000)
	plain.AccessBytes = 64
	if err := plain.Validate(); err != nil {
		t.Errorf("non-PIM device with 64-byte accesses refused: %v", err)
	}
}
