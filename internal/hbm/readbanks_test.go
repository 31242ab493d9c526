package hbm

import (
	"bytes"
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
			read, err := (*pchBankAccess)(s.p).ReadBanks(0, stride, n, col, scratch, views)
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
			read, err = (*pchBankAccess)(s.p).ReadBanks(0, stride, n, col, scratch, views)
			if read != 3 || err == nil || !strings.Contains(err.Error(), "idle bank 6") {
				t.Errorf("ReadBanks over a closed bank 6 = %d, %v; want 3 and its error", read, err)
			}
			if got := s.p.Stats().BankReads - reads0; got != 3 {
				t.Errorf("BankReads +%d before the failure, want +3", got)
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
