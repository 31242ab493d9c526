package memctrl

import (
	"testing"

	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/pim"
)

// BenchmarkPacket times one timing-only GEMV row visit as the kernels
// issue it, one IssuePacket call: per pass the row holds (eight on the
// product's 64-column rows), the WR window of eight input splats, a
// fence, the RD window of eight MACs and a fence. The op is the whole
// visit: 128 triggers, 16 fences.
func BenchmarkPacket(b *testing.B) {
	b.Run("timing-gemv-row", func(b *testing.B) {
		cfg := hbm.PIMHBMConfig(1000)
		cfg.PseudoChannels = 1
		cfg.Functional = false
		dev := hbm.MustNewDevice(cfg)
		exec, err := pim.NewExecutor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dev.PCH(0).AttachPIM(exec)
		ch := NewChannel(dev.PCH(0), cfg, 0)
		must := func(cmd hbm.Command) {
			if _, err := ch.Issue(cmd); err != nil {
				b.Fatalf("%s: %v", cmd, err)
			}
		}
		prog, err := isa.Assemble(`
			MOV(AAM) GRF_A, EVEN_BANK
			JUMP -1, 7
			MAC(AAM) GRF_B, GRF_A, EVEN_BANK
			JUMP -1, 7
			JUMP -4, 127
			EXIT`)
		if err != nil {
			b.Fatal(err)
		}
		words, err := isa.EncodeProgram(prog)
		if err != nil {
			b.Fatal(err)
		}
		crf, mode := make([]byte, 32), make([]byte, 32)
		for i, w := range words {
			crf[4*i], crf[4*i+1], crf[4*i+2], crf[4*i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		}
		mode[0] = 1
		must(hbm.Command{Kind: hbm.CmdACT, Bank: hbm.ABMRBank, Row: cfg.ModeRow()})
		must(hbm.Command{Kind: hbm.CmdPRE, Bank: hbm.ABMRBank})
		must(hbm.Command{Kind: hbm.CmdACT, Row: cfg.CRFRow()})
		must(hbm.Command{Kind: hbm.CmdWR, Data: crf})
		must(hbm.Command{Kind: hbm.CmdPREA})
		must(hbm.Command{Kind: hbm.CmdACT, Bank: hbm.ABMRBank, Row: cfg.ModeRow()})
		must(hbm.Command{Kind: hbm.CmdWR, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: mode})
		must(hbm.Command{Kind: hbm.CmdPRE, Bank: hbm.ABMRBank})
		must(hbm.Command{Kind: hbm.CmdACT, Row: 7})

		g := cfg.GRFDepth()
		passes := cfg.ColumnsPerRow() / g
		var row []Trigger
		for j := 0; j < passes; j++ {
			col := uint32(j * g)
			row = append(row, Trigger{Kind: hbm.CmdWR, Col: col, N: g, Fence: true},
				Trigger{Kind: hbm.CmdRD, Col: col, N: g, Fence: true})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%(128/passes) == 0 {
				exec.ResetPPC() // the program runs 128 passes
			}
			if _, err := ch.IssuePacket(row, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
