package main

import (
	"math/rand"
	"strings"
	"testing"

	"pimsim/internal/hbm"
	"pimsim/internal/memctrl"
	"pimsim/internal/obs"
)

// TestReplayDrainedLog drains a seeded FR-FCFS stream on a plain HBM2
// channel with its command log attached, exports the log as a text trace
// and replays it through -mode cmd's replay on a fresh device: every
// command must be legal again, and the device must count the same
// commands the original drain issued.
func TestReplayDrainedLog(t *testing.T) {
	cfg := hbm.HBM2Config(1200)
	cfg.Functional = false
	dev := hbm.MustNewDevice(cfg)
	ch := memctrl.NewChannel(dev.PCH(1), cfg, 1)
	ch.Log = obs.NewLog(1, 0, false)
	s := memctrl.NewScheduler(ch, cfg)
	s.AutoRelease = true
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4096; i++ {
		s.Enqueue(rng.Intn(5) == 0, memctrl.Loc{
			BG:   rng.Intn(cfg.BankGroups),
			Bank: rng.Intn(cfg.BanksPerGroup),
			Row:  uint32(rng.Intn(32)),
			Col:  uint32(rng.Intn(cfg.ColumnsPerRow())),
		}, nil)
		if i%512 == 511 {
			if _, err := s.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	events := ch.Log.TraceEvents()
	var text strings.Builder
	for _, e := range events {
		text.WriteString(e.String() + "\n")
	}

	fresh := hbm.MustNewDevice(cfg)
	n, end, err := replay(strings.NewReader(text.String()), fresh, cfg)
	if err != nil {
		t.Fatalf("replay of the drained log: %v", err)
	}
	if n != len(events) || end <= 0 {
		t.Errorf("replayed %d of %d commands, finishing at cycle %d", n, len(events), end)
	}
	got, want := fresh.Stats(), dev.Stats()
	if want.REF == 0 || want.ACT == 0 || want.WR == 0 {
		t.Fatalf("the drain issued ACT %d WR %d REF %d: want every kind, refresh included", want.ACT, want.WR, want.REF)
	}
	if got.ACT != want.ACT || got.PRE != want.PRE || got.RD != want.RD || got.WR != want.WR || got.REF != want.REF {
		t.Errorf("replay counted ACT/PRE/RD/WR/REF %d/%d/%d/%d/%d, the drain %d/%d/%d/%d/%d",
			got.ACT, got.PRE, got.RD, got.WR, got.REF, want.ACT, want.PRE, want.RD, want.WR, want.REF)
	}
}
