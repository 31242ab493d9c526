package memctrl

import (
	"testing"

	"pimsim/internal/hbm"
)

// TestEnqueueDrainZeroAlloc pins the FR-FCFS steady state: with the ring
// buffer at capacity and the transaction free list populated (both happen
// during the warm-up round), enqueue/schedule/service cycles must not
// allocate. AutoRelease recycles each completed transaction the way the
// experiment sweeps do.
func TestEnqueueDrainZeroAlloc(t *testing.T) {
	cfg := hbm.HBM2Config(1200)
	cfg.Functional = false
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(dev.PCH(0), cfg, 0)
	s := NewScheduler(ch, cfg)
	s.AutoRelease = true
	am := NewAddrMap(16, cfg.BankGroups, cfg.BanksPerGroup,
		cfg.Rows, cfg.ColumnsPerRow(), cfg.AccessBytes)

	var state uint64
	next := func() uint64 { // splitmix64
		state += 0x9E3779B97F4A7C15
		z := state
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		return z ^ z>>31
	}
	round := func() {
		for i := 0; i < 32; i++ {
			addr := (next() % am.Capacity()) &^ 31
			loc, err := am.Decode(addr)
			if err != nil {
				t.Fatal(err)
			}
			loc.Channel = 0
			s.Enqueue(next()%4 == 0, loc, nil)
		}
		if _, err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	round() // grows the ring and fills the free list

	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("enqueue+drain round allocates %v objects, want 0", avg)
	}
}
