package memctrl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/pim"
)

func testMap() AddrMap {
	c := hbm.HBM2Config(1000)
	return NewAddrMap(16, c.BankGroups, c.BanksPerGroup, c.Rows, c.ColumnsPerRow(), c.AccessBytes)
}

func TestAddrMapRoundTrip(t *testing.T) {
	m := testMap()
	f := func(raw uint64) bool {
		addr := (raw % m.Capacity()) &^ uint64(m.AccessBytes-1)
		l, err := m.Decode(addr)
		if err != nil {
			return false
		}
		return m.Encode(l) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestAddrMapStriping(t *testing.T) {
	m := testMap()
	// Consecutive 32-byte blocks hit consecutive channels.
	for i := 0; i < 32; i++ {
		l, err := m.Decode(uint64(i * 32))
		if err != nil {
			t.Fatal(err)
		}
		if l.Channel != i%16 {
			t.Fatalf("block %d -> channel %d, want %d", i, l.Channel, i%16)
		}
	}
	// Within one channel, consecutive blocks alternate bank groups (the
	// tCCD_S streaming property).
	var prev Loc
	for i := 0; i < 8; i++ {
		l, err := m.Decode(uint64(i * 32 * 16)) // stride = channels
		if err != nil {
			t.Fatal(err)
		}
		if l.Channel != 0 {
			t.Fatalf("stride walk left channel 0")
		}
		if i > 0 && l.BG == prev.BG && i%4 != 0 {
			t.Fatalf("blocks %d and %d share bank group %d", i-1, i, l.BG)
		}
		prev = l
	}
}

func TestAddrMapBounds(t *testing.T) {
	m := testMap()
	if _, err := m.Decode(m.Capacity()); err == nil {
		t.Error("address at capacity accepted")
	}
	if m.Capacity() != 4<<30 {
		t.Errorf("capacity = %d, want 4 GiB", m.Capacity())
	}
}

func newChan(t *testing.T, cfg hbm.Config) (*Channel, *hbm.Device) {
	t.Helper()
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewChannel(dev.PCH(0), cfg, 0), dev
}

func TestSchedulerSequentialStreamNearPeak(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	cfg.Functional = false
	ch, _ := newChan(t, cfg)
	s := NewScheduler(ch, cfg)
	m := testMap()

	const blocks = 512
	for i := 0; i < blocks; i++ {
		l, err := m.Decode(uint64(i * 32 * 16)) // sequential within channel 0
		if err != nil {
			t.Fatal(err)
		}
		s.Enqueue(false, l, nil)
	}
	end, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	// Peak is 32 B per tCCD_S (2 cycles) = 16 GB/s at 1 GHz. A sequential
	// stream should exceed 85% of that.
	gbps := float64(blocks*32) / cfg.Timing.CyclesToNs(end)
	if gbps < 0.85*16 {
		t.Errorf("sequential stream = %.2f GB/s, want > 13.6", gbps)
	}
	if s.RowHits() < blocks-8 {
		t.Errorf("row hits = %d of %d", s.RowHits(), blocks)
	}
}

func TestSchedulerRandomStreamDegrades(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	cfg.Functional = false
	ch, _ := newChan(t, cfg)
	s := NewScheduler(ch, cfg)
	m := testMap()
	rng := rand.New(rand.NewSource(9))

	const blocks = 512
	for i := 0; i < blocks; i++ {
		addr := (uint64(rng.Int63()) % m.Capacity()) &^ 31
		l, err := m.Decode(addr)
		if err != nil {
			t.Fatal(err)
		}
		l.Channel = 0
		s.Enqueue(false, l, nil)
	}
	end, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	gbps := float64(blocks*32) / cfg.Timing.CyclesToNs(end)
	if gbps > 12 {
		t.Errorf("random stream = %.2f GB/s, expected heavy row-miss degradation", gbps)
	}
	// Random addresses force an activate per access; most arrive via the
	// speculative activate-ahead path, the rest as demand misses/opens.
	acts := s.RowMisses() + s.RowOpens() + s.AheadOpens()
	if acts < blocks/2 {
		t.Errorf("misses+opens+ahead = %d, expected mostly misses", acts)
	}
}

func TestSchedulerReordersRowHits(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	ch, _ := newChan(t, cfg)
	s := NewScheduler(ch, cfg)

	// Open row 1 of (0,0) via a first transaction, then enqueue a conflict
	// (row 2, same bank) followed by a row-1 hit. FR-FCFS serves the
	// younger hit first — exactly the hazard of Fig. 5.
	s.Enqueue(false, Loc{BG: 0, Bank: 0, Row: 1, Col: 0}, nil)
	if _, err := s.step(); err != nil {
		t.Fatal(err)
	}
	miss := s.Enqueue(false, Loc{BG: 0, Bank: 0, Row: 2, Col: 0}, nil)
	hit := s.Enqueue(false, Loc{BG: 0, Bank: 0, Row: 1, Col: 5}, nil)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if hit.issued >= miss.issued {
		t.Errorf("row hit issued at %d after older miss at %d; FR-FCFS should reorder", hit.issued, miss.issued)
	}
	if s.Reordered() == 0 {
		t.Error("reorder count is zero")
	}
	// A Window of 1 would have preserved program order.
	ch2, _ := newChan(t, cfg)
	s2 := NewScheduler(ch2, cfg)
	s2.Window = 1
	s2.Enqueue(false, Loc{BG: 0, Bank: 0, Row: 1, Col: 0}, nil)
	if _, err := s2.step(); err != nil {
		t.Fatal(err)
	}
	miss2 := s2.Enqueue(false, Loc{BG: 0, Bank: 0, Row: 2, Col: 0}, nil)
	hit2 := s2.Enqueue(false, Loc{BG: 0, Bank: 0, Row: 1, Col: 5}, nil)
	if _, err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
	if hit2.issued <= miss2.issued {
		t.Error("in-order controller still reordered")
	}
}

// TestActivateAheadDoesNotPolluteDemandCounters: speculative PRE/ACT from
// the activate-ahead path must land in AheadOpens/AheadCloses, never in
// the demand RowMisses/RowOpens counters (regression: it used to fold
// speculative traffic into the demand row-hit rate).
func TestActivateAheadDoesNotPolluteDemandCounters(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	cfg.Functional = false
	ch, _ := newChan(t, cfg)
	s := NewScheduler(ch, cfg)

	// Three transactions on three different banks, all closed. Servicing
	// the first speculatively opens the other two, which then hit.
	s.Enqueue(false, Loc{BG: 0, Bank: 0, Row: 1, Col: 0}, nil)
	s.Enqueue(false, Loc{BG: 1, Bank: 0, Row: 2, Col: 0}, nil)
	s.Enqueue(false, Loc{BG: 2, Bank: 0, Row: 3, Col: 0}, nil)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if s.AheadOpens() != 2 {
		t.Errorf("ahead opens = %d, want 2", s.AheadOpens())
	}
	if s.RowOpens() != 1 || s.RowHits() != 2 || s.RowMisses() != 0 {
		t.Errorf("demand opens/hits/misses = %d/%d/%d, want 1/2/0 (speculative traffic leaked in?)",
			s.RowOpens(), s.RowHits(), s.RowMisses())
	}
	// The demand counters partition the serviced transactions exactly.
	if got := s.RowHits() + s.RowMisses() + s.RowOpens(); got != s.Completed() {
		t.Errorf("hits+misses+opens = %d, completed = %d", got, s.Completed())
	}

	// An unwanted open row is closed early: that precharge is speculative
	// too and must count as an AheadClose, not a demand miss.
	ch2, _ := newChan(t, cfg)
	s2 := NewScheduler(ch2, cfg)
	s2.Enqueue(false, Loc{BG: 1, Bank: 1, Row: 9, Col: 0}, nil) // opens (1,1) row 9
	if _, err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
	s2.Enqueue(false, Loc{BG: 0, Bank: 0, Row: 1, Col: 0}, nil)
	s2.Enqueue(false, Loc{BG: 1, Bank: 1, Row: 5, Col: 0}, nil) // conflicts with row 9
	if _, err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
	if s2.AheadCloses() != 1 {
		t.Errorf("ahead closes = %d, want 1", s2.AheadCloses())
	}
	if s2.RowMisses() != 0 {
		t.Errorf("demand misses = %d, want 0 (speculative precharge leaked in?)", s2.RowMisses())
	}
}

func TestSchedulerWriteReadData(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	ch, _ := newChan(t, cfg)
	s := NewScheduler(ch, cfg)
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i)
	}
	s.Enqueue(true, Loc{BG: 1, Bank: 2, Row: 3, Col: 4}, payload)
	rd := s.Enqueue(false, Loc{BG: 1, Bank: 2, Row: 3, Col: 4}, nil)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if rd.Data[i] != payload[i] {
			t.Fatalf("read back %x", rd.Data)
		}
	}
}

func TestFenceAccounting(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	ch, _ := newChan(t, cfg)
	ch.Issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: 0, Row: 0})
	ch.Issue(hbm.Command{Kind: hbm.CmdRD, BG: 0, Bank: 0, Col: 0})
	before := ch.Now()
	ch.Fence()
	if ch.Fences() != 1 {
		t.Error("fence not counted")
	}
	// The fence waits out read latency + burst + the host cost.
	minAdvance := int64(cfg.Timing.RL + cfg.Timing.DataCycles() + ch.FenceCycles)
	if ch.Now()-before < minAdvance-int64(cfg.Timing.RL) {
		t.Errorf("fence advanced %d cycles, want >= %d-ish", ch.Now()-before, minAdvance)
	}
	// With guaranteed order, fences are free.
	ch2, _ := newChan(t, cfg)
	ch2.GuaranteeOrder = true
	ch2.Fence()
	if ch2.Fences() != 0 || ch2.Now() != 0 {
		t.Error("guaranteed-order fence was not free")
	}
}

func TestRefreshHappensInSBMode(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	ch, _ := newChan(t, cfg)
	s := NewScheduler(ch, cfg)
	// Spread transactions across several tREFI periods.
	for i := 0; i < 40; i++ {
		s.Enqueue(false, Loc{BG: i % 4, Bank: 0, Row: uint32(i), Col: 0}, nil)
		if _, err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := s.CloseAll(); err != nil {
			t.Fatal(err)
		}
		ch.now += int64(cfg.Timing.REFI) / 4 // host-side idle time
	}
	if ch.Refreshes() == 0 {
		t.Error("no refresh over many tREFI periods")
	}
}

func TestRefreshDuringPIMBurstPreservesResults(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	// Shrink tREFI so refreshes land mid-burst (still > one full
	// PREA+REF+ACT round trip, or refresh could never keep up).
	cfg.Timing.REFI = 900
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	execs, err := pim.Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(dev.PCH(0), cfg, 0)
	issue := func(cmd hbm.Command) hbm.IssueResult {
		t.Helper()
		res, err := ch.Issue(cmd)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		return res
	}

	const row = 50
	in := fp16.FromFloat32s([]float32{1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11, -12, 13, -14, 15, -16})
	// Data into every even bank, SB mode.
	for u := 0; u < 8; u++ {
		bg, b := (2*u)/cfg.BanksPerGroup, (2*u)%cfg.BanksPerGroup
		issue(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row})
		for c := 0; c < 8; c++ {
			issue(hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: uint32(c), Data: in.Bytes()})
		}
		issue(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	}

	// Enter AB, program a long copy kernel: even -> GRF -> odd, 8 columns,
	// looped 8 times over the same columns (64 triggers each way).
	issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: cfg.ModeRow()})
	issue(hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank})
	prog, err := isa.Assemble(`
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A
		JUMP -1, 7
		JUMP -4, 7
		EXIT
	`)
	if err != nil {
		t.Fatal(err)
	}
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	issue(hbm.Command{Kind: hbm.CmdACT, Row: cfg.CRFRow()})
	buf := make([]byte, 32)
	for i, w := range words {
		buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	issue(hbm.Command{Kind: hbm.CmdWR, Col: 0, Data: buf})
	issue(hbm.Command{Kind: hbm.CmdPREA})
	pimOn := make([]byte, 32)
	pimOn[0] = 1
	issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: cfg.ModeRow()})
	issue(hbm.Command{Kind: hbm.CmdWR, BG: 0, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: pimOn})
	issue(hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank})

	issue(hbm.Command{Kind: hbm.CmdACT, Row: row})
	for pass := 0; pass < 8; pass++ {
		for c := 0; c < 8; c++ {
			issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: uint32(c)})
		}
		for c := 0; c < 8; c++ {
			issue(hbm.Command{Kind: hbm.CmdWR, Bank: 1, Col: uint32(c)})
		}
		ch.Fence()
	}
	if !execs[0].AllDone() {
		t.Fatal("kernel incomplete")
	}
	if ch.Refreshes() == 0 {
		t.Fatal("test did not actually exercise mid-burst refresh")
	}

	issue(hbm.Command{Kind: hbm.CmdPREA})
	pimOn[0] = 0
	issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: cfg.ModeRow()})
	issue(hbm.Command{Kind: hbm.CmdWR, BG: 0, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: pimOn})
	issue(hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank})
	issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.SBMRBank, Row: cfg.ModeRow()})
	issue(hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.SBMRBank})

	// Odd bank 1 (unit 0) must contain the copied data.
	issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: 1, Row: row})
	res := issue(hbm.Command{Kind: hbm.CmdRD, BG: 0, Bank: 1, Col: 3})
	got := fp16.VectorFromBytes(res.Data)
	for l := range in {
		if got[l] != in[l] {
			t.Fatalf("lane %d: %v, want %v (refresh corrupted the burst?)", l, got[l], in[l])
		}
	}
}
