package pimsim

// Determinism goldens. The simulator is a model of a synchronous JEDEC
// device: given a configuration and a command stream, every cycle count,
// every stat, and (in functional mode) every output bit is fully
// determined. Performance work on the simulator must therefore be
// invisible in its outputs — these tests pin full runs against values
// captured from the pre-optimization implementation, so any change that
// alters a simulated cycle or a numeric result fails loudly instead of
// silently drifting the reproduced paper figures.

import (
	"hash/fnv"
	"testing"

	"pimsim/internal/blas"
	"pimsim/internal/fault"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/memctrl"
	"pimsim/internal/runtime"
	"pimsim/internal/sim"
)

// TestGoldenFunctionalGemv runs a bit-exact GEMV through the device model
// and checks the output vector hash, kernel timing, and the full command
// census against the recorded golden run.
func TestGoldenFunctionalGemv(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = 2
	cfg.Functional = true
	const M, K = 256, 512
	W := fp16.NewVector(M * K)
	x := fp16.NewVector(K)
	for i := range W {
		W[i] = fp16.FromFloat32(float32(i%13) * 0.1)
	}
	for i := range x {
		x[i] = fp16.FromFloat32(float32(i%7) * 0.2)
	}
	dev := hbm.MustNewDevice(cfg)
	rt, err := runtime.New([]*hbm.Device{dev})
	if err != nil {
		t.Fatal(err)
	}
	y, ks, err := blas.PimGemv(rt, W, M, K, x)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, v := range y {
		h.Write([]byte{byte(v), byte(v >> 8)})
	}
	if got, want := h.Sum64(), uint64(0xe8f7a69c9c990aad); got != want {
		t.Errorf("output vector hash = %#x, want %#x", got, want)
	}
	if ks.Cycles != 11486 || ks.Triggers != 2048 || ks.Fences != 256 {
		t.Errorf("kernel stats = cycles %d triggers %d fences %d, want 11486/2048/256",
			ks.Cycles, ks.Triggers, ks.Fences)
	}
	st := dev.Stats()
	golden := []struct {
		name string
		got  int64
		want int64
	}{
		{"PIMInstr", st.PIMInstr, 33808},
		{"PIMArith", st.PIMArith, 8192},
		{"BankReads", st.BankReads, 8192},
		{"BankWrites", st.BankWrites, 8192},
		{"ACT", st.ACT, 152},
		{"ABACT", st.ABACT, 24},
		{"ABRD", st.ABRD, 1024},
		{"ABWR", st.ABWR, 1058},
		{"RD", st.RD, 128},
		{"WR", st.WR, 8196},
		{"REF", st.REF, 4},
		{"OffChipBytes", st.OffChipBytes, 299136},
		{"ModeSwitches", st.ModeSwitches, 8},
		{"RegWrites", st.RegWrites, 272},
	}
	for _, g := range golden {
		if g.got != g.want {
			t.Errorf("device stat %s = %d, want %d", g.name, g.got, g.want)
		}
	}
}

// TestGoldenFaultInjectionReplay pins the fault layer itself: the same
// functional GEMV as TestGoldenFunctionalGemv, with on-die ECC enabled
// and a seeded transient-flip injector attached. Injection decisions are
// pure functions of (seed, address, readout sequence), so two runs must
// produce the identical fault pattern — and because every injected flip
// is a single-bit upset, ECC corrects all of them and the output hash
// and kernel cycle count stay exactly the clean golden values. Faults
// cost corrections, never correctness and never (readout corruption is
// post-array, pre-decode) simulated time.
func TestGoldenFaultInjectionReplay(t *testing.T) {
	run := func() (hash uint64, cycles, corrected, flips int64) {
		cfg := hbm.PIMHBMConfig(1200)
		cfg.PseudoChannels = 2
		cfg.Functional = true
		cfg.ECC = true
		const M, K = 256, 512
		W := fp16.NewVector(M * K)
		x := fp16.NewVector(K)
		for i := range W {
			W[i] = fp16.FromFloat32(float32(i%13) * 0.1)
		}
		for i := range x {
			x[i] = fp16.FromFloat32(float32(i%7) * 0.2)
		}
		dev := hbm.MustNewDevice(cfg)
		inj := fault.New(fault.Config{Seed: 7, FlipRate: 1e-3})
		dev.AttachFault(inj)
		rt, err := runtime.New([]*hbm.Device{dev})
		if err != nil {
			t.Fatal(err)
		}
		y, ks, err := blas.PimGemv(rt, W, M, K, x)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, v := range y {
			h.Write([]byte{byte(v), byte(v >> 8)})
		}
		return h.Sum64(), ks.Cycles, dev.Stats().ECCCorrected, inj.Counters().BitFlips
	}

	hash, cycles, corrected, flips := run()
	if want := uint64(0xe8f7a69c9c990aad); hash != want {
		t.Errorf("output hash under correctable faults = %#x, want the clean golden %#x", hash, want)
	}
	if cycles != 11486 {
		t.Errorf("kernel cycles under faults = %d, want the clean golden 11486", cycles)
	}
	if flips == 0 {
		t.Error("injector flipped no bits — flip rate 1e-3 over this run cannot miss")
	}
	if corrected != flips {
		t.Errorf("ECC corrected %d words but the injector flipped %d — every single-bit upset must be corrected", corrected, flips)
	}

	hash2, cycles2, corrected2, flips2 := run()
	if hash2 != hash || cycles2 != cycles || corrected2 != corrected || flips2 != flips {
		t.Errorf("replay diverged: (%#x, %d, %d, %d) then (%#x, %d, %d, %d)",
			hash, cycles, corrected, flips, hash2, cycles2, corrected2, flips2)
	}
}

// TestGoldenTimingOnlyGemv pins the event-driven fast path used by the
// experiment sweeps: a large timing-only GEMV with single-channel
// simulation plus stat extrapolation.
func TestGoldenTimingOnlyGemv(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1200)
	cfg.Functional = false
	dev := hbm.MustNewDevice(cfg)
	rt, err := runtime.New([]*hbm.Device{dev})
	if err != nil {
		t.Fatal(err)
	}
	rt.SimChannels = 1
	_, ks, err := blas.PimGemv(rt, nil, 4096, 8192, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Cycles != 349267 || ks.Triggers != 32768 || ks.Fences != 4096 {
		t.Errorf("kernel stats = cycles %d triggers %d fences %d, want 349267/32768/4096",
			ks.Cycles, ks.Triggers, ks.Fences)
	}
	st := dev.Stats()
	if st.PIMInstr != 540800 || st.ABACT != 334 || st.ABRD != 16384 || st.ABWR != 16418 || st.REF != 74 {
		t.Errorf("device stats = PIMInstr %d ABACT %d ABRD %d ABWR %d REF %d, want 540800/334/16384/16418/74",
			st.PIMInstr, st.ABACT, st.ABRD, st.ABWR, st.REF)
	}
}

// TestGoldenSchedulerReplay drives the FR-FCFS scheduler with a fixed
// splitmix64 pseudo-random access stream and pins the end cycle plus
// every scheduling decision counter (hits, misses, reorders, speculative
// activates, refreshes).
func TestGoldenSchedulerReplay(t *testing.T) {
	cfg := hbm.HBM2Config(1200)
	cfg.Functional = false
	dev := hbm.MustNewDevice(cfg)
	ch := memctrl.NewChannel(dev.PCH(0), cfg, 0)
	s := memctrl.NewScheduler(ch, cfg)
	am := memctrl.NewAddrMap(16, cfg.BankGroups, cfg.BanksPerGroup,
		cfg.Rows, cfg.ColumnsPerRow(), cfg.AccessBytes)
	var state uint64
	next := func() uint64 { // splitmix64: avalanched, reproducible
		state += 0x9E3779B97F4A7C15
		z := state
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		return z ^ z>>31
	}
	var end int64
	for i := 0; i < 4096; i++ {
		addr := (next() % am.Capacity()) &^ 31
		loc, err := am.Decode(addr)
		if err != nil {
			t.Fatal(err)
		}
		loc.Channel = 0
		s.Enqueue(next()%4 == 0, loc, nil)
		if i%64 == 63 {
			e, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			end = e
		}
	}
	e, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if e > end {
		end = e
	}
	if end != 115138 {
		t.Errorf("end cycle = %d, want 115138", end)
	}
	golden := []struct {
		name string
		got  int64
		want int64
	}{
		{"completed", s.Completed(), 4096},
		{"rowHits", s.RowHits(), 4029},
		{"rowMisses", s.RowMisses(), 66},
		{"rowOpens", s.RowOpens(), 1},
		{"reordered", s.Reordered(), 206},
		{"aheadOpens", s.AheadOpens(), 4027},
		{"aheadCloses", s.AheadCloses(), 4012},
		{"refreshes", ch.Refreshes(), 8},
	}
	for _, g := range golden {
		if g.got != g.want {
			t.Errorf("scheduler stat %s = %d, want %d", g.name, g.got, g.want)
		}
	}
}

// TestGoldenPerVariantTiming pins, per device description, what a
// timing-only kernel costs and which commands it issues: GEMV 1024x4096
// and ADD/BN over 1M elements on each Fig. 14 variant (the paper's
// four-stack system, one simulated channel), and the GEMV on the GDDR6
// and LPDDR5 presets. Values recorded at PR 14; a refactor of how a
// variant or preset is described must not move any of them.
func TestGoldenPerVariantTiming(t *testing.T) {
	variant := func(v hbm.Variant) func() (*runtime.Runtime, []*hbm.Device, error) {
		return func() (*runtime.Runtime, []*hbm.Device, error) {
			p, err := sim.NewPIMSystem(v)
			if err != nil {
				return nil, nil, err
			}
			return p.RT, p.Devices, nil
		}
	}
	preset := func(cfg hbm.Config) func() (*runtime.Runtime, []*hbm.Device, error) {
		cfg.Functional = false
		return func() (*runtime.Runtime, []*hbm.Device, error) { return runtime.NewStack(cfg, 1) }
	}
	base, v2x := variant(hbm.VariantBase), variant(hbm.Variant2X)
	v2ba, srw := variant(hbm.Variant2BA), variant(hbm.VariantSRW)
	gddr6, lpddr5 := preset(hbm.GDDR6PIMConfig(1250)), preset(hbm.LPDDR5PIMConfig(800))

	for _, g := range []struct {
		device, kernel string
		build          func() (*runtime.Runtime, []*hbm.Device, error)

		cycles, triggers, fences int64
		// ACT, PRE, RD, WR, ABRD, ABWR, REF, PIMInstr summed over devices.
		census [8]int64
	}{
		{"PIM-HBM", "gemv", base, 87510, 8192, 1024, [8]int64{18, 1362, 64, 8, 4096, 4113, 18, 135200}},
		{"PIM-HBM", "add", base, 4143, 384, 48, [8]int64{4, 84, 0, 2, 256, 130, 0, 6312}},
		{"PIM-HBM", "bn", base, 2818, 256, 32, [8]int64{4, 68, 0, 2, 128, 130, 0, 4248}},
		{"PIM-HBM-2x", "gemv", v2x, 63925, 8192, 512, [8]int64{22, 1286, 256, 4, 4096, 4113, 13, 266272}},
		{"PIM-HBM-2x", "add", v2x, 1719, 192, 12, [8]int64{4, 84, 0, 2, 128, 66, 0, 6288}},
		{"PIM-HBM-2x", "bn", v2x, 1250, 128, 8, [8]int64{4, 68, 0, 2, 64, 66, 0, 4208}},
		{"PIM-HBM-2BA", "gemv", v2ba, 87510, 8192, 1024, [8]int64{18, 1362, 64, 8, 4096, 4113, 18, 135200}},
		{"PIM-HBM-2BA", "add", v2ba, 2827, 256, 32, [8]int64{4, 84, 0, 2, 128, 129, 0, 4264}},
		{"PIM-HBM-2BA", "bn", v2ba, 2818, 256, 32, [8]int64{4, 68, 0, 2, 128, 130, 0, 4248}},
		{"PIM-HBM-SRW", "gemv", srw, 42037, 4096, 512, [8]int64{18, 1202, 64, 8, 0, 4113, 8, 69664}},
		{"PIM-HBM-SRW", "add", srw, 4143, 384, 48, [8]int64{4, 84, 0, 2, 256, 130, 0, 6312}},
		{"PIM-HBM-SRW", "bn", srw, 2818, 256, 32, [8]int64{4, 68, 0, 2, 128, 130, 0, 4248}},
		{"GDDR6", "gemv", gddr6, 203664, 16384, 2048, [8]int64{52, 2820, 256, 16, 8192, 8226, 41, 540800}},
		{"LPDDR5", "gemv", lpddr5, 2021859, 131072, 16384, [8]int64{224, 27376, 512, 128, 65536, 65808, 641, 1081600}},
	} {
		rt, devs, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.device, err)
		}
		var ks blas.KernelStats
		switch g.kernel {
		case "gemv":
			_, ks, err = blas.PimGemv(rt, nil, 1024, 4096, nil)
		case "add":
			_, ks, err = blas.PimAdd(rt, nil, nil, 1<<20)
		case "bn":
			_, ks, err = blas.PimBN(rt, nil, 1<<20, 0, 0)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", g.device, g.kernel, err)
		}
		if ks.Cycles != g.cycles || ks.Triggers != g.triggers || ks.Fences != g.fences {
			t.Errorf("%s %s: cycles %d triggers %d fences %d, want %d/%d/%d", g.device, g.kernel,
				ks.Cycles, ks.Triggers, ks.Fences, g.cycles, g.triggers, g.fences)
		}
		var st hbm.Stats
		for _, d := range devs {
			st.Add(d.Stats())
		}
		got := [8]int64{st.ACT, st.PRE, st.RD, st.WR, st.ABRD, st.ABWR, st.REF, st.PIMInstr}
		if got != g.census {
			t.Errorf("%s %s: ACT/PRE/RD/WR/ABRD/ABWR/REF/PIMInstr = %v, want %v", g.device, g.kernel, got, g.census)
		}
	}
}
