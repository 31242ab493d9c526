package sim

import (
	"fmt"

	"pimsim/internal/blas"
	"pimsim/internal/hbm"
	"pimsim/internal/memctrl"
	"pimsim/internal/metrics"
)

// Ablations of the design choices DESIGN.md calls out. Each returns a
// labeled series a harness can print; the sim tests assert the
// directional effects.

// AblationPoint is one configuration of one sweep.
type AblationPoint struct {
	Label  string
	Value  float64
	Metric string
}

// AblateFenceCost sweeps the host fence cost and reports the GEMV4 kernel
// time — how sensitive the flagship kernel is to the ordering overhead
// that AAM exists to bound (Section IV-C / VII-B).
func AblateFenceCost() ([]AblationPoint, error) {
	out := []AblationPoint{}
	for _, cost := range []int{0, 10, 20, 35, 60, 100} {
		rt, _, err := timingStack(hbm.PIMHBMConfig(MemClockMHz))
		if err != nil {
			return nil, err
		}
		for _, ch := range rt.Chans {
			ch.FenceCycles = cost
		}
		_, ks, err := blas.PimGemv(rt, nil, 8192, 8192, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Label:  fmt.Sprintf("fence=%d cycles", cost),
			Value:  rt.Cfg.Timing.CyclesToNs(ks.Cycles) / 1000,
			Metric: "GEMV4 us",
		})
	}
	return out, nil
}

// AblateRefreshRate reruns GEMV4 with the refresh interval shortened 4x
// (the high-temperature operating point the underlying HBM design adapts
// to), showing how much of a PIM burst refresh steals.
func AblateRefreshRate() ([]AblationPoint, error) {
	out := []AblationPoint{}
	for _, div := range []int{1, 2, 4, 8} {
		cfg := hbm.PIMHBMConfig(MemClockMHz)
		cfg.Timing.REFI /= div
		rt, _, err := timingStack(cfg)
		if err != nil {
			return nil, err
		}
		_, ks, err := blas.PimGemv(rt, nil, 8192, 8192, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Label:  fmt.Sprintf("tREFI/%d", div),
			Value:  cfg.Timing.CyclesToNs(ks.Cycles) / 1000,
			Metric: "GEMV4 us",
		})
	}
	return out, nil
}

// AblateAddressMapping compares the shipped mapping (bank-group bits
// below the column bits, sustaining tCCD_S on streams) against the naive
// column-under-bank-group order, measured as sequential-stream bandwidth
// on one channel.
func AblateAddressMapping() ([]AblationPoint, error) {
	out := []AblationPoint{}
	for _, colUnder := range []bool{false, true} {
		gbps, err := streamBandwidth(colUnder, 2, false)
		if err != nil {
			return nil, err
		}
		label := "bg-under-col (shipped)"
		if colUnder {
			label = "col-under-bg"
		}
		out = append(out, AblationPoint{Label: label, Value: gbps, Metric: "seq GB/s"})
	}
	return out, nil
}

// AblateActivateAhead compares the scheduler with and without
// activate-ahead on a random transaction stream.
func AblateActivateAhead() ([]AblationPoint, error) {
	out := []AblationPoint{}
	for _, depth := range []int{0, 1, 2, 4} {
		gbps, err := streamBandwidth(false, depth, true)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Label:  fmt.Sprintf("ahead=%d", depth),
			Value:  gbps,
			Metric: "rand GB/s",
		})
	}
	return out, nil
}

// streamBandwidth measures one channel's delivered bandwidth on a 2048-
// block stream, sequential or pseudo-random.
func streamBandwidth(colUnderBG bool, aheadDepth int, random bool) (float64, error) {
	cfg := hbm.HBM2Config(MemClockMHz)
	cfg.Functional = false
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		return 0, err
	}
	ch := memctrl.NewChannel(dev.PCH(0), cfg, metrics.New(1), 0)
	s := memctrl.NewScheduler(ch, cfg)
	s.AheadDepth = aheadDepth
	s.AutoRelease = true // results discarded; recycle transactions
	m := memctrl.NewAddrMap(16, cfg.BankGroups, cfg.BanksPerGroup,
		cfg.Rows, cfg.ColumnsPerRow(), cfg.AccessBytes)
	m.ColUnderBG = colUnderBG

	const blocks = 2048
	var state uint64
	next := func() uint64 { // splitmix64: avalanched low bits
		state += 0x9E3779B97F4A7C15
		z := state
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		return z ^ z>>31
	}
	for i := 0; i < blocks; i++ {
		var addr uint64
		if random {
			addr = (next() % m.Capacity()) &^ 31
		} else {
			addr = uint64(i) * 32 * 16 // sequential within channel 0
		}
		loc, err := m.Decode(addr)
		if err != nil {
			return 0, err
		}
		loc.Channel = 0
		s.Enqueue(false, loc, nil)
	}
	end, err := s.Drain()
	if err != nil {
		return 0, err
	}
	return float64(blocks*32) / cfg.Timing.CyclesToNs(end), nil
}

// RunAblations collects every sweep.
func RunAblations() (map[string][]AblationPoint, error) {
	out := map[string][]AblationPoint{}
	for name, fn := range map[string]func() ([]AblationPoint, error){
		"fence-cost":      AblateFenceCost,
		"refresh-rate":    AblateRefreshRate,
		"address-mapping": AblateAddressMapping,
		"activate-ahead":  AblateActivateAhead,
		"write-buffer":    AblateWriteBuffer,
	} {
		pts, err := fn()
		if err != nil {
			return nil, fmt.Errorf("sim: ablation %s: %w", name, err)
		}
		out[name] = pts
	}
	return out, nil
}

// ClockCorner is one memory-frequency operating point (Tables IV/V list
// 1.0 and 1.2 GHz corners).
type ClockCorner struct {
	MHz         int
	OnChipTBps  float64
	OffChipGBps float64
	GEMV4Us     float64
	UnitGFLOPS  float64 // per PIM execution unit at tCK/4
}

// RunClockCorners evaluates the two specified frequency corners.
func RunClockCorners() ([]ClockCorner, error) {
	out := []ClockCorner{}
	for _, mhz := range []int{1000, 1200} {
		cfg := hbm.PIMHBMConfig(mhz)
		rt, _, err := timingStack(cfg)
		if err != nil {
			return nil, err
		}
		_, ks, err := blas.PimGemv(rt, nil, 8192, 8192, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, ClockCorner{
			MHz:         mhz,
			OnChipTBps:  cfg.OnChipGBps() * DeviceCount / 1000,
			OffChipGBps: cfg.OffChipGBps() * DeviceCount,
			GEMV4Us:     cfg.Timing.CyclesToNs(ks.Cycles) / 1000,
			UnitGFLOPS:  float64(mhz) / 4 / 1000 * 16 * 2,
		})
	}
	return out, nil
}

// AblateWriteBuffer measures the host controller's posted-write benefit:
// average read latency on a bursty mixed stream, interleaved vs buffered.
func AblateWriteBuffer() ([]AblationPoint, error) {
	run := func(buffered bool) (float64, error) {
		cfg := hbm.HBM2Config(MemClockMHz)
		cfg.Functional = false
		dev, err := hbm.NewDevice(cfg)
		if err != nil {
			return 0, err
		}
		ch := memctrl.NewChannel(dev.PCH(0), cfg, metrics.New(1), 0)
		s := memctrl.NewScheduler(ch, cfg)
		if buffered {
			if err := s.EnableWriteBuffer(4, 16); err != nil {
				return 0, err
			}
		}
		var state uint64
		next := func() uint64 {
			state += 0x9E3779B97F4A7C15
			z := state
			z ^= z >> 30
			z *= 0xBF58476D1CE4E5B9
			z ^= z >> 27
			z *= 0x94D049BB133111EB
			return z ^ z>>31
		}
		var total float64
		var reads int
		type pending struct {
			tx  *memctrl.Tx
			enq int64
		}
		for burst := 0; burst < 64; burst++ {
			var ps []pending
			for i := 0; i < 10; i++ {
				r := next()
				loc := memctrl.Loc{
					BG:   int(r % 4),
					Bank: int(r >> 2 % 4),
					Row:  uint32(r >> 4 % 32),
					Col:  uint32(r >> 9 % 64),
				}
				if r>>15%10 < 4 {
					s.Enqueue(true, loc, nil)
				} else {
					ps = append(ps, pending{s.Enqueue(false, loc, nil), ch.Now()})
				}
			}
			for s.Pending() > 0 {
				if _, err := s.Drain(); err != nil {
					return 0, err
				}
			}
			if err := s.Idle(16); err != nil {
				return 0, err
			}
			for _, p := range ps {
				total += float64(p.tx.Done() - p.enq)
				reads++
			}
		}
		return total / float64(reads), nil
	}
	base, err := run(false)
	if err != nil {
		return nil, err
	}
	buf, err := run(true)
	if err != nil {
		return nil, err
	}
	return []AblationPoint{
		{Label: "interleaved writes", Value: base, Metric: "read latency (cycles)"},
		{Label: "posted writes", Value: buf, Metric: "read latency (cycles)"},
	}, nil
}
