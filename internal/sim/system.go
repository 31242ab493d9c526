// Package sim assembles the full evaluated systems — a host processor
// 2.5D-integrated with four HBM2 or PIM-HBM stacks — and implements every
// experiment of Section VII: the Fig. 10 microbenchmarks and applications,
// the Fig. 11-13 power and energy studies, the fence-removal and
// encoder-only analyses, and the Fig. 14 design space exploration.
package sim

import (
	"fmt"

	"pimsim/internal/blas"
	"pimsim/internal/energy"
	"pimsim/internal/engine"
	"pimsim/internal/hbm"
	"pimsim/internal/host"
	"pimsim/internal/runtime"
)

// DeviceCount is the number of stacks in the SiP (Section VI).
const DeviceCount = 4

// MemClockMHz is the evaluated memory clock (1.2 GHz parts).
const MemClockMHz = 1200

// System is one host + memory configuration.
type System struct {
	Name     string
	Proc     host.Processor
	Params   energy.Params
	MemScale float64 // device-count multiplier (PROC-HBMx4)

	// PIM side (nil for host-only systems).
	RT      *runtime.Runtime
	Devices []*hbm.Device

	// HostDriveFrac is the fraction of busy power the host draws while it
	// is only feeding command streams to PIM (issuing uncached loads and
	// stores rather than running FP math).
	HostDriveFrac float64

	gemvCache map[[2]int]PimCost
	eltCache  map[eltKey]PimCost
}

type eltKey struct {
	op string
	n  int
}

// PimCost is one measured PIM kernel.
type PimCost struct {
	Ns       float64
	Cycles   int64
	Stats    hbm.Stats // full-system device activity (scaled from channel 0)
	Triggers int64
}

// timingStack builds the SiP's memory side, DeviceCount stacks of cfg, as
// a timing-only stack: experiments are timing runs, tests use blas
// directly.
func timingStack(cfg hbm.Config) (*runtime.Runtime, []*hbm.Device, error) {
	cfg.Functional = false
	return runtime.NewStack(cfg, DeviceCount)
}

// NewPIMSystem builds the processor-with-PIM-HBM system. Variant selects
// a Fig. 14 microarchitecture; use hbm.VariantBase for the product.
func NewPIMSystem(variant hbm.Variant) (*System, error) {
	rt, devs, err := timingStack(hbm.PIMHBMVariantConfig(variant, MemClockMHz))
	if err != nil {
		return nil, err
	}
	return &System{
		Name:          variant.String(),
		Proc:          host.Default(),
		Params:        energy.DefaultParams(),
		MemScale:      1,
		RT:            rt,
		Devices:       devs,
		HostDriveFrac: 0.95,
		gemvCache:     map[[2]int]PimCost{},
		eltCache:      map[eltKey]PimCost{},
	}, nil
}

// NewHostSystem builds the PROC-HBM baseline (memScale 1) or the
// hypothetical PROC-HBMx4 (memScale 4), Fig. 12.
func NewHostSystem(memScale float64) *System {
	name := "PROC-HBM"
	if memScale != 1 {
		name = fmt.Sprintf("PROC-HBMx%g", memScale)
	}
	return &System{
		Name:     name,
		Proc:     host.Default().WithMemory(memScale),
		Params:   energy.DefaultParams(),
		MemScale: memScale,
	}
}

// UseEngine installs a channel-execution engine on the system's runtime
// (see internal/engine). The Section VII experiments simulate one
// symmetric channel — channel parallelism gains them nothing — but
// functional multi-channel studies built on a System can opt in.
func (s *System) UseEngine(e engine.Engine) {
	if s.RT != nil {
		s.RT.UseEngine(e)
	}
}

// IsPIM reports whether the system has PIM execution units.
func (s *System) IsPIM() bool { return s.RT != nil }

// Channels returns the total pseudo-channel count of the memory system.
func (s *System) Channels() int {
	if s.RT != nil {
		return s.RT.NumChannels()
	}
	return DeviceCount * 16
}

// deviceStats snapshots summed device counters.
func (s *System) deviceStats() hbm.Stats {
	var st hbm.Stats
	for _, d := range s.Devices {
		st.Add(d.Stats())
	}
	return st
}

// measure wraps a timing-only blas kernel call with stat accounting.
func (s *System) measure(run func() (blas.KernelStats, error)) (PimCost, error) {
	if !s.IsPIM() {
		return PimCost{}, fmt.Errorf("sim: %s has no PIM units", s.Name)
	}
	before := s.deviceStats()
	ks, err := run()
	if err != nil {
		return PimCost{}, err
	}
	full := s.deviceStats()
	full.Sub(before)
	// Extrapolate the simulated channels to all symmetric channels.
	sims := int64(s.RT.EffectiveChannels())
	full.Scale(int64(s.RT.NumChannels()) / sims)
	return PimCost{
		Ns:       s.RT.Cfg.Timing.CyclesToNs(ks.Cycles),
		Cycles:   ks.Cycles,
		Stats:    full,
		Triggers: ks.Triggers * int64(s.RT.NumChannels()) / sims,
	}, nil
}

// PimGemvCost measures (and caches) one M x K GEMV kernel.
func (s *System) PimGemvCost(m, k int) (PimCost, error) {
	key := [2]int{m, k}
	if c, ok := s.gemvCache[key]; ok {
		return c, nil
	}
	c, err := s.measure(func() (blas.KernelStats, error) {
		_, ks, err := blas.PimGemv(s.RT, nil, m, k, nil)
		return ks, err
	})
	if err != nil {
		return PimCost{}, err
	}
	s.gemvCache[key] = c
	return c, nil
}

// PimEltCost measures (and caches) one elementwise kernel of n elements.
// op is one of "add", "mul", "relu", "bn".
func (s *System) PimEltCost(op string, n int) (PimCost, error) {
	key := eltKey{op, n}
	if c, ok := s.eltCache[key]; ok {
		return c, nil
	}
	c, err := s.measure(func() (blas.KernelStats, error) {
		var ks blas.KernelStats
		var err error
		switch op {
		case "add":
			_, ks, err = blas.PimAdd(s.RT, nil, nil, n)
		case "mul":
			_, ks, err = blas.PimMul(s.RT, nil, nil, n)
		case "relu":
			_, ks, err = blas.PimReLU(s.RT, nil, n)
		case "bn":
			_, ks, err = blas.PimBN(s.RT, nil, n, 0, 0)
		default:
			err = fmt.Errorf("sim: unknown eltwise op %q", op)
		}
		return ks, err
	})
	if err != nil {
		return PimCost{}, err
	}
	s.eltCache[key] = c
	return c, nil
}

// SetGuaranteeOrder toggles the in-order PIM controller study. Cached
// kernel costs are invalidated.
func (s *System) SetGuaranteeOrder(on bool) {
	if s.RT == nil {
		return
	}
	s.RT.SetGuaranteeOrder(on)
	s.gemvCache = map[[2]int]PimCost{}
	s.eltCache = map[eltKey]PimCost{}
}
