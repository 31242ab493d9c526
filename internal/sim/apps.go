package sim

import (
	"fmt"

	"pimsim/internal/hbm"
	"pimsim/internal/models"
)

// Application evaluation (Fig. 10 right half, Figs. 12 and 13). Each layer
// is costed on the host system and, where the runtime preprocessor deems
// it eligible (the paper offloads the LSTM and large fully connected
// layers), on the PIM system; end-to-end time is the layer sum.

// Host-side gate math costs per LSTM step: batched (streaming encoder)
// versus dispatched per step (decoder).
const (
	gateNsStreaming = 500
	gateNsPerStep   = 2000
)

// LayerTime is one layer's cost on both systems.
type LayerTime struct {
	Name          string
	Kind          models.LayerKind
	OnPIM         bool
	HostNs        float64
	PimNs         float64
	HostDRAMBytes float64 // host execution traffic (both systems when !OnPIM)
	HostProcWatts float64 // package power while the host version runs
	PimStats      hbm.Stats
}

// AppResult is one application at one batch size.
type AppResult struct {
	Model   string
	Batch   int
	Layers  []LayerTime
	HostNs  float64
	PimNs   float64
	Speedup float64

	HostProcJ, HostDevJ float64
	PimProcJ, PimDevJ   float64
}

// EnergyEffGain returns host-system energy over PIM-system energy.
func (r AppResult) EnergyEffGain() float64 {
	return (r.HostProcJ + r.HostDevJ) / (r.PimProcJ + r.PimDevJ)
}

// offloadFC reports whether the preprocessor sends an FC layer to PIM:
// only when its weights cannot live in the LLC (Section V-A; the paper
// offloads AlexNet's large FC layers but not tiny output projections).
// Per-step decoder FCs (Steps > 1, e.g. GNMT's vocabulary projection)
// stay on the host: the paper offloads only the single-shot classifier
// FCs (AlexNet) alongside the LSTMs.
func offloadFC(l models.Layer, s *System) bool {
	return l.Steps <= 1 && l.WeightBytes() > float64(s.Proc.LLCBytes)
}

// layerCost computes one layer on both systems.
func layerCost(pim, hostSys *System, l models.Layer, batch int) (LayerTime, error) {
	lt := LayerTime{Name: l.Name, Kind: l.Kind}
	launch := hostSys.Proc.KernelLaunchNs
	calls := l.Steps
	if calls <= 0 {
		calls = 1
	}

	hostOnly := func(ns, bytes, watts float64) {
		lt.HostNs, lt.PimNs = ns, ns
		lt.HostDRAMBytes = bytes
		lt.HostProcWatts = watts
	}

	switch l.Kind {
	case models.Conv:
		c, err := hostSys.Proc.Conv(2*l.MACs, l.Bytes, batch)
		if err != nil {
			return lt, err
		}
		hostOnly(c.NS, c.DRAMBytes, c.ProcWatts)

	case models.FC, models.Attention:
		c, err := hostSys.Proc.Gemv(l.M, l.K, batch)
		if err != nil {
			return lt, err
		}
		lt.HostNs = float64(calls) * c.NS
		lt.HostDRAMBytes = float64(calls) * c.DRAMBytes
		lt.HostProcWatts = c.ProcWatts
		if l.Kind == models.FC && offloadFC(l, pim) {
			pc, err := pim.PimGemvCost(l.M, l.K)
			if err != nil {
				return lt, err
			}
			lt.OnPIM = true
			lt.PimNs = float64(calls*batch) * (pc.Ns + launch)
			lt.PimStats = pc.Stats
			lt.PimStats.Scale(int64(calls * batch))
		} else {
			lt.PimNs = lt.HostNs
		}

	case models.LSTM:
		dirs := l.Directions()
		// Host: one fused 4H x (X+H) GEMV per step and direction; the
		// streaming encoder amortizes kernel launches over the sequence.
		hc, err := hostSys.Proc.LSTMGemv(4*l.H, l.X+l.H, batch)
		if err != nil {
			return lt, err
		}
		gemvNoLaunch := hc.NS - launch
		gate := float64(gateNsPerStep)
		launches := float64(l.Steps)
		if l.Streaming {
			gate = gateNsStreaming
			launches = 1
		}
		lt.HostNs = float64(dirs) * (float64(l.Steps)*(gemvNoLaunch+gate) + launches*launch)
		lt.HostDRAMBytes = float64(dirs*l.Steps) * hc.DRAMBytes
		lt.HostProcWatts = hc.ProcWatts

		// PIM: two GEMV kernels per step (Wx and Wh), sequential per
		// batch sample; gate math stays on the host.
		gx, err := pim.PimGemvCost(4*l.H, l.X)
		if err != nil {
			return lt, err
		}
		gh, err := pim.PimGemvCost(4*l.H, l.H)
		if err != nil {
			return lt, err
		}
		perStep := gx.Ns + gh.Ns
		pimLaunches := 2 * float64(l.Steps)
		if l.Streaming {
			pimLaunches = 2
		}
		lt.OnPIM = true
		lt.PimNs = float64(dirs*batch) * (float64(l.Steps)*(perStep+gate) + pimLaunches*launch)
		lt.PimStats = gx.Stats
		lt.PimStats.Add(gh.Stats)
		lt.PimStats.Scale(int64(l.Steps * dirs * batch))

	case models.BN, models.ReLU, models.Residual, models.Softmax:
		streams := 2
		if l.Kind == models.Residual {
			streams = 3
		}
		c, err := hostSys.Proc.Eltwise(l.N, batch, streams)
		if err != nil {
			return lt, err
		}
		hostOnly(c.NS, c.DRAMBytes, c.ProcWatts)

	default:
		return lt, fmt.Errorf("sim: unhandled layer kind %s", l.Kind)
	}
	return lt, nil
}

// EvalApp runs one model at one batch size on both systems.
func EvalApp(pim, hostSys *System, m models.Model, batch int) (AppResult, error) {
	if err := m.Validate(); err != nil {
		return AppResult{}, err
	}
	res := AppResult{Model: m.Name, Batch: batch}
	for _, l := range m.Layers {
		lt, err := layerCost(pim, hostSys, l, batch)
		if err != nil {
			return res, fmt.Errorf("sim: %s/%s: %w", m.Name, l.Name, err)
		}
		res.Layers = append(res.Layers, lt)
		res.HostNs += lt.HostNs
		res.PimNs += lt.PimNs

		// Energy: host layers cost the same on both systems; PIM layers
		// swap to drive power + counted device activity.
		hp, hd := hostSys.hostKernelEnergyJ(lt.HostNs, lt.HostDRAMBytes, lt.HostProcWatts)
		res.HostProcJ += hp
		res.HostDevJ += hd
		if lt.OnPIM {
			pp, pd := pim.pimKernelEnergyJ(lt.PimNs, lt.PimStats)
			res.PimProcJ += pp
			res.PimDevJ += pd
		} else {
			pp, pd := pim.hostKernelEnergyJ(lt.PimNs, lt.HostDRAMBytes, lt.HostProcWatts)
			res.PimProcJ += pp
			res.PimDevJ += pd
		}
	}
	res.Speedup = res.HostNs / res.PimNs
	return res, nil
}

// PowerSegment is one step of the Fig. 13 power-over-time trace.
type PowerSegment struct {
	Layer          string
	OnPIM          bool
	StartNs, EndNs float64
	Watts          float64
}

// PowerTimeline derives the average-system-power trace of one system's
// execution of an app result. pimSide selects the PIM system's trace.
func PowerTimeline(res AppResult, s *System, pimSide bool) []PowerSegment {
	segs := make([]PowerSegment, 0, len(res.Layers))
	t := 0.0
	for _, lt := range res.Layers {
		ns := lt.HostNs
		var procJ, devJ float64
		if pimSide {
			ns = lt.PimNs
			if lt.OnPIM {
				procJ, devJ = s.pimKernelEnergyJ(ns, lt.PimStats)
			} else {
				procJ, devJ = s.hostKernelEnergyJ(ns, lt.HostDRAMBytes, lt.HostProcWatts)
			}
		} else {
			procJ, devJ = s.hostKernelEnergyJ(ns, lt.HostDRAMBytes, lt.HostProcWatts)
		}
		if ns <= 0 {
			continue
		}
		segs = append(segs, PowerSegment{
			Layer: lt.Name, OnPIM: pimSide && lt.OnPIM,
			StartNs: t, EndNs: t + ns,
			Watts: (procJ + devJ) / (ns * 1e-9),
		})
		t += ns
	}
	return segs
}
