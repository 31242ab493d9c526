package blas

import (
	"fmt"
	"sync/atomic"

	"pimsim/internal/fp16"
	"pimsim/internal/isa"
	"pimsim/internal/runtime"
)

// GEMV on PIM-HBM (the paper's flagship kernel, Section V-A / Fig. 7).
//
// y = W*x with W row-major (M outputs x K inputs), all FP16.
//
// Data layout: outputs are tiled into blocks of 16 (one SIMD lane each).
// Block b is owned by channel b%C, unit (b/C)%U, macro-pass (b/C)/U. The
// owning unit's even bank holds the block's weights: during pass p the
// kernel consumes inputs k = p*G .. p*G+G-1 (G = GRF depth, 8), and
// column (p%passesPerRow)*G + i of the pass's row holds the 16 lane
// weights W[block*16+lane][p*G+i].
//
// Microkernel (programmed once per invocation of <= 128 passes):
//
//	MOV(AAM)  GRF_A, EVEN_BANK        ; G WR triggers push x splats
//	JUMP -1, G-1
//	MAC(AAM)  GRF_B, GRF_A, EVEN_BANK ; G RD triggers accumulate
//	JUMP -1, G-1
//	JUMP -4, passes-1
//	EXIT
//
// GRF_B[i][lane] accumulates the partial sum over inputs k = i (mod G);
// the host folds the G partial registers after reading them back through
// the SB register space (the result unload).
type gemvPlan struct {
	M, K   int // logical dims
	Mp, Kp int // padded dims
	C      int // channels
	U      int // units per channel
	G      int // GRF depth = pass size = AAM window
	lanes  int

	blocks       int
	macros       int
	passes       int // per macro
	passesPerRow int
	rowsPerMacro int
	baseRow      uint32

	// replicated is the serving layout (resident.go): every channel holds
	// every output block, so each channel can compute a complete y for its
	// own input vector and a batch maps one request per channel.
	replicated bool
}

func planGemv(rt *runtime.Runtime, M, K int) (*gemvPlan, error) {
	return planGemvLayout(rt, M, K, false)
}

func planGemvLayout(rt *runtime.Runtime, M, K int, replicated bool) (*gemvPlan, error) {
	if M <= 0 || K <= 0 {
		return nil, fmt.Errorf("blas: gemv dims %dx%d", M, K)
	}
	p := &gemvPlan{
		M: M, K: K,
		C:          rt.NumChannels(),
		U:          rt.Cfg.PIMUnits,
		G:          rt.Cfg.GRFDepth(),
		lanes:      fp16.Lanes,
		replicated: replicated,
	}
	p.Kp = ceilDiv(K, p.G) * p.G
	p.Mp = ceilDiv(M, p.lanes) * p.lanes
	p.blocks = p.Mp / p.lanes
	if replicated {
		// Every channel computes every block for its own input, so the
		// macro count is bounded by the units of one channel alone.
		p.macros = ceilDiv(p.blocks, p.U)
	} else {
		p.macros = ceilDiv(p.blocks, p.C*p.U)
	}
	p.passes = p.Kp / p.G
	p.passesPerRow = rt.Cfg.ColumnsPerRow() / p.G
	p.rowsPerMacro = ceilDiv(p.passes, p.passesPerRow)
	base, err := rt.Drv.AllocPIMRows(p.macros * p.rowsPerMacro)
	if err != nil {
		return nil, err
	}
	p.baseRow = base
	return p, nil
}

// block returns the output block owned by (macro, unit, channel), or -1.
func (p *gemvPlan) block(macro, unit, ch int) int {
	var b int
	if p.replicated {
		b = macro*p.U + unit // identical block set in every channel
	} else {
		b = (macro*p.U+unit)*p.C + ch
	}
	if b >= p.blocks {
		return -1
	}
	return b
}

// passRowCol locates pass p, lane-input i within a macro.
func (p *gemvPlan) passRowCol(macro, pass, i int) (uint32, uint32) {
	row := p.baseRow + uint32(macro*p.rowsPerMacro+pass/p.passesPerRow)
	col := uint32((pass%p.passesPerRow)*p.G + i)
	return row, col
}

// layoutWeights writes W into the banks (functional mode setup; the PIM
// BLAS does this once when the host loads the model, Section VIII). A
// replicated layout holds the same block set in every channel, so each
// row's payload is gathered and serialised once and the same write goes
// down every channel's own command stream.
func (p *gemvPlan) layoutWeights(rt *runtime.Runtime, W fp16.Vector) error {
	banksPerUnit := rt.Cfg.BanksPerUnit()
	cols := make([]uint32, 0, rt.Cfg.ColumnsPerRow())
	data := make([][]byte, 0, rt.Cfg.ColumnsPerRow())
	// Reusable payload buffers: WriteBankRowSB copies into bank storage, so
	// the entries pending between flushes (at most one row's worth) can
	// share one set of buffers instead of allocating two objects per column.
	bufs := make([][]byte, rt.Cfg.ColumnsPerRow())
	for i := range bufs {
		bufs[i] = make([]byte, 2*p.lanes)
	}
	vec := fp16.NewVector(p.lanes)
	// built counts the distinct layouts, dests the channels each goes to.
	built, dests := p.C, 1
	if p.replicated {
		built, dests = 1, p.C
	}
	for ch := 0; ch < built; ch++ {
		for u := 0; u < p.U; u++ {
			evenBank := u * banksPerUnit
			for m := 0; m < p.macros; m++ {
				b := p.block(m, u, ch)
				if b < 0 {
					continue
				}
				var curRow uint32
				cols, data = cols[:0], data[:0]
				flush := func() error {
					if len(cols) == 0 {
						return nil
					}
					for c := ch; c < ch+dests; c++ {
						if err := rt.WriteBankRowSB(c, evenBank, curRow, cols, data); err != nil {
							return err
						}
					}
					cols, data = cols[:0], data[:0]
					return nil
				}
				for pass := 0; pass < p.passes; pass++ {
					row, _ := p.passRowCol(m, pass, 0)
					if len(cols) > 0 && row != curRow {
						if err := flush(); err != nil {
							return err
						}
					}
					curRow = row
					for i := 0; i < p.G; i++ {
						_, col := p.passRowCol(m, pass, i)
						k := pass*p.G + i
						for lane := 0; lane < p.lanes; lane++ {
							var w fp16.F16
							if k < p.K {
								if o := b*p.lanes + lane; o < p.M {
									w = W[o*p.K+k]
								}
							}
							vec[lane] = w
						}
						buf := bufs[len(data)]
						vec.PutBytes(buf)
						cols = append(cols, col)
						data = append(data, buf)
					}
				}
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// gemvProgram builds the microkernel for an invocation of n passes. The
// SRW variant forwards the write datapath straight into the GRF while the
// bank read proceeds (Fig. 14), merging the vector-load batch into the
// MAC batch: one WR command per input instead of a WR plus an RD.
func gemvProgram(g, n int, srw bool) []isa.Instruction {
	if srw {
		return []isa.Instruction{
			{Op: isa.MAC, Dst: isa.GRFB, Src0: isa.GRFA, Src1: isa.EvenBank, AAM: true},
			isa.Jump(g-1, 1),
			isa.Jump(n-1, 2),
			isa.Exit(),
		}
	}
	return []isa.Instruction{
		{Op: isa.MOV, Dst: isa.GRFA, Src0: isa.EvenBank, AAM: true},
		isa.Jump(g-1, 1),
		{Op: isa.MAC, Dst: isa.GRFB, Src0: isa.GRFA, Src1: isa.EvenBank, AAM: true},
		isa.Jump(g-1, 1),
		isa.Jump(n-1, 4),
		isa.Exit(),
	}
}

// maxPassesPerInvocation is bounded by the 7-bit JUMP iteration field.
const maxPassesPerInvocation = isa.MaxLoopIter + 1

// PimGemv runs y = W*x on the PIM execution units. In functional mode
// (device Config.Functional) W and x must be provided and the numeric
// result is returned; in timing-only mode pass nil operands and only
// KernelStats is meaningful.
func PimGemv(rt *runtime.Runtime, W fp16.Vector, M, K int, x fp16.Vector) (fp16.Vector, KernelStats, error) {
	functional := rt.Cfg.Functional
	if functional {
		if err := checkLen("W", W, M*K); err != nil {
			return nil, KernelStats{}, err
		}
		if err := checkLen("x", x, K); err != nil {
			return nil, KernelStats{}, err
		}
		if W == nil || x == nil {
			return nil, KernelStats{}, fmt.Errorf("blas: functional device requires W and x")
		}
	}
	plan, err := planGemv(rt, M, K)
	if err != nil {
		return nil, KernelStats{}, err
	}
	// Scoped free: only this kernel's rows, so resident weights (served
	// models) in neighbouring spans survive ad-hoc GEMV calls.
	defer func() { _ = rt.Drv.FreePIMRows(plan.baseRow) }()

	if functional {
		if err := plan.layoutWeights(rt, W); err != nil {
			return nil, KernelStats{}, err
		}
	}

	// Pre-build the splat payloads once: every channel sends the same x.
	var xdata [][]byte
	if functional {
		xdata = splats(x, plan.Kp)
	}

	var y fp16.Vector
	if functional {
		y = fp16.NewVector(M)
	}

	reg := beginRegion(rt)
	var triggers atomic.Int64
	chErr := rt.ForEachChannel(func(ch int) error {
		n, err := plan.runChannel(rt, ch, xdata, y)
		triggers.Add(n)
		return err
	})
	if chErr != nil {
		return nil, KernelStats{}, chErr
	}
	ks := reg.end()
	ks.Triggers = triggers.Load()
	return y, ks, nil
}

// runChannel is one pseudo channel's GEMV command stream, the body both
// PimGemv (every channel, the same x, disjoint output blocks of one y)
// and ResidentGemv.RunSlots (each occupied channel its own x and y) run:
// per macro, zero the accumulators, then per invocation of at most
// maxPassesPerInvocation passes program the CRF, enter PIM mode and walk
// the weight rows issuing the WR (input splat) and RD (MAC) trigger runs;
// after the last pass unload GRF_B through the SB register space and fold
// the G partial sums into y. xdata holds the splat payloads, G per pass;
// on a timing-only device xdata and y are nil and only the commands
// issue. Returns the column triggers issued.
func (p *gemvPlan) runChannel(rt *runtime.Runtime, ch int, xdata [][]byte, y fp16.Vector) (int64, error) {
	srw := rt.Cfg.WROperand()
	var triggers int64
	if err := rt.EnterAB(ch); err != nil {
		return triggers, err
	}
	for m := 0; m < p.macros; m++ {
		if err := rt.ZeroGRF(ch); err != nil {
			return triggers, err
		}
		pass := 0
		lastProg := -1
		for pass < p.passes {
			chunk := p.passes - pass
			if chunk > maxPassesPerInvocation {
				chunk = maxPassesPerInvocation
			}
			if chunk != lastProg {
				if err := rt.ProgramCRF(ch, gemvProgram(p.G, chunk, srw)); err != nil {
					return triggers, err
				}
				lastProg = chunk
			}
			if err := rt.SetPIMMode(ch, true); err != nil {
				return triggers, err
			}
			openRow := uint32(0)
			rowOpen := false
			for e := 0; e < chunk; e++ {
				ps := pass + e
				row, col0 := p.passRowCol(m, ps, 0)
				if !rowOpen || row != openRow {
					if rowOpen {
						if err := rt.CloseRows(ch); err != nil {
							return triggers, err
						}
					}
					if err := rt.OpenRow(ch, row); err != nil {
						return triggers, err
					}
					openRow, rowOpen = row, true
				}
				var data [][]byte
				if xdata != nil {
					data = xdata[ps*p.G : (ps+1)*p.G]
				}
				if err := rt.TriggerWRRun(ch, 0, col0, p.G, data); err != nil {
					return triggers, err
				}
				triggers += int64(p.G)
				rt.Fence(ch)
				if !srw {
					if err := rt.TriggerRDRun(ch, 0, col0, p.G); err != nil {
						return triggers, err
					}
					triggers += int64(p.G)
					rt.Fence(ch)
				}
			}
			if err := rt.CloseRows(ch); err != nil {
				return triggers, err
			}
			if err := rt.SetPIMMode(ch, false); err != nil {
				return triggers, err
			}
			pass += chunk
		}

		// Unload GRF_B through the SB register space and fold.
		if err := rt.ExitToSB(ch); err != nil {
			return triggers, err
		}
		regs, err := rt.ReadGRFRowSB(ch, 1, p.G)
		if err != nil {
			return triggers, err
		}
		if y != nil {
			for u := 0; u < p.U; u++ {
				if b := p.block(m, u, ch); b >= 0 {
					foldGRFB(y, b*p.lanes, regs[u])
				}
			}
		}
		if m+1 < p.macros {
			if err := rt.EnterAB(ch); err != nil {
				return triggers, err
			}
		}
	}
	return triggers, nil
}

// RefGemvPIMOrder computes y = W*x with exactly the PIM datapath's
// rounding order: per output, G interleaved FP16 accumulators folded left
// to right at the end. It is the oracle for PimGemv in functional tests,
// and an independent one: scalar MAC and Add, none of the vector kernels
// the device model runs. g is a device's GRF depth (hbm.Config.GRFDepth),
// at most the fixed buffer below.
func RefGemvPIMOrder(W fp16.Vector, M, K int, x fp16.Vector, g int) fp16.Vector {
	y := fp16.NewVector(M)
	var buf [2 * isa.GRFEntries]fp16.F16 // the deepest GRF half of any device variant
	accs := buf[:g]
	for o := 0; o < M; o++ {
		clear(accs)
		for k := 0; k < K; k++ {
			i := k % g
			accs[i] = fp16.MAC(accs[i], x[k], W[o*K+k])
		}
		acc := fp16.Zero
		for i := 0; i < g; i++ {
			acc = fp16.Add(acc, accs[i])
		}
		y[o] = acc
	}
	return y
}

// HostGemvF32 is the host library's math: float32 accumulation, FP16
// result — used by the model layers and accuracy comparisons.
func HostGemvF32(W fp16.Vector, M, K int, x fp16.Vector) fp16.Vector {
	y := fp16.NewVector(M)
	for o := 0; o < M; o++ {
		var acc float32
		for k := 0; k < K; k++ {
			acc += W[o*K+k].Float32() * x[k].Float32()
		}
		y[o] = fp16.FromFloat32(acc)
	}
	return y
}
