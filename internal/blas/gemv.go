package blas

import (
	"fmt"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/memctrl"
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

	// crf is the encoded microkernel, by invocation length: [0] for the
	// invocations of min(passes, maxPassesPerInvocation) passes, [1] for a
	// shorter last one when passes is not a multiple. Every tile of every
	// channel of every launch programs these same words.
	crf [2][]uint32

	// row is the trigger packet of a whole weight row: per pass j of the
	// row, the fenced WR window of its G input splats (payloads j*G.. of
	// the row's first pass) and, without SRW, the fenced RD (MAC) window.
	// A row visit issues the entries of the passes it runs.
	row []memctrl.Trigger
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
	srw := rt.Cfg.WROperand()
	var err error
	if p.crf[0], err = isa.EncodeProgram(gemvProgram(p.G, min(p.passes, maxPassesPerInvocation), srw)); err != nil {
		return nil, err
	}
	if tail := p.passes % maxPassesPerInvocation; tail != 0 && p.passes > maxPassesPerInvocation {
		if p.crf[1], err = isa.EncodeProgram(gemvProgram(p.G, tail, srw)); err != nil {
			return nil, err
		}
	}
	p.row = make([]memctrl.Trigger, 0, 2*p.passesPerRow)
	for j := 0; j < p.passesPerRow; j++ {
		col := uint32(j * p.G)
		p.row = append(p.row, memctrl.Trigger{Kind: hbm.CmdWR, Col: col, N: p.G, Data: j * p.G, Fence: true})
		if !srw {
			p.row = append(p.row, memctrl.Trigger{Kind: hbm.CmdRD, Col: col, N: p.G, Fence: true})
		}
	}
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

// triggers returns the column triggers runChannel issues.
func (p *gemvPlan) triggers() int64 {
	return int64(p.macros * p.passes * len(p.row) / p.passesPerRow * p.G)
}

// passRow returns the weight row that holds pass p of a macro; the pass's
// G inputs are its columns (p%passesPerRow)*G onwards.
func (p *gemvPlan) passRow(macro, pass int) uint32 {
	return p.baseRow + uint32(macro*p.rowsPerMacro+pass/p.passesPerRow)
}

// layoutWeights writes W into the banks (functional mode setup; the PIM
// BLAS does this once when the host loads the model, Section VIII), one
// bank row per write. A distributed layout differs per channel: each row
// is serialised into one reused buffer and written, channel after channel.
// A replicated layout holds the same block set in every channel, so its
// rows are serialised once, into one buffer the size of the padded
// matrix, and every channel writes them down its own command stream, side
// by side through the installed engine.
func (p *gemvPlan) layoutWeights(rt *runtime.Runtime, W fp16.Vector) error {
	colBytes := 2 * p.lanes
	if !p.replicated {
		buf := make([]byte, p.passesPerRow*p.G*colBytes)
		for ch := 0; ch < p.C; ch++ {
			err := p.eachRow(rt, ch, func(bank int, row uint32, b, lo, hi int) error {
				data := buf[:(hi-lo)*p.G*colBytes]
				p.rowPayload(W, b, lo, hi, data)
				return rt.WriteBankSB(ch, bank, row, 0, data)
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	type rowWrite struct {
		bank int
		row  uint32
		data []byte
	}
	writes := make([]rowWrite, 0, p.blocks*p.rowsPerMacro)
	buf := make([]byte, p.blocks*p.passes*p.G*colBytes)
	_ = p.eachRow(rt, 0, func(bank int, row uint32, b, lo, hi int) error { // returns only fn's error: none
		n := (hi - lo) * p.G * colBytes
		p.rowPayload(W, b, lo, hi, buf[:n])
		writes = append(writes, rowWrite{bank, row, buf[:n:n]})
		buf = buf[n:]
		return nil
	})
	return rt.ForEachChannel(func(ch int) error {
		for _, w := range writes {
			if err := rt.WriteBankSB(ch, w.bank, w.row, 0, w.data); err != nil {
				return err
			}
		}
		return nil
	})
}

// eachRow calls fn once per bank row of channel ch's weight layout, in
// command order: the owning unit's even bank, the row, the block stored
// there and the passes [lo, hi) the row holds, from column 0 on.
func (p *gemvPlan) eachRow(rt *runtime.Runtime, ch int, fn func(bank int, row uint32, b, lo, hi int) error) error {
	banksPerUnit := rt.Cfg.BanksPerUnit()
	for u := 0; u < p.U; u++ {
		for m := 0; m < p.macros; m++ {
			b := p.block(m, u, ch)
			if b < 0 {
				continue
			}
			for lo := 0; lo < p.passes; lo += p.passesPerRow {
				row := p.passRow(m, lo)
				if err := fn(u*banksPerUnit, row, b, lo, min(lo+p.passesPerRow, p.passes)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// rowPayload serialises passes [lo, hi) of block b into dst: per input k,
// the 16 lane weights W[b*16+lane][k], zero beyond M and K.
func (p *gemvPlan) rowPayload(W fp16.Vector, b, lo, hi int, dst []byte) {
	var vec [fp16.Lanes]fp16.F16
	for k := lo * p.G; k < hi*p.G; k++ {
		for lane := range vec {
			var w fp16.F16
			if k < p.K {
				if o := b*p.lanes + lane; o < p.M {
					w = W[o*p.K+k]
				}
			}
			vec[lane] = w
		}
		fp16.Vector(vec[:]).PutBytes(dst)
		dst = dst[2*p.lanes:]
	}
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

	// Build the splat payloads once, in channel 0's payload buffer: every
	// channel sends the same x and only reads them.
	var xdata [][]byte
	if functional {
		xdata = splats(rt.Payloads(0, plan.Kp), x)
	}

	var y fp16.Vector
	if functional {
		y = fp16.NewVector(M)
	}

	rt.BeginRegion()
	chErr := rt.ForEachChannel(func(ch int) error { return plan.runChannel(rt, ch, xdata, y) })
	if chErr != nil {
		return nil, KernelStats{}, chErr
	}
	ks := regionStats(rt)
	ks.Triggers = plan.triggers() * int64(rt.EffectiveChannels())
	return y, ks, nil
}

// runChannel is one pseudo channel's GEMV command stream, the body both
// PimGemv (every channel, the same x, disjoint output blocks of one y)
// and ResidentGemv.RunSlots (each occupied channel its own x and y) run:
// per macro, zero the accumulators, then per invocation of at most
// maxPassesPerInvocation passes program the CRF, enter PIM mode and walk
// the weight rows, one trigger packet (the WR input-splat and RD MAC
// windows) per row visit; after the last pass unload GRF_B through the SB
// register space and fold the G partial sums into y. xdata holds the
// splat payloads, G per pass; on a timing-only device xdata and y are nil
// and only the commands issue.
func (p *gemvPlan) runChannel(rt *runtime.Runtime, ch int, xdata [][]byte, y fp16.Vector) error {
	if err := rt.EnterAB(ch); err != nil {
		return err
	}
	perPass := len(p.row) / p.passesPerRow
	for m := 0; m < p.macros; m++ {
		if err := rt.ZeroGRF(ch); err != nil {
			return err
		}
		for lo := 0; lo < p.passes; lo += maxPassesPerInvocation {
			hi := min(lo+maxPassesPerInvocation, p.passes)
			if lo == 0 || hi-lo < maxPassesPerInvocation {
				words := p.crf[0]
				if lo > 0 {
					words = p.crf[1] // the shorter last invocation
				}
				if err := rt.ProgramCRFWords(ch, words); err != nil {
					return err
				}
			}
			if err := rt.SetPIMMode(ch, true); err != nil {
				return err
			}
			// One packet per row visit: the passes of the invocation that
			// the row holds.
			for ps := lo; ps < hi; {
				j := ps % p.passesPerRow
				n := min(p.passesPerRow-j, hi-ps)
				var data [][]byte
				if xdata != nil {
					data = xdata[(ps-j)*p.G:]
				}
				if err := rt.IssuePacket(ch, p.passRow(m, ps), p.row[j*perPass:(j+n)*perPass], data); err != nil {
					return err
				}
				ps += n
			}
			if err := rt.SetPIMMode(ch, false); err != nil {
				return err
			}
		}

		// Unload GRF_B through the SB register space, folding each unit's
		// bursts into y while they are the channel's read slots.
		if err := rt.ExitToSB(ch); err != nil {
			return err
		}
		var fold func(u int, regs [][]byte)
		if y != nil {
			fold = func(u int, regs [][]byte) {
				if b := p.block(m, u, ch); b >= 0 {
					foldGRFB(y, b*p.lanes, regs)
				}
			}
		}
		if err := rt.ReadGRFRowSB(ch, 1, p.G, fold); err != nil {
			return err
		}
		if m+1 < p.macros {
			if err := rt.EnterAB(ch); err != nil {
				return err
			}
		}
	}
	return nil
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
