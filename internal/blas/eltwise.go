package blas

import (
	"fmt"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/memctrl"
	"pimsim/internal/runtime"
)

// Elementwise kernels: ADD (residual connections), MUL, ReLU, and BN (the
// Fig. 14 batch-normalization microbenchmark, y = gamma*x + beta through
// the scalar register file).
//
// Binary layout (c = a op b): element blocks of 512 stripe across
// (channel, unit); within one bank-pair row, a occupies even-bank columns
// 0-31, b the same odd-bank columns, and c lands in odd-bank columns
// 32-63. The microkernel is the paper's ADD flow: G loads, G computes, G
// stores per AAM window, a fence after each batch — the GRF-limited
// pattern that caps ADD at ~1.6x (Section VII-B).
//
// Unary layout (y = f(x)): x fills even-bank columns 0-63, y the same
// odd-bank columns.

type eltOp int

const (
	opAdd eltOp = iota
	opMul
	opReLU
	opBN
)

func (o eltOp) binary() bool { return o == opAdd || o == opMul }

func (o eltOp) String() string {
	return [...]string{"ADD", "MUL", "RELU", "BN"}[o]
}

// eltProgram builds the microkernel for `visits` row visits. twoBank
// models the PIM-HBM-2BA variant (Fig. 14): the compute instruction reads
// both banks at once, so the separate load batch disappears — the stand-in
// instruction keeps the same command count and timing (the 2BA datapath is
// timing-only in this reproduction, like the paper's DRAMSim2 study).
func eltProgram(op eltOp, g, chunksPerVisit, visits int, twoBank bool) []isa.Instruction {
	var body []isa.Instruction
	switch op {
	case opAdd, opMul:
		alu := isa.ADD
		if op == opMul {
			alu = isa.MUL
		}
		body = []isa.Instruction{
			{Op: isa.MOV, Dst: isa.GRFA, Src0: isa.EvenBank, AAM: true},
			isa.Jump(g-1, 1),
			{Op: alu, Dst: isa.GRFA, Src0: isa.GRFA, Src1: isa.OddBank, AAM: true},
			isa.Jump(g-1, 1),
			{Op: isa.MOV, Dst: isa.OddBank, Src0: isa.GRFA, AAM: true},
			isa.Jump(g-1, 1),
		}
		if twoBank {
			body = body[2:] // the dual-bank ALU op subsumes the load
		}
	case opReLU:
		body = []isa.Instruction{
			{Op: isa.MOV, Dst: isa.GRFA, Src0: isa.EvenBank, AAM: true, ReLU: true},
			isa.Jump(g-1, 1),
			{Op: isa.MOV, Dst: isa.OddBank, Src0: isa.GRFA, AAM: true},
			isa.Jump(g-1, 1),
		}
	case opBN:
		body = []isa.Instruction{
			{Op: isa.MAD, Dst: isa.GRFA, Src0: isa.EvenBank, Src1: isa.SRFM, AAM: true},
			isa.Jump(g-1, 1),
			{Op: isa.MOV, Dst: isa.OddBank, Src0: isa.GRFA, AAM: true},
			isa.Jump(g-1, 1),
		}
	}
	prog := append([]isa.Instruction{}, body...)
	prog = append(prog,
		isa.Jump(chunksPerVisit-1, len(body)),
		isa.Jump(visits-1, len(body)+1),
		isa.Exit(),
	)
	return prog
}

type eltPlan struct {
	op             eltOp
	N              int
	C, U, G, lanes int
	inCols         int  // input columns per row visit
	sameBank       bool // one bank per unit: operands split by column instead
	perVisit       int  // elements per (channel, unit) row visit
	visits         int
	chunksPerVisit int
	baseRow        uint32

	// visit is the trigger packet of one row visit: per chunk of G
	// columns, the fenced windows of the microkernel's batches (load,
	// compute, store; one fewer when the compute reads its operand
	// itself). Every visit issues it whole.
	visit []memctrl.Entry

	crf invocations // the encoded microkernel, one pass a row visit
}

func planElt(rt *runtime.Runtime, op eltOp, n int) (*eltPlan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("blas: %s size %d", op, n)
	}
	p := &eltPlan{
		op: op, N: n,
		C: rt.NumChannels(), U: rt.Cfg.PIMUnits,
		G: rt.Cfg.GRFDepth(), lanes: fp16.Lanes,
	}
	p.sameBank = rt.Cfg.BanksPerUnit() == 1
	cols := rt.Cfg.ColumnsPerRow()
	switch {
	case op.binary() && p.sameBank:
		p.inCols = cols / 4 // a, b and c each take a column stripe
	case op.binary():
		p.inCols = cols / 2 // a even bank, b odd bank, c shares the odd row
	case p.sameBank:
		p.inCols = cols / 2 // x and y split one bank's row
	default:
		p.inCols = cols
	}
	p.perVisit = p.inCols * p.lanes
	p.chunksPerVisit = p.inCols / p.G
	p.visits = ceilDiv(n, p.perVisit*p.C*p.U)
	selB, offB := p.srcB()
	selD, offD := p.dst()
	p.visit = make([]memctrl.Entry, 0, 3*p.chunksPerVisit)
	for c := 0; c < p.chunksPerVisit; c++ {
		// Load a (unary: load and compute), compute with b, store.
		load := memctrl.Entry{Kind: hbm.CmdRD, Col: uint32(c * p.G), N: p.G, Fence: true}
		compute := memctrl.Entry{Kind: hbm.CmdRD, Bank: selB, Col: offB + load.Col, N: p.G, Fence: true}
		store := memctrl.Entry{Kind: hbm.CmdWR, Bank: selD, Col: offD + load.Col, N: p.G, Fence: true}
		switch {
		case !op.binary():
			p.visit = append(p.visit, load, store)
		case rt.Cfg.TriggerBanks() == 2: // the compute reads both banks
			p.visit = append(p.visit, compute, store)
		default:
			p.visit = append(p.visit, load, compute, store)
		}
	}
	twoBank := rt.Cfg.TriggerBanks() == 2 && op.binary()
	var err error
	if p.crf, err = encodeInvocations(p.visits, func(k int) []isa.Instruction {
		return eltProgram(op, p.G, p.chunksPerVisit, k, twoBank)
	}); err != nil {
		return nil, err
	}
	base, err := rt.Drv.AllocPIMRows(p.visits)
	if err != nil {
		return nil, err
	}
	p.baseRow = base
	return p, nil
}

// operand placement relative to the layout: bank index within the unit's
// bank group and the absolute column offset.
func (p *eltPlan) srcB() (bankOff int, colOff uint32) {
	if p.sameBank {
		return 0, uint32(p.inCols)
	}
	return 1, 0
}

func (p *eltPlan) dst() (bankOff int, colOff uint32) {
	switch {
	case p.op.binary() && p.sameBank:
		return 0, uint32(2 * p.inCols)
	case p.op.binary():
		return 1, uint32(p.inCols)
	case p.sameBank:
		return 0, uint32(p.inCols)
	default:
		return 1, 0
	}
}

// locate maps an element index to its (channel, unit, visit, col, lane).
func (p *eltPlan) locate(idx int) (ch, u, visit int, col uint32, lane int) {
	blk := idx / p.perVisit
	within := idx % p.perVisit
	ch = blk % p.C
	u = (blk / p.C) % p.U
	visit = blk / (p.C * p.U)
	col = uint32(within / p.lanes)
	lane = within % p.lanes
	return
}

// blockOf is locate's inverse for whole blocks: the index of the block of
// perVisit consecutive elements that row visit `visit` of (ch, u) holds.
func (p *eltPlan) blockOf(ch, u, visit int) int { return (visit*p.U+u)*p.C + ch }

// layout writes the operand vectors into the banks: one full-row SB write
// per (channel, bank, visit) that holds data, in ascending order. The
// order is part of the kernels' timing: each write leaves residual state
// in the bank timers, so reordering them moves the cycle counts of
// everything that follows.
func (p *eltPlan) layout(rt *runtime.Runtime, a, b fp16.Vector) error {
	banksPerUnit := rt.Cfg.BanksPerUnit()
	rowWidth := rt.Cfg.ColumnsPerRow()
	blockBytes := 2 * p.lanes
	// One row buffer serves every write: WriteBankSB copies into bank
	// storage before it returns.
	row := make([]byte, rowWidth*blockBytes)
	// a goes to each unit's first bank (sel 0). b goes to its last (sel 1),
	// or, with one bank per unit, beside a in the same row.
	selB, offB := p.srcB()
	for ch := 0; ch < p.C; ch++ {
		for u := 0; u < p.U; u++ {
			for sel := 0; sel < 2; sel++ {
				hasA, hasB := sel == 0, b != nil && sel == selB
				if !hasA && !hasB {
					continue
				}
				bank := u*banksPerUnit + sel*(banksPerUnit-1)
				for visit := 0; visit < p.visits; visit++ {
					start := p.blockOf(ch, u, visit) * p.perVisit
					if start >= p.N {
						break // later visits hold later blocks
					}
					end := min(start+p.perVisit, p.N)
					// A block's elements are consecutive lanes of consecutive
					// columns: one contiguous run of bytes.
					clear(row)
					if hasA {
						a[start:end].PutBytes(row)
					}
					if hasB {
						b[start:end].PutBytes(row[int(offB)*blockBytes:])
					}
					if err := rt.WriteBankSB(ch, bank, p.baseRow+uint32(visit), 0, row); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// run drives the microkernel across every channel and returns the result
// (functional mode) and kernel stats.
func runElt(rt *runtime.Runtime, op eltOp, n int, a, b fp16.Vector, gamma, beta fp16.F16) (fp16.Vector, KernelStats, error) {
	functional := rt.Cfg.Functional
	twoBank := rt.Cfg.TriggerBanks() == 2 && op.binary()
	if twoBank && functional {
		return nil, KernelStats{}, fmt.Errorf("blas: the 2BA variant is timing-only (set Config.Functional=false)")
	}
	if functional {
		if err := checkLen("a", a, n); err != nil {
			return nil, KernelStats{}, err
		}
		if op.binary() {
			if err := checkLen("b", b, n); err != nil {
				return nil, KernelStats{}, err
			}
			if b == nil {
				return nil, KernelStats{}, fmt.Errorf("blas: %s requires two operands", op)
			}
		}
		if a == nil {
			return nil, KernelStats{}, fmt.Errorf("blas: functional device requires operands")
		}
	}
	plan, err := planElt(rt, op, n)
	if err != nil {
		return nil, KernelStats{}, err
	}
	defer func() { _ = rt.Drv.FreePIMRows(plan.baseRow) }()
	if functional {
		if err := plan.layout(rt, a, b); err != nil {
			return nil, KernelStats{}, err
		}
	}

	rt.BeginRegion()
	chErr := rt.ForEachChannel(func(ch int) error {
		if err := rt.EnterAB(ch); err != nil {
			return err
		}
		if op == opBN {
			m := make([]fp16.F16, isa.SRFEntries)
			ad := make([]fp16.F16, isa.SRFEntries)
			for i := range m {
				m[i], ad[i] = gamma, beta
			}
			if err := rt.ProgramSRF(ch, m, ad); err != nil {
				return err
			}
		}
		for lo := 0; lo < plan.visits; lo += maxPassesPerInvocation {
			hi := min(lo+maxPassesPerInvocation, plan.visits)
			if err := plan.crf.program(rt, ch, lo, hi); err != nil {
				return err
			}
			if err := rt.SetPIMMode(ch, true); err != nil {
				return err
			}
			for v := lo; v < hi; v++ {
				if err := rt.IssuePacket(ch, plan.baseRow+uint32(v), plan.visit, nil); err != nil {
					return err
				}
			}
			if err := rt.SetPIMMode(ch, false); err != nil {
				return err
			}
		}
		return rt.ExitToSB(ch)
	})
	if chErr != nil {
		return nil, KernelStats{}, chErr
	}
	ks := regionStats(rt)
	ks.Triggers = int64(plan.visits*len(plan.visit)*plan.G) * int64(rt.EffectiveChannels())

	if !functional {
		return nil, ks, nil
	}

	// Read the results back from the destination stripe.
	out := fp16.NewVector(n)
	banksPerUnit := rt.Cfg.BanksPerUnit()
	selD, colOff := plan.dst()
	size := rt.Cfg.AccessBytes
	type rowKey struct{ ch, u, visit int }
	cache := make(map[rowKey][]byte)
	for idx := 0; idx < n; idx++ {
		ch, u, visit, col, lane := plan.locate(idx)
		key := rowKey{ch, u, visit}
		blocks, ok := cache[key]
		if !ok {
			dstBank := u*banksPerUnit + selD*(banksPerUnit-1)
			blocks, err = rt.ReadBankSB(ch, dstBank, plan.baseRow+uint32(visit), colOff, plan.inCols)
			if err != nil {
				return nil, ks, err
			}
			cache[key] = blocks
		}
		v := fp16.VectorFromBytes(blocks[int(col)*size : (int(col)+1)*size])
		out[idx] = v[lane]
	}
	return out, ks, nil
}

// PimAdd computes c[i] = a[i] + b[i] on the PIM units.
func PimAdd(rt *runtime.Runtime, a, b fp16.Vector, n int) (fp16.Vector, KernelStats, error) {
	return runElt(rt, opAdd, n, a, b, fp16.Zero, fp16.Zero)
}

// PimMul computes c[i] = a[i] * b[i] on the PIM units.
func PimMul(rt *runtime.Runtime, a, b fp16.Vector, n int) (fp16.Vector, KernelStats, error) {
	return runElt(rt, opMul, n, a, b, fp16.Zero, fp16.Zero)
}

// PimReLU computes y[i] = max(x[i], 0) on the PIM units.
func PimReLU(rt *runtime.Runtime, x fp16.Vector, n int) (fp16.Vector, KernelStats, error) {
	return runElt(rt, opReLU, n, x, nil, fp16.Zero, fp16.Zero)
}

// PimBN computes y[i] = gamma*x[i] + beta on the PIM units (the folded
// inference form of batch normalization).
func PimBN(rt *runtime.Runtime, x fp16.Vector, n int, gamma, beta fp16.F16) (fp16.Vector, KernelStats, error) {
	return runElt(rt, opBN, n, x, nil, gamma, beta)
}

// Host references with the PIM datapath's exact rounding.

// RefAdd returns elementwise a+b in FP16.
func RefAdd(a, b fp16.Vector) fp16.Vector {
	out := fp16.NewVector(len(a))
	return fp16.AddVec(out, a, b)
}

// RefMul returns elementwise a*b in FP16.
func RefMul(a, b fp16.Vector) fp16.Vector {
	out := fp16.NewVector(len(a))
	return fp16.MulVec(out, a, b)
}

// RefReLU returns elementwise max(x,0).
func RefReLU(x fp16.Vector) fp16.Vector {
	out := fp16.NewVector(len(x))
	return fp16.ReLUVec(out, x)
}

// RefBN returns elementwise gamma*x+beta with MAD rounding.
func RefBN(x fp16.Vector, gamma, beta fp16.F16) fp16.Vector {
	out := fp16.NewVector(len(x))
	for i, v := range x {
		out[i] = fp16.MAD(v, gamma, beta)
	}
	return out
}
