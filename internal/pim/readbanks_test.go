package pim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
)

// flipReadout is a fault injector with one weak bank: every readout of it
// comes back with an exponent bit of every lane flipped.
type flipReadout struct{ bank int }

func (f flipReadout) CorruptReadout(_, bank int, _, _ uint32, _ int64, data []byte) {
	if bank == f.bank {
		for l := 1; l < len(data); l += 2 {
			data[l] ^= 0x08
		}
	}
}

// gemvRig is TestGEMVMicrokernel's kernel with its weights resident: W in
// the even banks once, then any number of runs, each zeroing the
// accumulators, streaming x in over a run of WR triggers, accumulating
// over a run of one RD trigger per input and reading y back through the
// register space.
type gemvRig struct {
	d   *driver
	tap *tapExec
	cfg hbm.Config
	w   []fp16.Vector // 128 outputs x 8 inputs
}

const (
	rigInputs = 8
	rigRow    = 100
)

func newGEMVRig(t *testing.T, cfg hbm.Config, seed int64) *gemvRig {
	t.Helper()
	d, exec := newDriver(t, cfg)
	g := &gemvRig{d: d, tap: &tapExec{PIMExecutor: exec}, cfg: cfg}
	d.p.AttachPIM(g.tap)
	rng := rand.New(rand.NewSource(seed))
	g.w = make([]fp16.Vector, cfg.PIMUnits*fp16.Lanes)
	for o := range g.w {
		g.w[o] = make(fp16.Vector, rigInputs)
		for k := range g.w[o] {
			g.w[o][k] = fp16.FromFloat32(float32(rng.NormFloat64()))
		}
	}
	// Unit u's even bank, column k, lane l holds W[u*16+l][k].
	for u := 0; u < cfg.PIMUnits; u++ {
		for k := 0; k < rigInputs; k++ {
			col := make(fp16.Vector, fp16.Lanes)
			for l := range col {
				col[l] = g.w[u*fp16.Lanes+l][k]
			}
			d.writeBankSB(2*u, rigRow, uint32(k), col.Bytes())
		}
	}
	return g
}

func (g *gemvRig) run(x fp16.Vector) fp16.Vector {
	d := g.d
	d.enterAB()
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: g.cfg.GRFRow()})
	for r := 0; r < rigInputs; r++ { // GRF_B = 0
		d.issue(hbm.Command{Kind: hbm.CmdWR, Col: uint32(g.cfg.GRFDepth() + r), Data: make([]byte, 32)})
	}
	d.issue(hbm.Command{Kind: hbm.CmdPREA})
	d.programCRF(mustAssemble(d.t, `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		EXIT
	`))
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: rigRow})
	xs := make([][]byte, rigInputs)
	for k := range xs {
		xs[k] = splat(x[k])
	}
	d.issueRun(hbm.CmdWR, 0, rigInputs, xs)
	d.issueRun(hbm.CmdRD, 0, rigInputs, nil)
	d.issue(hbm.Command{Kind: hbm.CmdPREA})
	d.setPIMOp(false)
	d.exitAB()
	y := make(fp16.Vector, len(g.w))
	for u := 0; u < g.cfg.PIMUnits; u++ {
		acc := fp16.NewVector(fp16.Lanes)
		bg, b := g.cfg.BankOf(2 * u)
		d.issue(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: g.cfg.GRFRow()})
		for r := 0; r < rigInputs; r++ {
			res := d.issue(hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: uint32(g.cfg.GRFDepth() + r)})
			fp16.AddVec(acc, acc, fp16.VectorFromBytes(res.Data))
		}
		d.issue(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
		copy(y[u*fp16.Lanes:], acc)
	}
	return y
}

// want is y in the kernel's rounding order: per-input products, summed in
// input order.
func (g *gemvRig) want(x fp16.Vector) fp16.Vector {
	y := make(fp16.Vector, len(g.w))
	for o := range y {
		for k := 0; k < rigInputs; k++ {
			y[o] = fp16.Add(y[o], fp16.MAC(fp16.Zero, x[k], g.w[o][k]))
		}
	}
	return y
}

// TestReadBanksHooks runs a resident GEMV through the batched bank read on
// a plain device (one ReadBanks call for the RD run's AAM loop, every view
// a window onto the row), on an ECC device with one planted single-bit error under
// unit 5's weights (bit-exact, one correction, the cell scrubbed), and
// with a fault injector that corrupts every readout of unit 3's bank
// (exactly unit 3's outputs wrong; detached, the next run is bit-exact,
// because the copy took the corruption and not the cells).
func TestReadBanksHooks(t *testing.T) {
	x := fp16.FromFloat32s([]float32{0.5, -1.25, 2, 0.75, -0.5, 1.5, -2.25, 1})
	exact := func(t *testing.T, g *gemvRig) {
		t.Helper()
		got, want := g.run(x), g.want(x)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("y[%d] = 0x%04x, want 0x%04x", o, uint16(got[o]), uint16(want[o]))
			}
		}
	}

	t.Run("plain", func(t *testing.T) {
		g := newGEMVRig(t, hbm.PIMHBMConfig(1000), 42)
		exact(t, g)
		if g.tap.reads != 1 || g.tap.copies != 0 {
			t.Errorf("%d ReadBanks calls for a run of %d RD triggers, %d views copied; want one call and no copy",
				g.tap.reads, rigInputs, g.tap.copies)
		}
	})

	t.Run("ecc", func(t *testing.T) {
		cfg := hbm.PIMHBMConfig(1000)
		cfg.ECC = true
		g := newGEMVRig(t, cfg, 43)
		bg, b := cfg.BankOf(2 * 5)
		if err := g.d.p.InjectBitError(bg, b, rigRow, 3, 77); err != nil {
			t.Fatal(err)
		}
		exact(t, g)
		if got := g.d.p.Stats().ECCCorrected; got != 1 {
			t.Errorf("ECCCorrected = %d, want 1", got)
		}
		if g.tap.copies != rigInputs*cfg.PIMUnits {
			t.Errorf("%d views copied, want all %d under ECC", g.tap.copies, rigInputs*cfg.PIMUnits)
		}
		exact(t, g)
		if got := g.d.p.Stats().ECCCorrected; got != 1 {
			t.Errorf("ECCCorrected = %d after a second run, want still 1: the cell was not scrubbed", got)
		}
	})

	t.Run("fault", func(t *testing.T) {
		g := newGEMVRig(t, hbm.PIMHBMConfig(1000), 44)
		g.d.p.AttachFault(flipReadout{bank: 2 * 3})
		got, want := g.run(x), g.want(x)
		for o := range want {
			if bad := got[o] != want[o]; bad != (o/fp16.Lanes == 3) {
				t.Errorf("y[%d] = 0x%04x, want 0x%04x: wrong outputs must be exactly unit 3's", o, uint16(got[o]), uint16(want[o]))
			}
		}
		g.d.p.AttachFault(nil)
		exact(t, g)
	})
}

// BenchmarkTrigger is one functional trigger on one pseudo channel: the
// sequencer step and the data step over all 8 units. plain and ecc are a
// MAC with its bank operand as SRC1: the batched read of the units' even
// banks (on plain the views window the open row, with ECC each burst is
// decoded into executor scratch) and 8 16-lane MACs on them; mad is a MAD
// with its bank operand as SRC0 and a scalar multiplier; mov is a WR
// capture, the payload copied into every unit's GRF_A (how a kernel's
// input vector is loaded); add-regs is a register-only ADD, the units'
// registers handed to the burst form as they lie; mov-relu-to-bank is a
// WR-triggered MOV of each unit's GRF_A through ReLU into its bank.
// mac-run8 and mov-run8 are the AAM forms of mac and mov as a kernel
// issues them, one 8-trigger run (an AAM window) through IssueRun, which
// the executor runs in closed form; they report per trigger too. The
// operands are seeded values in [-1, 1) over 8 columns, so the
// accumulators stay finite; the program's loop is re-armed every 128
// triggers. zerogrf and unload are the register-space runs around a GEMV
// tile, reported per column command: a broadcast run of 16 zero writes
// into every unit's GRF (runtime.ZeroGRF) and a single-bank run of 8 reads
// of one unit's GRF_B (one unit's share of runtime.ReadGRFRowSB). `make
// bench` records the rows in BENCH_gemv.json.
func BenchmarkTrigger(b *testing.B) {
	for _, k := range []struct {
		name, src    string
		ecc, wr, run bool
	}{
		{"plain", "MAC GRF_B[0], GRF_A[0], EVEN_BANK", false, false, false},
		{"ecc", "MAC GRF_B[0], GRF_A[0], EVEN_BANK", true, false, false},
		{"mad", "MAD GRF_B[0], EVEN_BANK, SRF_M[0]", false, false, false},
		{"mov", "MOV GRF_A[0], EVEN_BANK", false, true, false},
		{"add-regs", "ADD GRF_B[0], GRF_A[0], GRF_B[0]", false, false, false},
		{"mov-relu-to-bank", "MOV(RELU) EVEN_BANK, GRF_A[0]", false, true, false},
		{"mac-run8", "MAC(AAM) GRF_B, GRF_A, EVEN_BANK", false, false, true},
		{"mov-run8", "MOV(AAM) GRF_A, EVEN_BANK", false, true, true},
	} {
		b.Run(k.name, func(b *testing.B) {
			cfg := hbm.PIMHBMConfig(1000)
			cfg.ECC = k.ecc
			d, exec := newDriver(b, cfg)
			rng := rand.New(rand.NewSource(5))
			operand := func() []byte {
				v := make(fp16.Vector, fp16.Lanes)
				for l := range v {
					v[l] = fp16.FromFloat32(2*rng.Float32() - 1)
				}
				return v.Bytes()
			}
			const cols = 8
			for u := 0; u < cfg.PIMUnits; u++ {
				for col := uint32(0); col < cols; col++ {
					d.writeBankSB(2*u, 7, col, operand())
				}
			}
			d.enterAB()
			d.issue(hbm.Command{Kind: hbm.CmdACT, Row: cfg.GRFRow()})
			d.issue(hbm.Command{Kind: hbm.CmdWR, Col: 0, Data: operand()}) // GRF_A[0]
			d.issue(hbm.Command{Kind: hbm.CmdPREA})
			d.issue(hbm.Command{Kind: hbm.CmdACT, Row: cfg.SRFRow()})
			d.issue(hbm.Command{Kind: hbm.CmdWR, Col: 0, Data: operand()}) // SRF_M, SRF_A
			d.issue(hbm.Command{Kind: hbm.CmdPREA})
			d.programCRF(mustAssemble(b, k.src+"\nJUMP -1, 127\nEXIT"))
			d.setPIMOp(true)
			d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 7})
			var trig [cols]hbm.Command
			var data [][]byte
			for col := range trig {
				trig[col] = hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: uint32(col)}
				if k.wr {
					trig[col].Kind, trig[col].Data = hbm.CmdWR, operand()
					data = append(data, trig[col].Data)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			if k.run {
				var run hbm.Run
				for i := 0; i < b.N; i += cols {
					if i%128 == 0 {
						exec.ResetPPC()
					}
					n := min(cols, b.N-i)
					if err := d.p.IssueRun(&trig[0], n, data, d.now, math.MaxInt64, &run); err != nil {
						b.Fatal(err)
					}
					d.now = run.Cycle(n-1) + 1
				}
				return
			}
			for i := 0; i < b.N; i++ {
				if i%128 == 0 {
					exec.ResetPPC()
				}
				d.issue(trig[i%cols])
			}
		})
	}
	for _, k := range []struct {
		name string
		kind hbm.CmdKind
		n    int
	}{{"zerogrf", hbm.CmdWR, 16}, {"unload", hbm.CmdRD, 8}} {
		b.Run(k.name, func(b *testing.B) {
			cfg := hbm.PIMHBMConfig(1000)
			d, _ := newDriver(b, cfg)
			cmd := hbm.Command{Kind: k.kind, Col: uint32(cfg.GRFDepth())}
			var data [][]byte
			if k.kind == hbm.CmdWR {
				d.enterAB() // broadcast to every unit
				cmd.Col = 0
				for range k.n {
					data = append(data, make([]byte, 32))
				}
			}
			d.issue(hbm.Command{Kind: hbm.CmdACT, Row: cfg.GRFRow()})
			var run hbm.Run
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k.n {
				n := min(k.n, b.N-i)
				var d2 [][]byte
				if data != nil {
					d2 = data[:n]
				}
				if err := d.p.IssueRun(&cmd, n, d2, d.now, math.MaxInt64, &run); err != nil || run.N != n {
					b.Fatal(run.N, err)
				}
				d.now = run.Cycle(n-1) + 1
			}
		})
	}
}

// TestFailedReadStopsAtItsUnit: once a trigger has left every unit a view,
// a double-bit error under unit 5's operand fails the next trigger as unit
// 5's, and unit 5 does not execute on what it was left: units 0-4 take
// both MACs, units 5-7 only the first.
func TestFailedReadStopsAtItsUnit(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	cfg.ECC = true
	d, exec := newDriver(t, cfg)
	for u := 0; u < cfg.PIMUnits; u++ {
		for col := uint32(0); col < 2; col++ {
			d.writeBankSB(2*u, 9, col, splat(0x3c00))
		}
	}
	bg, b := cfg.BankOf(2 * 5)
	for _, bit := range []int{8, 9} {
		if err := d.p.InjectBitError(bg, b, 9, 1, bit); err != nil {
			t.Fatal(err)
		}
	}
	d.enterAB()
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: cfg.GRFRow()})
	d.issue(hbm.Command{Kind: hbm.CmdWR, Col: 0, Data: splat(0x4000)}) // GRF_A[0] = 2
	d.issue(hbm.Command{Kind: hbm.CmdPREA})
	d.programCRF(mustAssemble(t, "MAC GRF_B[0], GRF_A[0], EVEN_BANK\nMAC GRF_B[0], GRF_A[0], EVEN_BANK\nEXIT"))
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 9})
	d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 0})
	if err := d.issueErr(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 1}); err == nil || !strings.HasPrefix(err.Error(), "pim: unit 5: ") {
		t.Fatalf("error %v, want unit 5's", err)
	}
	for u := 0; u < cfg.PIMUnits; u++ {
		want := map[bool]fp16.F16{true: 0x4400, false: 0x4000}[u < 5]
		if got := exec.Unit(u).GRF(1, 0); got[0] != want || got[15] != want {
			t.Errorf("unit %d GRF_B[0] lanes 0, 15 = %v %v, want %v", u, got[0], got[15], want)
		}
	}
}
