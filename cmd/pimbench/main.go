// pimbench regenerates every table and figure of the paper's evaluation:
//
//	pimbench -exp table1      MAC-unit area/energy model vs Table I
//	pimbench -exp table2      ISA operand combinations vs Table II
//	pimbench -exp table3      instruction encodings (Table III)
//	pimbench -exp table4      PIM execution unit spec (Table IV)
//	pimbench -exp table5      PIM-HBM device spec (Table V)
//	pimbench -exp table6      microbenchmark set (Table VI)
//	pimbench -exp fig10       microbenchmarks + applications, batch 1/2/4
//	pimbench -exp fig11       back-to-back RD power breakdown
//	pimbench -exp fig12       three-system power & energy
//	pimbench -exp fig13       DS2 system power over time
//	pimbench -exp fig14       design space exploration
//	pimbench -exp fences      in-order controller study (Section VII-B)
//	pimbench -exp encoder     GNMT encoder-only study (Section VII-B)
//	pimbench -exp ablation    design-choice sweeps (fences, refresh, mapping...)
//	pimbench -exp drams       the same stack on GDDR6 and LPDDR5 (Section III)
//	pimbench -exp collab      collaborative host+PIM GEMV (Section VIII)
//	pimbench -exp corners     1.0 vs 1.2 GHz operating points (Tables IV/V)
//	pimbench -exp metrics     per-kernel runtime phase breakdown (metrics layer)
//	pimbench -exp all         everything above
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pimsim/internal/dse"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/macmodel"
	"pimsim/internal/models"
	"pimsim/internal/pim"
	"pimsim/internal/prof"
	"pimsim/internal/runtime"
	"pimsim/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1..6, fig10..14, fences, encoder, all)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "pimbench:", err)
			os.Exit(1)
		}
	}()

	runners := []struct {
		name string
		fn   func() error
	}{
		{"table1", table1}, {"table2", table2}, {"table3", table3},
		{"table4", table4}, {"table5", table5}, {"table6", table6},
		{"fig10", fig10}, {"fig11", fig11}, {"fig12", fig12},
		{"fig13", fig13}, {"fig14", fig14},
		{"fences", fences}, {"encoder", encoder},
		{"ablation", ablation}, {"drams", drams}, {"collab", collab},
		{"corners", corners}, {"metrics", metricsBreakdown},
	}
	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		fmt.Printf("==== %s ====\n", strings.ToUpper(r.name))
		if err := r.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "pimbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func table1() error {
	fmt.Println("MAC units in a 20nm DRAM process, normalized to INT16 w/ 48-bit Acc.")
	fmt.Printf("%-24s %12s %12s %12s %12s\n", "Number format", "area(model)", "area(paper)", "e/op(model)", "e/op(paper)")
	for _, row := range macmodel.TableI() {
		fmt.Printf("%-24s %12.2f %12.2f %12.2f %12.2f\n",
			row.Format.Name, row.Area, row.PaperArea, row.Energy, row.PaperEnergy)
	}
	return nil
}

func table2() error {
	counts := isa.ComboCounts()
	fmt.Printf("%-10s %s\n", "Op", "# of operand combinations")
	total := 0
	for _, op := range []isa.Opcode{isa.MUL, isa.ADD, isa.MAC, isa.MAD} {
		fmt.Printf("%-10s %d\n", op, counts[op])
		total += counts[op]
	}
	fmt.Printf("%-10s %d\n", "MOV(ReLU)", counts[isa.MOV])
	fmt.Printf("compute combinations: %d (paper: 114); data movement: %d (paper: 24)\n",
		total, counts[isa.MOV])
	return nil
}

func table3() error {
	fmt.Println("Representative encodings of the 32-bit instruction formats:")
	prog, err := isa.Assemble(`
		NOP 7
		JUMP -1, 7
		EXIT
		MOV(AAM_RELU) GRF_A, EVEN_BANK
		FILL SRF_M[2], ODD_BANK
		ADD GRF_A[1], EVEN_BANK, SRF_A[1]
		MUL GRF_B[0], GRF_A[0], SRF_M[3]
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		MAD GRF_A[2], ODD_BANK, SRF_M[2]
	`)
	if err != nil {
		return err
	}
	for _, in := range prog {
		w, err := isa.Encode(in)
		if err != nil {
			return err
		}
		fmt.Printf("  %#08x  %s\n", w, in)
	}
	return nil
}

func table4() error {
	cfg := hbm.PIMHBMConfig(sim.MemClockMHz)
	pimClockMHz := sim.MemClockMHz / 4 // PIM units run at tCK/4
	gflops := float64(pimClockMHz) / 1000 * 16 * 2
	fmt.Printf("%-28s %v / %v\n", "# of MUL/ADD FPUs", 16, 16)
	fmt.Printf("%-28s %d bits (16 x 16 lanes)\n", "Datapath width", 256)
	fmt.Printf("%-28s %d MHz (tCK/4)\n", "Operating frequency", pimClockMHz)
	fmt.Printf("%-28s %.1f GFLOPS (paper: 9.6 at 300 MHz)\n", "Throughput per unit", gflops)
	fmt.Printf("%-28s 32b x %d (CRF)\n", "Instruction registers", isa.CRFEntries)
	fmt.Printf("%-28s 256b x %d (GRF), 16b x %d (SRF)\n", "Vector/scalar registers", 2*cfg.GRFDepth(), 2*isa.SRFEntries)
	fmt.Printf("%-28s %d\n", "Pipeline stages", pim.PipelineStages)
	return nil
}

func table5() error {
	cfg := hbm.PIMHBMConfig(sim.MemClockMHz)
	fmt.Printf("%-30s %.1f GHz\n", "Ext. clocking frequency", float64(sim.MemClockMHz)/1000)
	fmt.Printf("%-30s same as HBM2 (drop-in)\n", "Timing parameters")
	fmt.Printf("%-30s %d\n", "# of pCHs", cfg.PseudoChannels)
	fmt.Printf("%-30s %d\n", "# of banks per pCH", cfg.Banks())
	fmt.Printf("%-30s %d\n", "# of PIM exe. units per pCH", cfg.PIMUnits)
	fmt.Printf("%-30s %.3f TB/s (paper: 1-1.229)\n", "On-chip compute bandwidth", cfg.OnChipGBps()/1000)
	fmt.Printf("%-30s %.1f GB/s (paper: 256-307.2)\n", "Off-chip I/O bandwidth", cfg.OffChipGBps())
	fmt.Printf("%-30s %d GiB PIM dies + 4 GiB HBM dies = 6 GiB\n", "Capacity", cfg.DeviceBytes()>>30)
	return nil
}

func table6() error {
	fmt.Printf("%-8s %-12s   %-8s %-10s\n", "Name", "GEMV dim", "Name", "ADD dim")
	specs := sim.TableVI()
	for i := 0; i < 4; i++ {
		g, a := specs[i], specs[i+4]
		fmt.Printf("%-8s %dk x %dk%*s %-8s %dM\n", g.Name, g.M/1024, g.K/1024,
			7-len(fmt.Sprintf("%dk x %dk", g.M/1024, g.K/1024))+7, "", a.Name, a.N>>20)
	}
	return nil
}

func pimSystems() (*sim.System, *sim.System, error) {
	p, err := sim.NewPIMSystem(hbm.VariantBase)
	if err != nil {
		return nil, nil, err
	}
	return p, sim.NewHostSystem(1), nil
}

func fig10() error {
	pimSys, hostSys, err := pimSystems()
	if err != nil {
		return err
	}
	fmt.Println("Relative performance (PIM-HBM over HBM) and host LLC miss rates:")
	fmt.Printf("%-10s %10s %10s %10s   %8s %8s %8s\n",
		"workload", "B1", "B2", "B4", "miss B1", "miss B2", "miss B4")
	type row struct {
		speed [3]float64
		miss  [3]float64
	}
	rows := map[string]*row{}
	order := []string{}
	for bi, b := range []int{1, 2, 4} {
		rs, err := sim.RunMicroSuite(pimSys, hostSys, b)
		if err != nil {
			return err
		}
		for _, r := range rs {
			e := rows[r.Spec.Name]
			if e == nil {
				e = &row{}
				rows[r.Spec.Name] = e
				order = append(order, r.Spec.Name)
			}
			e.speed[bi] = r.Speedup
			e.miss[bi] = r.HostLLCMiss
		}
	}
	for bi, b := range []int{1, 2, 4} {
		for _, m := range models.All() {
			r, err := sim.EvalApp(pimSys, hostSys, m, b)
			if err != nil {
				return err
			}
			e := rows[m.Name]
			if e == nil {
				e = &row{miss: [3]float64{-1, -1, -1}}
				rows[m.Name] = e
				order = append(order, m.Name)
			}
			e.speed[bi] = r.Speedup
		}
		_ = b
	}
	for _, name := range order {
		e := rows[name]
		fmt.Printf("%-10s %10.2f %10.2f %10.2f   ", name, e.speed[0], e.speed[1], e.speed[2])
		if e.miss[0] >= 0 {
			fmt.Printf("%8.2f %8.2f %8.2f\n", e.miss[0], e.miss[1], e.miss[2])
		} else {
			fmt.Printf("%8s %8s %8s\n", "-", "-", "-") // multi-kernel apps: no single rate (paper note)
		}
	}
	fmt.Println("\npaper anchors: GEMV up to 11.2x at B1, ADD ~1.6x, DS2 3.5x, GNMT 1.5x,")
	fmt.Println("AlexNet 1.4x, ResNet 1.0x; HBM wins GEMV at B4; miss 70-80% at B4.")
	return nil
}

func fig11() error {
	r, err := sim.RunFig11()
	if err != nil {
		return err
	}
	fmt.Println("Back-to-back RD power per pseudo channel (watts):")
	fmt.Printf("%-16s %10s %10s\n", "component", "HBM", "PIM-HBM")
	rows := []struct {
		name string
		h, p float64
	}{
		{"cell", r.HBM.Cell, r.PIM.Cell},
		{"IOSA+decoders", r.HBM.IOSA, r.PIM.IOSA},
		{"global IO bus", r.HBM.GlobalBus, r.PIM.GlobalBus},
		{"buffer-die IO", r.HBM.BufferIO, r.PIM.BufferIO},
		{"IO PHY", r.HBM.IOPHY, r.PIM.IOPHY},
		{"PIM FPUs", r.HBM.PIMFPU, r.PIM.PIMFPU},
		{"background", r.HBM.Background, r.PIM.Background},
	}
	for _, row := range rows {
		fmt.Printf("%-16s %10.3f %10.3f\n", row.name, row.h, row.p)
	}
	fmt.Printf("%-16s %10.3f %10.3f\n", "total", r.HBM.Total(), r.PIM.Total())
	fmt.Printf("\nPIM/HBM power ratio      %.3f  (paper: 1.054)\n", r.PowerRatio)
	fmt.Printf("without buffer-die IO    %.3f  (paper: ~0.9)\n", r.PowerRatioNoBufIO)
	fmt.Printf("cell+IOSA power scaling  %.2fx (proportional to active banks)\n", r.CellIOSARatio)
	fmt.Printf("energy per bit gain      %.2fx (paper: ~3.5x)\n", r.EnergyPerBitRatio)
	return nil
}

func fig12() error {
	pimSys, hostSys, err := pimSystems()
	if err != nil {
		return err
	}
	rows, err := sim.RunFig12(pimSys, hostSys)
	if err != nil {
		return err
	}
	fmt.Println("Average power (W) and energy-efficiency gain over PROC-HBM:")
	fmt.Printf("%-10s %9s %9s %9s   %10s %10s %10s\n",
		"workload", "PIM W", "HBM W", "HBMx4 W", "PIM gain", "x4 gain", "PIM/x4")
	for _, r := range rows {
		fmt.Printf("%-10s %9.1f %9.1f %9.1f   %10.2f %10.2f %10.2f\n",
			r.Workload, r.PimW, r.HostW, r.X4W, r.PimEnergyGain, r.X4EnergyGain, r.PimOverX4)
	}
	fmt.Println("\npaper anchors: GEMV 8.25x, ADD 1.4x, DS2 3.2x, GNMT 1.38x, AlexNet 1.5x;")
	fmt.Println("PIM over HBMx4: DS2 2.8x, GNMT 1.1x, AlexNet 1.3x.")
	return nil
}

func fig13() error {
	pimSys, hostSys, err := pimSystems()
	if err != nil {
		return err
	}
	res, err := sim.EvalApp(pimSys, hostSys, models.DS2(), 1)
	if err != nil {
		return err
	}
	fmt.Println("DS2 average system power over time (coalesced segments):")
	for _, side := range []struct {
		name string
		segs []sim.PowerSegment
	}{
		{"PROC-HBM", sim.PowerTimeline(res, hostSys, false)},
		{"PIM-HBM", sim.PowerTimeline(res, pimSys, true)},
	} {
		fmt.Printf("  %s:\n", side.name)
		for _, s := range coalesce(side.segs) {
			tag := ""
			if s.OnPIM {
				tag = "  [PIM]"
			}
			fmt.Printf("    %8.2f - %8.2f ms  %6.1f W  %s%s\n",
				s.StartNs/1e6, s.EndNs/1e6, s.Watts, s.Layer, tag)
		}
	}
	fmt.Printf("\nend-to-end: PROC-HBM %.1f ms, PIM-HBM %.1f ms (%.2fx; paper 3.5x)\n",
		res.HostNs/1e6, res.PimNs/1e6, res.Speedup)
	return nil
}

// coalesce merges adjacent segments with near-identical power.
func coalesce(segs []sim.PowerSegment) []sim.PowerSegment {
	var out []sim.PowerSegment
	for _, s := range segs {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.OnPIM == s.OnPIM && abs(last.Watts-s.Watts) < 2 {
				last.EndNs = s.EndNs
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fig14() error {
	rs, err := dse.Run()
	if err != nil {
		return err
	}
	fmt.Println("Speedup over the HBM host per variant (batch 1):")
	fmt.Printf("%-8s", "bench")
	for _, r := range rs {
		fmt.Printf(" %12s", r.Variant)
	}
	fmt.Println()
	for _, spec := range dse.Benchmarks() {
		fmt.Printf("%-8s", spec.Name)
		for _, r := range rs {
			fmt.Printf(" %12.2f", r.Speedups[spec.Name])
		}
		fmt.Println()
	}
	fmt.Printf("%-8s", "geomean")
	for _, r := range rs {
		fmt.Printf(" %12.2f", r.Geomean)
	}
	fmt.Println()
	fmt.Printf("%-8s", "vs base")
	for _, r := range rs {
		fmt.Printf(" %11.0f%%", 100*(r.GeomeanOverBase-1))
	}
	fmt.Println()
	fmt.Println("\npaper anchors: 2x ~ +40%, 2BA ~ +20% (ADD-heavy), SRW ~ +10% (+25% on GEMV).")
	return nil
}

func fences() error {
	fmt.Println("In-order PIM controller study: gain from removing fences:")
	for _, b := range []int{1, 2, 4} {
		r, err := sim.RunFenceStudy(b)
		if err != nil {
			return err
		}
		fmt.Printf("  batch %d: geomean %.2fx (paper reads ~2.2/1.9/2.0)\n", b, r.Geomean)
	}
	return nil
}

func ablation() error {
	fmt.Println("Design-choice ablations (see internal/sim/ablation.go):")
	all, err := sim.RunAblations()
	if err != nil {
		return err
	}
	for _, name := range []string{"fence-cost", "refresh-rate", "address-mapping", "activate-ahead", "write-buffer"} {
		fmt.Printf("  %s:\n", name)
		for _, p := range all[name] {
			fmt.Printf("    %-26s %10.2f %s\n", p.Label, p.Value, p.Metric)
		}
	}
	return nil
}

func drams() error {
	fmt.Println("The same PIM stack on other standard DRAM families (Section III):")
	fmt.Printf("%-8s %10s %10s %12s %12s\n", "family", "units/ch", "channels", "on-chip GB/s", "off-chip GB/s")
	for _, tc := range []struct {
		name string
		cfg  hbm.Config
	}{
		{"HBM2", hbm.PIMHBMConfig(1200)},
		{"GDDR6", hbm.GDDR6PIMConfig(1250)},
		{"LPDDR5", hbm.LPDDR5PIMConfig(800)},
	} {
		fmt.Printf("%-8s %10d %10d %12.1f %12.1f\n", tc.name,
			tc.cfg.PIMUnits, tc.cfg.PseudoChannels, tc.cfg.OnChipGBps(), tc.cfg.OffChipGBps())
	}
	fmt.Println("\n(the functional GEMV/ADD kernels run bit-exact on all three; see")
	fmt.Println(" internal/blas/drams_test.go)")
	return nil
}

func collab() error {
	pimSys, hostSys, err := pimSystems()
	if err != nil {
		return err
	}
	r, err := sim.RunCollaborativeGemv(pimSys, hostSys, 8192, 8192)
	if err != nil {
		return err
	}
	fmt.Printf("Collaborative GEMV %dx%d (Section VIII future work), K split:\n", r.M, r.K)
	for _, p := range r.Points {
		marker := ""
		if p == r.Best {
			marker = "  <- best"
		}
		fmt.Printf("  host share %5.1f%%  %10.1f us%s\n", 100*p.HostFrac, p.Ns/1000, marker)
	}
	fmt.Printf("\nPIM-only %.1f us, host-only %.1f us; best split gains %.1f%% over PIM-only\n",
		r.PimOnly/1000, r.HostOnly/1000, r.BestGainPct)
	return nil
}

func corners() error {
	cs, err := sim.RunClockCorners()
	if err != nil {
		return err
	}
	fmt.Println("Frequency corners (Tables IV/V list 1.0 and 1.2 GHz parts):")
	fmt.Printf("%-8s %14s %14s %14s %12s\n", "clock", "on-chip TB/s", "off-chip GB/s", "GFLOPS/unit", "GEMV4 us")
	for _, c := range cs {
		fmt.Printf("%.1f GHz %14.3f %14.1f %14.1f %12.1f\n",
			float64(c.MHz)/1000, c.OnChipTBps, c.OffChipGBps, c.UnitGFLOPS, c.GEMV4Us)
	}
	return nil
}

func metricsBreakdown() error {
	rows, err := sim.RunPhaseBreakdown()
	if err != nil {
		return err
	}
	fmt.Println("Per-kernel runtime phase breakdown (count / cycles per phase):")
	fmt.Printf("%-12s %10s", "kernel", "cycles")
	for p := runtime.KernelPhase(0); p < runtime.NumPhases; p++ {
		fmt.Printf(" %16s", p)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-12s %10d", r.Kernel, r.Cycles)
		for p := range r.Phases.Count {
			fmt.Printf(" %16s", fmt.Sprintf("%d/%d", r.Phases.Count[p], r.Phases.Cycles[p]))
		}
		fmt.Println()
	}
	return nil
}

func encoder() error {
	pimSys, hostSys, err := pimSystems()
	if err != nil {
		return err
	}
	whole, err := sim.EvalApp(pimSys, hostSys, models.GNMT(), 1)
	if err != nil {
		return err
	}
	enc, err := sim.EvalApp(pimSys, hostSys, models.GNMT().EncoderOnly(), 1)
	if err != nil {
		return err
	}
	fmt.Printf("GNMT whole model: %.2fx (paper 1.5x)\n", whole.Speedup)
	fmt.Printf("LSTM encoder only: %.2fx (paper 6.2x; see EXPERIMENTS.md on the gap)\n", enc.Speedup)
	return nil
}
