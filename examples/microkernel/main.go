// Microkernel: program the CRF by hand and drive the PIM units with raw
// DRAM commands — the lowest-level view of the architecture. The kernel
// streams data from the even banks through the in-flight ReLU into the
// odd banks, triggered purely by standard column reads and writes.
package main

import (
	"fmt"
	"log"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/memctrl"
	"pimsim/internal/runtime"
)

func main() {
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = 1
	cfg.Functional = true
	rt, _, err := runtime.NewStack(cfg, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Assemble the microkernel and show its CRF image.
	src := `
		MOV(AAM_RELU) GRF_A, EVEN_BANK   ; 8 RD triggers: load + ReLU
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A         ; 8 WR triggers: store
		JUMP -1, 7
		EXIT
	`
	prog, err := isa.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("microkernel:")
	for i, in := range prog {
		fmt.Printf("  CRF[%d]  %#08x  %s\n", i, isa.MustEncode(in), in)
	}

	// Seed the even bank of unit 0 with a mix of signs.
	const row = 64
	input := fp16.FromFloat32s([]float32{
		-3, 1.5, -0.25, 7, -0, 2, -100, 0.5, 9, -9, 42, -4.75, 0.125, -0.125, 6, -6,
	})
	for col := uint32(0); col < 8; col++ {
		if err := rt.WriteBankSB(0, 0, row, col, input.Bytes()); err != nil {
			log.Fatal(err)
		}
	}

	// Mode entry, CRF programming, AB-PIM, triggers — all standard DRAM
	// commands a JEDEC controller can issue.
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(rt.EnterAB(0))
	must(rt.ProgramCRF(0, prog))
	must(rt.SetPIMMode(0, true))
	// One packet visits the row (ACT, the AAM windows, each fenced, PREA).
	must(rt.IssuePacket(0, row, []memctrl.Trigger{
		{Kind: hbm.CmdRD, Bank: 0, Col: 0, N: 8, Fence: true}, // even-bank loads: columns 0..7
		{Kind: hbm.CmdWR, Bank: 1, Col: 0, N: 8, Fence: true}, // odd-bank stores
	}, nil))
	must(rt.SetPIMMode(0, false))
	must(rt.ExitToSB(0))

	// Read the odd bank back in plain SB mode.
	out, err := rt.ReadBankSB(0, 1, row, 3, 1)
	if err != nil {
		log.Fatal(err)
	}
	result := fp16.VectorFromBytes(out)
	fmt.Printf("\ninput lanes:  %v\n", input)
	fmt.Printf("ReLU output:  %v\n", result)
	for i := range input {
		if want := fp16.ReLU(input[i]); result[i] != want {
			log.Fatalf("lane %d: %v, want %v", i, result[i], want)
		}
	}
	fmt.Printf("\nkernel completed in %d device cycles (%.0f ns)\n",
		rt.Now(0), rt.Cfg.Timing.CyclesToNs(rt.Now(0)))
}
