package runtime

import (
	"strings"
	"testing"

	"pimsim/internal/hbm"
	"pimsim/internal/memctrl"
)

// driveOnePhaseRound runs a minimal mode-enter / program / trigger / exit
// sequence on channel 0 so every phase but SRF fires at least once.
func driveOnePhaseRound(t *testing.T, rt *Runtime) {
	t.Helper()
	prog := assemble(t, `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		EXIT
	`)
	if err := rt.EnterAB(0); err != nil {
		t.Fatal(err)
	}
	if err := rt.ProgramCRF(0, prog); err != nil {
		t.Fatal(err)
	}
	if err := rt.ZeroGRF(0); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetPIMMode(0, true); err != nil {
		t.Fatal(err)
	}
	if err := rt.IssuePacket(0, 0, []memctrl.Entry{{Kind: hbm.CmdRD, N: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetPIMMode(0, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.ExitToSB(0); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseObsAccounting(t *testing.T) {
	rt := newRT(t, 1)

	// Unarmed: activity goes to the channel ledgers only; TakePhaseObs
	// reports nothing.
	driveOnePhaseRound(t, rt)
	if pb := rt.TakePhaseObs(); pb.Count[PhaseTrigger] != 0 {
		t.Fatalf("unarmed TakePhaseObs saw %d triggers, want 0", pb.Count[PhaseTrigger])
	}

	rt.BeginPhaseObs()
	driveOnePhaseRound(t, rt)
	pb := rt.TakePhaseObs()
	// 4 mode ops (EnterAB, PIM on, PIM off, ExitToSB), 1 CRF program,
	// 1 GRF zero, 1 trigger.
	if pb.Count[PhaseMode] != 4 || pb.Count[PhaseCRF] != 1 || pb.Count[PhaseGRF] != 1 || pb.Count[PhaseTrigger] != 1 {
		t.Errorf("phase counts mode=%d crf=%d grf=%d trigger=%d, want 4/1/1/1",
			pb.Count[PhaseMode], pb.Count[PhaseCRF], pb.Count[PhaseGRF], pb.Count[PhaseTrigger])
	}
	for _, ph := range []KernelPhase{PhaseMode, PhaseCRF, PhaseGRF, PhaseTrigger} {
		if pb.Cycles[ph] <= 0 {
			t.Errorf("phase %s accounted %d cycles, want > 0", ph, pb.Cycles[ph])
		}
	}
	sum := pb.Summary()
	for _, frag := range []string{"mode=4/", "crf=1/", "grf=1/", "trigger=1/"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary %q missing %q", sum, frag)
		}
	}
	if strings.Contains(sum, "srf=") {
		t.Errorf("summary %q includes the idle srf phase", sum)
	}

	// TakePhaseObs resets: an immediate second take is empty but the
	// aggregate stays armed for the next kernel.
	if pb2 := rt.TakePhaseObs(); pb2.Count[PhaseTrigger] != 0 {
		t.Errorf("second take saw %d triggers, want 0 (reset)", pb2.Count[PhaseTrigger])
	}
	driveOnePhaseRound(t, rt)
	if pb3 := rt.TakePhaseObs(); pb3.Count[PhaseTrigger] != 1 {
		t.Errorf("aggregate disarmed after take: %d triggers, want 1", pb3.Count[PhaseTrigger])
	}
}
