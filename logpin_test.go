package pimsim

// Command-log pins. How the simulator records what the device did may
// change; what a reader of that record sees may not. These tests digest
// every command, mode-window and PIM-activity event the timeline yields
// for two instrumented GEMVs, and the bytes of the two CLI surfaces that
// print the record: pimsim's -trace listing and its Chrome timeline.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"pimsim/internal/blas"
	"pimsim/internal/fault"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/obs"
	"pimsim/internal/runtime"
)

// logDigest renders every event the timeline yields, channel by channel
// (commands, then mode transitions, then PIM samples), plus the event
// and drop counts, and returns the sha256 of that text.
func logDigest(tl *obs.Timeline, channels int) (string, int) {
	h := sha256.New()
	refs := 0
	for ch := 0; ch < channels; ch++ {
		c := tl.Channel(ch)
		for _, e := range c.Cmds() {
			fmt.Fprintf(h, "C %d %d %s %d %d %d %d %t\n", ch, e.Cycle, e.Kind, e.BG, e.Bank, e.Row, e.Col, e.Broadcast)
			if e.Kind == "REF" {
				refs++
			}
		}
		for _, e := range c.Modes() {
			fmt.Fprintf(h, "M %d %d %s\n", ch, e.Cycle, e.Mode)
		}
		for _, e := range c.PIMs() {
			fmt.Fprintf(h, "P %d %d %d\n", ch, e.Cycle, e.Instr)
		}
	}
	fmt.Fprintf(h, "events %d dropped %d\n", tl.Events(), tl.Dropped())
	return hex.EncodeToString(h.Sum(nil)), refs
}

// pinnedGemv runs a 256x512 GEMV on one 4-pseudo-channel device with the
// timeline attached. Timing-only, every channel takes seeded latency
// spikes and refresh falls due every 700 cycles, mid-run; functional, the
// device has ECC and seeded bit flips.
func pinnedGemv(t *testing.T, functional bool) *obs.Timeline {
	t.Helper()
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = 4
	cfg.Functional = functional
	cfg.ECC = functional
	if !functional {
		cfg.Timing.REFI = 700
	}
	dev := hbm.MustNewDevice(cfg)
	if functional {
		dev.AttachFault(fault.New(fault.Config{Seed: 7, FlipRate: 1e-3}))
	}
	rt, err := runtime.New([]*hbm.Device{dev})
	if err != nil {
		t.Fatal(err)
	}
	if !functional {
		inj := fault.New(fault.Config{Seed: 11, SpikeEvery: 64, SpikeCycles: 9})
		for _, ch := range rt.Chans {
			ch.Delay = inj
		}
	}
	tl := obs.FromHBM(cfg, rt.EffectiveChannels(), 0)
	rt.AttachTimeline(tl)
	const M, K = 256, 512
	var W, x fp16.Vector
	if functional {
		W, x = fp16.NewVector(M*K), fp16.NewVector(K)
		for i := range W {
			W[i] = fp16.FromFloat32(float32(i%13) * 0.1)
		}
		for i := range x {
			x[i] = fp16.FromFloat32(float32(i%7) * 0.2)
		}
	}
	if _, _, err := blas.PimGemv(rt, W, M, K, x); err != nil {
		t.Fatal(err)
	}
	return tl
}

// TestLogPinGemv pins the expanded event stream of a timing-only GEMV
// with latency spikes and refreshes mid-run, and of a functional GEMV
// with ECC.
func TestLogPinGemv(t *testing.T) {
	for _, tc := range []struct {
		name       string
		functional bool
		want       string
	}{
		{"timing-spikes-refresh", false, "1a233780723d85f5576e85ee1659af27ebc4d5f42799988bab3399044be91576"},
		{"functional-ecc", true, "6fed153cd8ca4f03eb0e24a3674f35f244785c1e1d32ea959f471b8540a49579"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tl := pinnedGemv(t, tc.functional)
			got, refs := logDigest(tl, 4)
			if !tc.functional && refs == 0 {
				t.Fatal("no refresh fell due during the traced GEMV")
			}
			if got != tc.want {
				t.Errorf("event digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestLogPinCLI pins the sha256 of pimsim's -trace listing (with a JSON
// metrics snapshot) and of the Chrome timeline a functional GEMV writes.
func TestLogPinCLI(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to build cmd/pimsim")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pimsim")
	if out, err := exec.Command(goTool, "build", "-o", bin, "./cmd/pimsim").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/pimsim: %v\n%s", err, out)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}

	out, err := exec.Command(bin, "-trace", "64", "-metrics-out", "-").Output()
	if err != nil {
		t.Fatalf("pimsim -trace 64: %v", err)
	}
	if got, want := sum(out), "6ca79c6687c8b0c53a0fe6d993cc889c952c8b2e784b4c0216c58c2e63470cf9"; got != want {
		t.Errorf("pimsim -trace 64 -metrics-out - stdout sha256 %s, want %s", got, want)
	}

	tlPath := filepath.Join(dir, "timeline.json")
	if out, err := exec.Command(bin, "-kernel", "gemv", "-m", "256", "-k", "512", "-functional",
		"-timeline", tlPath).CombinedOutput(); err != nil {
		t.Fatalf("pimsim -timeline: %v\n%s", err, out)
	}
	chrome, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum(chrome), "3437d8486cc5e9c566d3626c6f99ba44b62ff7527598da6784b4ad92a7fccae5"; got != want {
		t.Errorf("Chrome timeline sha256 %s, want %s", got, want)
	}
}
