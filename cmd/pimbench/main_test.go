package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/exp_all.golden from this build's output")

// expAllGolden is `pimbench -exp all`'s stdout: every table the simulator
// prints, on the simulated clock only, so any change to a number shows
// here.
const expAllGolden = "testdata/exp_all.golden"

// TestExpAllGolden builds pimbench and checks that `-exp all` prints the
// checked-in tables byte for byte at GOMAXPROCS 1 and 2. Run with
// -update to re-record them after a change meant to move a number.
func TestExpAllGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to build cmd/pimbench")
	}
	bin := filepath.Join(t.TempDir(), "pimbench")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var outs [][]byte
	for _, procs := range []string{"1", "2"} {
		cmd := exec.Command(bin, "-exp", "all")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("pimbench -exp all at GOMAXPROCS %s: %v", procs, err)
		}
		outs = append(outs, out)
	}
	if string(outs[0]) != string(outs[1]) {
		t.Fatal("pimbench -exp all prints different tables at GOMAXPROCS 1 and 2")
	}
	if *update {
		if err := os.WriteFile(expAllGolden, outs[0], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(expAllGolden)
	if err != nil {
		t.Fatal(err)
	}
	if string(outs[0]) != string(want) {
		t.Errorf("pimbench -exp all differs from %s; diff it against a fresh run, and re-record with -update only if the change is meant to move a number", expAllGolden)
	}
}
