package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// child runs this binary once more for one workload and returns the
// metrics of its result line. A process of its own, because peak memory is
// a high-water mark of the whole process.
func child(workload string, seed int64, seconds float64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = nil // the tables of a traced run are not wanted twice per workload
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s -trace %d: %w", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s -trace %d: result line: %w", workload, trace, err)
	}
	return &res, nil
}

// selfcheck runs every workload twice on one commit and one seed (A/A),
// end to end and traced. It prints each end-to-end metric's relative
// difference beside its bound and reports failure when one is breached,
// when an exact metric differs at all, or when an op failed.
func selfcheck(seed int64, seconds float64) bool {
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Printf("  FAIL "+format+"\n", args...)
	}
	for _, def := range workloads {
		fmt.Printf("%s (seed %d, %g s)\n", def.Name, seed, seconds)
		var runs [2][2]*result // [trace][A or B]
		for trace := range runs {
			for i := range runs[trace] {
				res, err := child(def.Name, seed, seconds, trace)
				if err != nil {
					fail("%v", err)
					return false
				}
				if !res.Correct {
					fail("-trace %d run %d: %d of %d ops failed", trace, i, res.Failed, res.Attempted)
				}
				runs[trace][i] = res
			}
		}
		for _, d := range endToEnd {
			a, b := runs[0][0].Metrics[d.Name].Value, runs[0][1].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			fmt.Printf("  %-16s A %12.4f  B %12.4f %-5s  B worse by %+6.2f%%  bound %4.0f%%\n",
				d.Name, a, b, d.Unit, 100*worse, 100*d.Bound)
			if math.Abs(worse) > d.Bound {
				fail("%s: A/A difference %.2f%% is beyond the %.0f%% bound", d.Name, 100*math.Abs(worse), 100*d.Bound)
			}
		}
		if def.Name == "sim_sweep" { // every pass simulates the same thing, whatever the host's speed
			if a, b := runs[0][0].Metrics["sim_us_per_op"].Value, runs[0][1].Metrics["sim_us_per_op"].Value; a != b {
				fail("sim_us_per_op must repeat exactly: %v vs %v", a, b)
			}
		}
		same := 0
		for _, d := range perLayer {
			if !exact(d.Name) {
				continue
			}
			if a, b := runs[1][0].Metrics[d.Name].Value, runs[1][1].Metrics[d.Name].Value; a != b {
				fail("%s must repeat exactly: %v vs %v", d.Name, a, b)
			} else {
				same++
			}
		}
		fmt.Printf("  %d exact per-layer metrics identical\n", same)
	}
	return ok
}
