// tracerun replays a memory trace against the device model — the
// DRAMSim2-style workflow. Two modes:
//
//	tracerun -mode txn trace.txt   transaction trace: lines "R <addr>" or
//	                               "W <addr>" scheduled by the FR-FCFS
//	                               controller (addresses decimal or 0x hex)
//	tracerun -mode cmd trace.txt   command trace in the internal/trace
//	                               format, re-timed at earliest legality
//
// Both print cycles, bandwidth and the device activity counters.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"pimsim/internal/hbm"
	"pimsim/internal/memctrl"
	"pimsim/internal/trace"
)

func main() {
	mode := flag.String("mode", "txn", "txn or cmd")
	mhz := flag.Int("mhz", 1200, "memory clock in MHz")
	pimDev := flag.Bool("pim", false, "use the PIM-HBM geometry instead of plain HBM2")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracerun [-mode txn|cmd] <trace-file>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	cfg := hbm.HBM2Config(*mhz)
	if *pimDev {
		cfg = hbm.PIMHBMConfig(*mhz)
	}
	cfg.Functional = false
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		fatal(err)
	}

	switch *mode {
	case "txn":
		runTxn(f, dev, cfg)
	case "cmd":
		n, end, err := replay(f, dev, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %d commands; finish: cycle %d (%.2f us)\n",
			n, end, cfg.Timing.CyclesToNs(end)/1000)
		printStats(dev)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func runTxn(f *os.File, dev *hbm.Device, cfg hbm.Config) {
	m := memctrl.NewAddrMap(dev.NumPCH(), cfg.BankGroups, cfg.BanksPerGroup,
		cfg.Rows, cfg.ColumnsPerRow(), cfg.AccessBytes)
	chans := make([]*memctrl.Channel, dev.NumPCH())
	scheds := make([]*memctrl.Scheduler, dev.NumPCH())
	for i := range chans {
		chans[i] = memctrl.NewChannel(dev.PCH(i), cfg, i)
		scheds[i] = memctrl.NewScheduler(chans[i], cfg)
		scheds[i].AutoRelease = true // trace replay discards transaction results
	}

	var reads, writes int64
	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			fatal(fmt.Errorf("line %d: want \"R|W <addr>\", got %q", lineno, line))
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), pickBase(fields[1]), 64)
		if err != nil {
			fatal(fmt.Errorf("line %d: %v", lineno, err))
		}
		loc, err := m.Decode(addr &^ uint64(cfg.AccessBytes-1))
		if err != nil {
			fatal(fmt.Errorf("line %d: %v", lineno, err))
		}
		write := strings.EqualFold(fields[0], "W")
		if write {
			writes++
		} else {
			reads++
		}
		scheds[loc.Channel].Enqueue(write, loc, nil)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	var end int64
	for i, s := range scheds {
		done, err := s.Drain()
		if err != nil {
			fatal(fmt.Errorf("channel %d: %w", i, err))
		}
		if done > end {
			end = done
		}
	}
	bytes := float64(reads+writes) * float64(cfg.AccessBytes)
	ns := cfg.Timing.CyclesToNs(end)
	fmt.Printf("transactions: %d reads, %d writes\n", reads, writes)
	fmt.Printf("finish: cycle %d (%.2f us)\n", end, ns/1000)
	fmt.Printf("bandwidth: %.2f GB/s\n", bytes/ns)
	var hits, misses, reorders, ahead int64
	for _, s := range scheds {
		hits += s.RowHits()
		misses += s.RowMisses() + s.RowOpens()
		reorders += s.Reordered()
		ahead += s.AheadOpens()
	}
	fmt.Printf("row buffer: %d hits, %d misses/opens (%.1f%% hit), %d reordered, %d speculative opens\n",
		hits, misses, 100*float64(hits)/float64(hits+misses), reorders, ahead)
	printStats(dev)
}

// replay issues a command trace to dev in order, each command at its
// earliest legal cycle on its channel (the trace's cycles are advisory),
// and returns how many commands it replayed and the finish cycle. A
// command the device refuses fails the replay with its index.
func replay(r io.Reader, dev *hbm.Device, cfg hbm.Config) (int, int64, error) {
	events, err := trace.Parse(r)
	if err != nil {
		return 0, 0, err
	}
	// Validate addresses against the device geometry up front: a bad trace
	// fails with its line index, not deep inside the channel model.
	if err := trace.Validate(events, cfg, dev.NumPCH()); err != nil {
		return 0, 0, err
	}
	now := make([]int64, dev.NumPCH())
	for i, e := range events {
		p := dev.PCH(e.Channel)
		cmd := e.Command()
		at, err := p.EarliestIssue(cmd, now[e.Channel])
		if err != nil {
			return i, 0, fmt.Errorf("event %d (%s): %v", i, cmd, err)
		}
		if _, err := p.Issue(cmd, at); err != nil {
			return i, 0, fmt.Errorf("event %d (%s): %v", i, cmd, err)
		}
		now[e.Channel] = at + 1
	}
	return len(events), slices.Max(now), nil
}

func printStats(dev *hbm.Device) {
	st := dev.Stats()
	fmt.Printf("device: ACT %d, RD %d, WR %d, PRE %d, REF %d, off-chip %d bytes\n",
		st.ACT, st.RD, st.WR, st.PRE, st.REF, st.OffChipBytes)
}

func pickBase(s string) int {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return 16
	}
	return 10
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracerun:", err)
	os.Exit(1)
}
