package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the exact q-quantile (nearest rank) of xs; 0 when empty.
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// steadyMean is the mean of xs taken around its first element, so that a
// list of identical values (the simulated cost of sim_sweep's passes) gives
// exactly that value however many there are; a plain sum would round
// differently at different lengths.
func steadyMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := 0.0
	for _, x := range xs {
		d += x - xs[0]
	}
	return xs[0] + d/float64(len(xs))
}

// medianOf runs fn n times and returns the median wall time of one call.
func medianOf(n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// procUsage is a point sample of the process-wide costs the bench layer
// reports per op: CPU time, heap allocation and GC pauses.
type procUsage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
}

func sampleUsage() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procUsage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
		gcPause: time.Duration(m.PauseTotalNs),
	}
}

func (a procUsage) sub(b procUsage) procUsage {
	return procUsage{a.cpu - b.cpu, a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcPause - b.gcPause}
}

// stolenSeconds is the time the hypervisor has kept this machine's CPUs
// from it since boot (the steal column of /proc/stat, summed over CPUs, in
// 10 ms ticks); 0 where there is no such file.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

// stealMeter samples stolenSeconds every 20 ms for as long as a measurement
// lasts, so that the steal inside any stretch of it can be read off.
type stealMeter struct {
	stop, done chan struct{}
	mu         sync.Mutex
	at         []time.Time
	stolen     []float64
}

func startStealMeter() *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.sample()
			case <-m.stop:
				m.sample()
				return
			}
		}
	}()
	return m
}

func (m *stealMeter) sample() {
	now, stolen := time.Now(), stolenSeconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.at, m.stolen = append(m.at, now), append(m.stolen, stolen)
}

// halt ends the sampling and waits for the sampler to return.
func (m *stealMeter) halt() {
	close(m.stop)
	<-m.done
}

// until is the stolen time up to t, interpolated between the two samples
// around it; t is in the past.
func (m *stealMeter) until(t time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.Search(len(m.at), func(i int) bool { return !m.at[i].Before(t) })
	switch {
	case i == 0:
		return m.stolen[0]
	case i == len(m.at):
		return m.stolen[i-1]
	}
	span := m.at[i].Sub(m.at[i-1])
	if span <= 0 {
		return m.stolen[i]
	}
	return m.stolen[i-1] + (m.stolen[i]-m.stolen[i-1])*float64(t.Sub(m.at[i-1]))/float64(span)
}

// exposure is the share of the time from stealGuard before from to
// stealGuard after to that was stolen. The counter moves in 10 ms ticks and
// is sampled every 20 ms, hence the guard.
func (m *stealMeter) exposure(from, to time.Time) float64 {
	from, to = from.Add(-stealGuard), to.Add(stealGuard)
	return (m.until(to) - m.until(from)) / to.Sub(from).Seconds()
}

// served is one request or pass that answered correctly.
type served struct {
	due, from, to time.Time // when it was due to start, when it started, when its answer was in
	ops           int       // ops it stands for: the timesteps of a sequence, else 1
	simNs         float64   // simulated device time attributed to it
}

// window is one of the nWindows equal stretches a timed phase is cut into.
type window struct {
	stolen float64 // seconds the hypervisor took from the machine during it
	ops    float64 // ops done in it; a request's ops are spread over the time it ran
}

// The end-to-end figures come from the part of a run during which the
// hypervisor took the least CPU time from the VM. The sizing machine is a
// 2-vCPU VM on a shared host: for stretches of seconds to minutes the host
// runs something else on its CPUs for 10 to 50 % of the time, and says so in
// /proc/stat. Latencies and simulated time are taken over the requests
// within the lowest 1/quietShare of exposures to it (from when a request was
// due to when its answer was in), throughput over the windows within the
// lowest 1/quietShare of stolen time, set-up time over the set-ups within
// the lowest 1/quietShare of exposures. Whatever ties with the last one kept
// is kept too, so on a quiet machine the figures are the whole run's. The
// choice is made by what the machine reports, never by the times themselves.
// README.md has the comparison with the other estimators tried.
const (
	nWindows   = 40
	quietShare = 8
	stealGuard = 50 * time.Millisecond
)

// leastStolen marks the entries of stolen within its lowest 1/quietShare.
func leastStolen(stolen []float64) []bool {
	limit := quantile(stolen, 1.0/quietShare)
	keep := make([]bool, len(stolen))
	for i, s := range stolen {
		keep[i] = s <= limit
	}
	return keep
}

// cut fills in the run's windows and picks the quiet requests and windows.
func (o *outcome) cut(m *stealMeter) {
	span := max(o.wall/nWindows, 1)
	index := func(t time.Time) int { return max(0, min(nWindows-1, int(t.Sub(o.start)/span))) }
	o.windows = make([]window, nWindows)
	stolen := make([]float64, nWindows)
	for i := range stolen {
		from := o.start.Add(time.Duration(i) * span)
		stolen[i] = m.until(from.Add(span)) - m.until(from)
		o.windows[i].stolen = stolen[i]
	}
	o.quietWin = leastStolen(stolen)

	exposure := make([]float64, len(o.done))
	for n, s := range o.done {
		exposure[n] = m.exposure(s.due, s.to)
		ran := s.to.Sub(s.from)
		for i := index(s.from); i <= index(s.to); i++ {
			lo := o.start.Add(time.Duration(i) * span)
			hi := lo.Add(span)
			if s.from.After(lo) {
				lo = s.from
			}
			if s.to.Before(hi) {
				hi = s.to
			}
			share := 1.0 // a request with no duration falls whole into its window
			if ran > 0 {
				share = float64(hi.Sub(lo)) / float64(ran)
			}
			o.windows[i].ops += float64(s.ops) * share
		}
	}
	o.quietReq = leastStolen(exposure)
}

// latencies is the ms per op of the requests picked (nil: of them all), one
// entry per op.
func (o *outcome) latencies(picked []bool) []float64 {
	var lat []float64
	for n, s := range o.done {
		if picked == nil || picked[n] {
			per := ms(s.to.Sub(s.due)) / float64(s.ops)
			for i := 0; i < s.ops; i++ {
				lat = append(lat, per)
			}
		}
	}
	return lat
}

// rate is the workload's throughput, correct ops per second, in the quiet
// windows. An open loop's throughput is its schedule's whatever the
// machine does, so there it is correct ops over wall seconds.
func (o *outcome) rate() float64 {
	if o.open {
		return float64(o.attempted-o.failed) / o.wall.Seconds()
	}
	ops, n := 0.0, 0
	for i, w := range o.windows {
		if o.quietWin[i] {
			ops += w.ops
			n++
		}
	}
	return ops / (float64(n) * o.wall.Seconds() / nWindows)
}

// simUsPerOp is the simulated device time per op of the quiet requests
// (batches form differently when the machine stalls, and a batch's size sets
// its members' share of the kernel).
func (o *outcome) simUsPerOp() float64 {
	var simNs []float64
	ops := 0
	for n, s := range o.done {
		if o.quietReq[n] {
			simNs = append(simNs, s.simNs)
			ops += s.ops
		}
	}
	if ops == 0 {
		return 0
	}
	return steadyMean(simNs) * float64(len(simNs)) / float64(ops) / 1e3
}
