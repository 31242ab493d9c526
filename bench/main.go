// Command bench is the repository's one benchmark: five workloads, each
// measured on the host's wall clock and the simulator's clock, with a
// per-layer probe ladder behind -trace 1. BENCHMARK.json at the repository
// root names the command, the workloads and every metric; README.md in this
// directory is the catalogue.
//
//	go run ./bench -workload gemv_closed -seed 1 -seconds 10 -trace 0
//	go run ./bench -list
//	go run ./bench -selfcheck -seconds 5
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"pimsim/internal/serve"
)

// metricSet is a flat name -> value map, the form every run reports in.
type metricSet map[string]float64

// outcome is what one timed phase of a workload produced.
type outcome struct {
	attempted, failed int
	open              bool // open loop: arrivals follow a schedule, not the replies
	start             time.Time
	wall              time.Duration
	done              []served  // the requests or passes that answered correctly, in issue order
	cycles            float64   // their simulated device time, summed, in device cycles
	layer             metricSet // per-layer values only this workload can see
	// latMinusQueueP50 is the median client latency less the queue wait the
	// server reported, in ms: what is left is HTTP, admission, lease, device
	// execution and the reply.
	latMinusQueueP50 float64

	windows  []window // filled in by cut
	quietWin []bool   // the windows throughput is taken from
	quietReq []bool   // the entries of done latency and simulated time are taken from
}

// workload is one set of inputs, generated from the seed before any clock
// starts. setup builds the stack under test and pushes one op through it;
// run warms up (by 1/div of the usual amount: tests shorten it), drives the
// load for d, then checks every output.
type workload interface {
	setup() error
	close()
	run(d time.Duration, div int, rec *recorder) *outcome
	shapes() probeShapes
}

// probeShapes is what a workload tells the ladder about itself, so the
// probes replay its shapes and not fixed ones.
type probeShapes struct {
	m, k       int  // GEMV shape of the workload's op
	seqOp      bool // the op is one ds2-small timestep
	timingOnly bool // the workload has no functional device at all
	serve      *serve.Config
	req        serve.InferRequest
	resp       serve.InferResponse
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	new  func(seed int64) workload
}

var workloads = []workloadDef{
	{"gemv_closed", "closed loop, 2 clients, batch-1 GEMV on micro-256x256 served online: the pim+fp16 datapath does most of the work and serve little, so a kernel PR must show here and a codec PR barely", newGemvClosed},
	{"seq_closed", "closed loop, 2 clients, ds2-small LSTM sequences of 4..12 frames, continuous batching; op = one timestep of 13 small GEMVs, so kernel launch, engine and nn host-math costs are paid 13x per op", newSeqClosed},
	{"nano_open", "open loop, seeded Poisson 200 req/s, 16x64 model, 3 tenants, every 8th request a 4-vector batch: device work is negligible; codec, WFQ, batch timer, lease and reply do the work; fp16 must not show", newNanoOpen},
	{"kernels_direct", "offline, no server: resident GEMV 256x256 at batch 1 and 4, sparse slots, ADD and BN over 64k, LSTM cell 112 on a functional 4-pCH device; bank reads beside write-backs; kernels without serve or nn", newKernelsDirect},
	{"sim_sweep", "offline, timing-only: the paper's suite (Table VI at batch 1/2/4, five apps, Fig 11/12, DSE, fence study) and a mixed SB/AB-PIM stream; hbm, memctrl and runtime do the work, fp16 none; has accuracy", newSimSweep},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. Bound is the share of the parent's median a metric
// may worsen by.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"sim_us_per_op", "us", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

func perLayerDefs() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "lower", "fp16.macvec_ns", "fp16.convert_ns")
	add("ratio", "lower", "pim.datapath_share")
	add("count", "lower", "pim.instr_per_op")
	add("ns", "lower", "hbm.issue_ns")
	add("count", "lower", "hbm.cmds_per_op.act", "hbm.cmds_per_op.pre", "hbm.cmds_per_op.rd", "hbm.cmds_per_op.wr",
		"hbm.cmds_per_op.abrd", "hbm.cmds_per_op.abwr", "hbm.cmds_per_op.ref")
	add("ns", "lower", "memctrl.issue_ns", "memctrl.sched_tx_ns")
	add("ratio", "higher", "memctrl.row_hit_frac")
	add("cycles", "lower", "memctrl.fence_stall_cycles_per_op")
	add("count", "lower", "memctrl.refresh_per_op")
	add("us", "lower", "engine.run_overhead_us")
	add("ratio", "higher", "engine.parallel_speedup")
	add("us", "lower", "runtime.kernel_launch_us")
	add("cycles", "lower", "runtime.phase_cycles.mode", "runtime.phase_cycles.crf", "runtime.phase_cycles.srf",
		"runtime.phase_cycles.grf", "runtime.phase_cycles.trigger")
	add("ns", "lower", "driver.alloc_free_ns")
	add("us", "lower", "blas.run_batch_us.b1", "blas.run_batch_us.b2", "blas.run_batch_us.b4", "blas.run_slots_us", "blas.eltwise_add_us",
		"blas.eltwise_bn_us", "blas.lstm_cell_us", "blas.oracle_us")
	add("ms", "lower", "blas.load_gemv_ms", "nn.step_slots_ms.s1", "nn.step_slots_ms.s2", "nn.step_slots_ms.s4",
		"nn.self_ms", "nn.host_oracle_step_ms", "nn.compile_ms", "nn.load_ms")
	add("us", "lower", "serve.codec_us.req", "serve.codec_us.resp", "serve.queue_wait_us_p50")
	add("count", "higher", "serve.batch_size_avg", "serve.seq_occupancy_avg")
	add("ms", "lower", "serve.self_ms_p50", "serve.lat_p99_ms", "serve.new_ms", "serve.close_ms")
	add("count", "higher", "serve.admitted", "serve.served", "serve.batches")
	add("count", "lower", "serve.shed", "serve.retries", "serve.hedges")
	add("us", "lower", "metrics.snapshot_us")
	add("ratio", "lower", "obs.trace_overhead_frac", "obs.timeline_overhead_frac")
	add("ms", "lower", "sim.micro_suite_ms", "sim.eval_apps_ms", "sim.fig11_ms", "sim.fig12_ms",
		"sim.fence_study_ms", "sim.mixed_stream_ms")
	for _, a := range anchors {
		add("%", "lower", "sim.anchor_err_pct."+a.name)
	}
	add("%", "lower", "sim.paper_err_max_pct")
	add("ms", "lower", "dse.run_ms")
	add("count", "lower", "bench.allocs_per_op")
	add("KiB", "lower", "bench.alloc_kb_per_op")
	add("ms", "lower", "bench.gc_pause_ms", "bench.gen_late_p99_ms")
	add("ratio", "lower", "bench.cpu_s_per_wall_s", "bench.fail_frac")
	add("ns", "lower", "bench.host_ns_per_sim_cycle")
	return defs
}

var perLayer = perLayerDefs()

// exact are the per-layer metrics that come from the simulator's own
// counters on a fixed op: two runs of one commit and seed must agree on
// every digit, and a change meant only to speed up the host must not move
// them.
func exact(name string) bool {
	for _, p := range []string{"hbm.cmds_per_op.", "pim.instr_per_op", "runtime.phase_cycles.", "memctrl.row_hit_frac",
		"memctrl.fence_stall_cycles_per_op", "memctrl.refresh_per_op", "sim.anchor_err_pct.", "sim.paper_err_max_pct"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// report is the document a run prints before its result line.
type report struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Trace        int                  `json:"trace"`
	Commit       string               `json:"commit"`
	GoVersion    string               `json:"go_version"`
	NumCPU       int                  `json:"nproc"`
	GOMAXPROCS   int                  `json:"gomaxprocs"`
	Attempted    int                  `json:"attempted"`
	Succeeded    int                  `json:"succeeded"`
	Failed       int                  `json:"failed"`
	SetupReps    int                  `json:"setup_reps"`
	TimedS       float64              `json:"timed_seconds"`
	Samples      int                  `json:"latency_samples"`
	QuietSamples int                  `json:"quiet_latency_samples,omitempty"`
	Plain        map[string]float64   `json:"plain"`
	Windows      map[string][]float64 `json:"windows"`
	QuietWindows []int                `json:"quiet_windows"`
	Units        map[string]string    `json:"units"`
	Metrics      metricSet            `json:"metrics"`
	SelfTimeMs   map[string]float64   `json:"span_self_ms,omitempty"`
	SpanFile     string               `json:"span_file,omitempty"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// The stack is built at least setupReps times, and until setupFor has gone
// by (at most setupMax times), to get a steady setup_s: construction takes
// 1 to 100 ms here, too short to time once or even seven times. The figure
// is the median of the repetitions least exposed to stolen time.
const (
	setupReps = 7
	setupMax  = 60
	setupFor  = 1500 * time.Millisecond
)

// quietSetup is the median duration of the set-ups within the lowest
// 1/quietShare of exposures to stolen time.
func quietSetup(setups []served, m *stealMeter) float64 {
	exposure := make([]float64, len(setups))
	for i, s := range setups {
		exposure[i] = m.exposure(s.from, s.to)
	}
	var quiet []float64
	for i, keep := range leastStolen(exposure) {
		if keep {
			quiet = append(quiet, setups[i].to.Sub(setups[i].from).Seconds())
		}
	}
	return median(quiet)
}

// measure runs one workload once and returns its report. trace 0 is the
// end-to-end run; trace 1 runs a third-length untraced phase, the same
// again with spans recorded, and the probe ladder. div > 1 is for tests: one
// set-up, and the warm-up and the ladder's iteration counts divided by it.
func measure(def workloadDef, seed int64, seconds float64, trace int, outDir string, div int) (*report, error) {
	w := def.new(seed)
	rep := &report{
		Workload: def.Name, Seed: seed, Trace: trace, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: metricSet{}, Units: map[string]string{},
	}
	d := time.Duration(seconds * float64(time.Second))
	steal := startStealMeter()
	defer steal.halt()

	var setups []served
	for begun := time.Now(); ; w.close() {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", def.Name, err)
		}
		setups = append(setups, served{from: t0, to: time.Now()})
		if n := len(setups); div > 1 || n >= setupMax || (n >= setupReps && time.Since(begun) > setupFor) {
			break
		}
	}
	rep.SetupReps = len(setups)

	if trace == 0 {
		out := w.run(d, div, nil)
		w.close()
		out.cut(steal)
		rep.fill(out)
		rep.Metrics["setup_s"] = quietSetup(setups, steal)
		rep.Metrics["ops_per_s"] = out.rate()
		quiet := out.latencies(out.quietReq)
		rep.QuietSamples = len(quiet)
		rep.Metrics["lat_p50_ms"] = quantile(quiet, 0.5)
		rep.Metrics["lat_p90_ms"] = quantile(quiet, 0.9)
		rep.Metrics["sim_us_per_op"] = out.simUsPerOp()
		rep.Metrics["peak_rss_mb"] = peakRSSMiB()
		rep.setUnits(endToEnd)
		return rep, nil
	}

	// Traced run: the same load at a third of the length without spans,
	// again with them, and the difference between the two is what tracing
	// costs. End-to-end figures never come from here.
	d /= 3
	u0 := sampleUsage()
	plain := w.run(d, div, nil)
	use := sampleUsage().sub(u0)
	plain.cut(steal)
	w.close()
	rec := &recorder{}
	if sw, ok := w.(*serverWorkload); ok {
		sw.traced = true
	}
	if err := w.setup(); err != nil {
		return nil, err
	}
	out := w.run(d, div, rec)
	out.cut(steal)
	rep.fill(out)
	m := rep.Metrics
	for k, v := range out.layer {
		m[k] = v
	}
	m["obs.trace_overhead_frac"] = 1 - out.rate()/plain.rate()
	if kd, ok := w.(*kernelsDirect); ok {
		tl := kd.timelineRun(d)
		tl.cut(steal)
		m["obs.timeline_overhead_frac"] = 1 - tl.rate()/plain.rate()
	}
	w.close()
	ops := float64(plain.attempted)
	m["bench.allocs_per_op"] = float64(use.mallocs) / ops
	m["bench.alloc_kb_per_op"] = float64(use.bytes) / 1024 / ops
	m["bench.gc_pause_ms"] = ms(use.gcPause)
	m["bench.cpu_s_per_wall_s"] = use.cpu.Seconds() / plain.wall.Seconds()
	m["bench.fail_frac"] = float64(out.failed+plain.failed) / float64(out.attempted+plain.attempted)
	rep.Failed += plain.failed
	rep.Attempted += plain.attempted
	rep.Succeeded = rep.Attempted - rep.Failed

	probes, err := ladder(w, seed, div)
	if err != nil {
		return nil, fmt.Errorf("%s: ladder: %w", def.Name, err)
	}
	for k, v := range probes {
		if _, seen := m[k]; !seen { // what the run itself observed wins over the probe
			m[k] = v
		}
	}
	if _, isServer := w.(*serverWorkload); isServer {
		// Device execution at the batch size the run saw, taken out of
		// latency-less-queue-wait, leaves the server's own time.
		exec := at124(m["blas.run_batch_us.b1"], m["blas.run_batch_us.b2"], m["blas.run_batch_us.b4"], m["serve.batch_size_avg"]) / 1e3
		if w.shapes().seqOp {
			exec = at124(m["nn.step_slots_ms.s1"], m["nn.step_slots_ms.s2"], m["nn.step_slots_ms.s4"], m["serve.seq_occupancy_avg"])
		}
		m["serve.self_ms_p50"] = out.latMinusQueueP50 - exec
	}
	for _, def := range perLayer { // a layer the workload never crosses reads 0
		if _, ok := m[def.Name]; !ok {
			m[def.Name] = 0
		}
	}
	rep.setUnits(perLayer)

	self, roots := rec.selfTimes()
	rep.SelfTimeMs = map[string]float64{"bench.op.total": ms(roots)}
	for name, dur := range self {
		rep.SelfTimeMs[name] = ms(dur)
	}
	rep.SpanFile = filepath.Join(outDir, def.Name+".trace.json")
	if err := rec.writeChrome(rep.SpanFile); err != nil {
		return nil, err
	}
	return rep, nil
}

// at124 interpolates a cost the ladder measured at batch size (or slot
// occupancy) 1, 2 and 4 to the size x the run saw.
func at124(c1, c2, c4, x float64) float64 {
	if x <= 2 {
		return c1 + (c2-c1)*math.Max(x-1, 0)
	}
	return c2 + (c4-c2)*math.Min(x-2, 2)/2
}

func (r *report) fill(out *outcome) {
	r.Attempted, r.Failed, r.Succeeded = out.attempted, out.failed, out.attempted-out.failed
	all := out.latencies(nil)
	r.TimedS, r.Samples = out.wall.Seconds(), len(all)
	r.Plain = map[string]float64{
		"p50_ms": quantile(all, 0.5), "p90_ms": quantile(all, 0.9), "p99_ms": quantile(all, 0.99),
		"ops_per_s": float64(out.attempted-out.failed) / out.wall.Seconds(),
	}
	r.Windows = map[string][]float64{}
	for i, w := range out.windows {
		r.Windows["stolen_s"] = append(r.Windows["stolen_s"], w.stolen)
		r.Windows["ops_per_s"] = append(r.Windows["ops_per_s"], w.ops*nWindows/out.wall.Seconds())
		if out.quietWin[i] {
			r.QuietWindows = append(r.QuietWindows, i)
		}
	}
}

func (r *report) setUnits(defs []metricDef) {
	for _, d := range defs {
		r.Units[d.Name] = d.Unit
	}
}

// result keeps exactly the metrics BENCHMARK.json names for this kind of
// run; the report may carry more.
func (r *report) result() result {
	defs := endToEnd
	if r.Trace != 0 {
		defs = perLayer
	}
	res := result{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]measured{}}
	for _, d := range defs {
		res.Metrics[d.Name] = measured{r.Metrics[d.Name], d.Unit}
	}
	return res
}

// printTables writes the human-readable view of a traced run to stderr:
// span self times against the root total, then the ladder by layer group.
func (r *report) printTables() {
	if r.Trace == 0 {
		return
	}
	total := r.SelfTimeMs["bench.op.total"]
	fmt.Fprintf(os.Stderr, "\n%s: span self time (sum of bench.op = %.1f ms)\n", r.Workload, total)
	var names []string
	sum := 0.0
	for n, v := range r.SelfTimeMs {
		if n != "bench.op.total" {
			names = append(names, n)
			sum += v
		}
	}
	sort.Slice(names, func(i, j int) bool { return r.SelfTimeMs[names[i]] > r.SelfTimeMs[names[j]] })
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %10.1f ms  %5.1f%%\n", n, r.SelfTimeMs[n], 100*r.SelfTimeMs[n]/total)
	}
	fmt.Fprintf(os.Stderr, "  %-24s %10.1f ms  %5.1f%% of the root total\n", "sum of self times", sum, 100*sum/total)
	group := ""
	for _, d := range perLayer {
		if g := d.Name[:strings.Index(d.Name, ".")]; g != group {
			group = g
			fmt.Fprintf(os.Stderr, "%s\n", group)
		}
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
}

func list() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-16s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (-trace 0), with the share of the parent's median each may worsen by:")
	for _, d := range endToEnd {
		fmt.Printf("  %-16s %-6s %-6s better, bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Println("per-layer metrics (-trace 1), none gates:")
	for _, d := range perLayer {
		fmt.Printf("  %-36s %-6s %s better\n", d.Name, d.Unit, d.Better)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Int64("seed", 1, "seed every input and arrival schedule is generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: spans, probe ladder and per-layer metrics")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory span files are written to")
	doList := flag.Bool("list", false, "print workloads and metrics with units, run nothing")
	doCheck := flag.Bool("selfcheck", false, "run every workload twice on one seed and compare the runs against the bounds")
	flag.Parse()

	switch {
	case *doList:
		list()
		return
	case *doCheck:
		if !selfcheck(*seed, *seconds) {
			os.Exit(1)
		}
		return
	}
	for _, def := range workloads {
		if def.Name != *name {
			continue
		}
		rep, err := measure(def, *seed, *seconds, *trace, *outDir, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		rep.printTables()
		// Two lines: the full report, then the result the driver reads.
		fmt.Println(string(mustJSON(rep)))
		fmt.Println(string(mustJSON(rep.result())))
		return
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q; -list prints them\n", *name)
	os.Exit(2)
}
