// Command bench is the repository's benchmark: long workloads over the
// sweep and serve paths, driven from outside through the packages' exported
// functions, with host-normalised end-to-end metrics and a traced pass for
// the per-layer ones. README.md in this directory is the methodology.
//
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1   one run
//	go run ./bench                                                     all workloads, both passes
//	go run ./bench -selfcheck N                                        two sets of N runs, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one metric. BENCHMARK.json lists the same names; a unit
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
}

// workloads are the ones BENCHMARK.json lists and the driver gates on.
var workloads = []workloadDef{
	{"sweep_cold", "fresh world per sweep, no journal: the one-shot urhunter path, where cold resolver caches make the correct-record stage dominate", runSweepCold},
	{"sweep_warm_journal_chaos", "one world re-swept as the daemon does, per-endpoint faults and a journal, then a resume from it: collector, retry, determiner, journal write and replay dominate", runSweepWarm},
	{"serve_udp_churn", "loopback UDP DNSBL, half listed and half of 200,000 unlisted names, a publish every segment: hit ratio near 0.37, so render, cap-flush, swap-flush and seal all work", runServeUDP},
}

// ungated runs and is reported with the others by `go run ./bench`, but is
// not in BENCHMARK.json: the driver's 3,420 s hold three workloads at a run
// length that repeats, not four (README.md), and this is the one whose tail
// repeats worst.
var ungated = []workloadDef{
	{"serve_doh_hot", "POST /dns-query over 2 keep-alive connections, listed names only, no publishes: hit ratio near 1, net/http dominates, so only a transport change should move it", runServeDoH},
}

// The end-to-end metrics. Every workload reports every one (the contract
// compares each metric on each workload), so the names are generic and the
// workload decides what an operation is:
//
//	             op_ms                 qps                 tail_ms
//	sweep_*      wall of one sweep     queries / that wall mean sweep (cold); resume from the journal (warm)
//	serve_*      median round trip     replies per second  p99 round trip
//
// Every timing is divided by a host probe measured either side of it and
// multiplied by that probe's reference constant (host.go): sweeps and set-up
// by the reference probe, a stand-in workload in a process of its own; serve
// numbers by the same statistic of the bare echo segments. A run reports the
// median over repetitions or DNS segments. The raw values are per-layer
// metrics of the traced pass (raw.*) and notes of the untraced one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

const gomaxprocs = 2

// budget is the wall clock one run may use before it gives up; the contract
// allows 180 s.
const budget = 170 * time.Second

var processStart = time.Now()

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the contract's result line (empty: all of them, both passes)")
		seed      = flag.Int64("seed", 42, "world and key-draw seed")
		seconds   = flag.Int("seconds", 23, "measured window per workload, in seconds")
		trace     = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of N untraced runs per workload and print the repeatability table")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for results, traces and scratch files")
		probe     = flag.Bool("refprobe", false, "be the reference probe's process: run it once per line read (what a workload starts beside itself)")
	)
	flag.Parse()
	var err error
	switch {
	case *probe:
		err = serveRefprobe()
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *seconds < 1 || *seconds > 60:
		err = fmt.Errorf("-seconds %d outside 1..60", *seconds)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace %d is neither 0 nor 1", *trace)
	case *selfcheck > 0:
		err = runSelfcheck(*selfcheck, *seed, *seconds, *outDir)
	case *workload == "":
		err = runAll(*seed, *seconds, *outDir)
	default:
		err = runOne(*workload, *seed, *seconds, *trace, *outDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// metricValue is one reported metric: the median of its samples.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N, Q1 and Q3 describe the samples inside this run (reps or
	// segments); absent from the contract's result line.
	N  int     `json:"n,omitempty"`
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

// run is the state of one workload run.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	tr       *tracer // nil on the untraced pass
	ref      *refClient
	outDir   string

	metrics   map[string]metricValue
	attempted int64
	failed    int64
	notes     map[string]float64 // shown on stderr and kept in the record, not gated
	problems  []string           // correctness failures
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what one run leaves in the out directory for runAll and
// runSelfcheck to read: the result plus what the contract line leaves out.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Result   result             `json:"result"`
	Notes    map[string]float64 `json:"notes"`
	Problems []string           `json:"problems,omitempty"`
	WallS    float64            `json:"wall_s"`
}

func runOne(name string, seed int64, seconds, trace int, outDir string) error {
	var wl *workloadDef
	for _, list := range [][]workloadDef{workloads, ungated} {
		for i := range list {
			if list[i].Name == name {
				wl = &list[i]
			}
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ref, err := startRefprobe()
	if err != nil {
		return err
	}
	defer ref.kill() // on the paths that do not reach close
	watchdog := time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %s wall budget\n", name, budget)
		ref.kill()
		os.Exit(1)
	})
	defer watchdog.Stop()

	r := &run{
		workload: name, seed: seed, window: time.Duration(seconds) * time.Second,
		ref: ref, outDir: outDir,
		metrics: map[string]metricValue{}, notes: map[string]float64{},
	}
	want := endToEnd
	if trace == 1 {
		r.tr = newTracer()
		want = perLayer
	}
	if err := wl.run(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := ref.close(); err != nil {
		return err
	}
	r.notes["refprobe_ms"] = median(ref.samples)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	if err := r.tr.write(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
		return err
	}

	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range want {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s was not measured", name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v.Value, Unit: d.Unit}
		v.Unit = d.Unit
		r.metrics[d.Name] = v
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", name)
	}

	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Result: result{res.Correct, res.Attempted, res.Failed, r.metrics},
		Notes:  r.notes, Problems: r.problems, WallS: time.Since(processStart).Seconds()}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(recordPath(outDir, name, trace), data, 0o644); err != nil {
		return err
	}
	r.printHuman(want)

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: outputs incorrect: %s", name, r.problems[0])
	}
	return nil
}

func recordPath(outDir, workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("run-%s-t%d.json", workload, trace))
}

// set stores a metric as the median of its samples; its unit is the one its
// definition names.
func (r *run) set(name string, samples ...float64) {
	v := metricValue{Value: median(samples), N: len(samples)}
	if len(samples) >= 2 {
		v.Q1, v.Q3 = quartiles(samples)
	}
	r.metrics[name] = v
}

// wrong records a correctness failure; the run finishes, reports
// "correct": false and exits non-zero.
func (r *run) wrong(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// scratch makes a fresh directory under the out directory (the benchmark
// writes nowhere else).
func (r *run) scratch(pattern string) (string, error) {
	return os.MkdirTemp(r.outDir, pattern)
}

func (r *run) printHuman(defs []metricDef) {
	fmt.Fprintf(os.Stderr, "%s seed=%d window=%s correct=%t attempted=%d failed=%d wall=%.1fs\n",
		r.workload, r.seed, r.window, len(r.problems) == 0, r.attempted, r.failed, time.Since(processStart).Seconds())
	for _, d := range defs {
		v := r.metrics[d.Name]
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-6s n=%d\n", d.Name, v.Value, d.Unit, v.N)
	}
	notes := make([]string, 0, len(r.notes))
	for k := range r.notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(os.Stderr, "  (%s = %.4f)\n", k, r.notes[k])
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "  INCORRECT: %s\n", p)
	}
}
