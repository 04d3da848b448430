// Command perfbench is the repository benchmark: four workloads over the
// resynthesis flows, the provers and the resynd service. Each run takes
// its inputs from --seed, measures for --seconds, checks every output, and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The flow workloads run the circuit registry's own circuits (so their
// figures line up with table_output.txt) and derive the guard smoke-check
// and spot-check stimulus from the seed; serve-mix generates its netlists
// and its resubmission pattern from the seed.
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 the run traces the layers through obs spans and prints
// the per-layer ones. A failed check exits 1 after printing the result.
//
// Run it from the repository root with perfbench/run.sh, which builds
// this module against the checkout:
//
//	bash perfbench/run.sh --workload tableI-exact --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// problems lists every failed output check by name.
	problems []string
	endToEnd metrics
	perLayer metrics
	// unmapped lists traced span names no layer claims.
	unmapped []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options are the run parameters every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// rows are the registry circuits a flow workload runs.
	rows []string
	// workDir is a private scratch directory inside the checkout.
	workDir string
}

// workload is one named input set with the reason it was chosen.
type workload struct {
	name string
	why  string
	rows []string
	run  func(ctx context.Context, opt options) (*outcome, error)
}

// workloads is the benchmark's workload table (BENCHMARK.json mirrors the
// names and reasons).
var workloads = []workload{
	{
		name: "tableI-exact",
		why: "The paper's Table I experiment on rows whose product machine fits the exact BDD engine: algebraic, " +
			"mapper and reach/BDD do the work; aig, sweep, sat and serve are bypassed",
		// planet is left out: its algebraic eliminate alone takes about
		// 20 s per remap, and its three flows about 47 s.
		rows: []string{"ex2", "ex6", "bbtas", "bbara", "s27", "s208", "s298", "s344", "s386", "s420", "s510", "s820"},
		run:  runTableIExact,
	},
	{
		name: "large-aig-resyn",
		why: "The resyn flow on the AIG substrate over s1238 and s5378: retime and mapper dominate (the AIG-native " +
			"retiming target); algebraic.optimize, reach, sweep and serve are bypassed",
		// s9234 is left out: its one resyn flow takes about 32 s.
		rows: []string{"s1238", "s5378"},
		run:  runLargeAIG,
	},
	{
		name: "prove-sweep",
		why: "Verification only, past the 32-latch exact-engine wall: sweep and sat do nearly all the work, and a " +
			"fixed per-obligation deadline turns the prover's tail into a measured share",
		// s1196, s1238 and s5378 are left out: their flows would triple
		// the set-up, which every run repeats three times.
		rows: []string{"s382", "s400", "s526", "s641"},
		run:  runProveSweep,
	},
	{
		name: "serve-mix",
		why: "An in-process resynd with its WAL on, driven open-loop at a light rate, then past saturation: " +
			"HTTP, the content-addressed cache, WAL group commit and the worker pool, cache reads beside fresh compute",
		run: runServeMix,
	},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 0, "input seed (0 keeps the program's default stimulus seeds)")
		seconds = flag.Int("seconds", 10, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1 (workloads: %v)\n", workloadNames())
		return 2
	}
	dir, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workDir: dir, rows: w.rows}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	out, err := w.run(context.Background(), opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	m := out.endToEnd
	if opt.trace {
		m = out.perLayer
	} else {
		m.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	for _, p := range out.problems {
		fmt.Printf("FAILED %s\n", p)
	}
	for _, name := range out.unmapped {
		fmt.Printf("unmapped span %s\n", name)
	}
	printHuman(m)
	if !opt.trace && !slices.Equal(sortedKeys(m), endToEndMetrics) {
		fmt.Fprintf(os.Stderr, "perfbench: %s reported metrics %v, want %v\n", w.name, sortedKeys(m), endToEndMetrics)
		return 1
	}
	fmt.Printf("error_rate %.4f (%d failed of %d attempted)\n", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		return 1
	}
	return 0
}

// endToEndMetrics are the metrics every untraced run reports, whatever
// the workload (BENCHMARK.json lists them with their bounds).
var endToEndMetrics = []string{"area_geomean", "clk_geomean", "peak_rss_mb", "ref_max_qps", "ref_wall_s", "regs_total", "setup_s"}

func sortedKeys(m metrics) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func printHuman(m metrics) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("metric %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// peakRSSMB is the process's peak resident set (getrusage max RSS, which
// Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// geomean is the geometric mean of the positive values of xs (a flow
// output with no logic left has clock period 0, which a geometric mean
// cannot take).
func geomean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// timeSetup runs setup at least setupReps times and until setupMin has
// passed, and returns the last result with the median set-up time, so work
// moved into set-up shows in setup_s.
func timeSetup[T any](setup func() (T, error)) (T, float64, error) {
	var (
		v     T
		err   error
		times []float64
	)
	start := time.Now()
	for len(times) < setupReps || time.Since(start) < setupMin {
		t0 := time.Now()
		v, err = setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return v, median(times), nil
}
