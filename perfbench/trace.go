package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Span names the benchmark itself opens around its calls into each
// layer's public entry point.
const (
	spanRunFlow     = "flows.RunFlow"       // one evaluation flow
	spanVerify      = "flows.VerifyVerdict" // one equivalence obligation
	spanSubmit      = "serve.POST_jobs"     // POST /jobs round trip
	spanJobWait     = "serve.Job_wait"      // Server.Job change-channel wait
	spanFetchResult = "serve.GET_result"    // GET /jobs/{id}/result
)

// spanLayer maps every span name the four workloads emit, the program's
// own and the benchmark's, to the internal/ package it times. Names not
// in the table (and not under a prefix rule in layerOf) count as
// unattributed; TestEverySpanIsMapped fails on any.
var spanLayer = map[string]string{
	spanRunFlow:             "flows",
	"flow.script_delay":     "flows",
	"flow.retime_combopt":   "flows",
	"flow.resynthesis":      "flows",
	"remap":                 "flows",
	"apply_unreachable_dcs": "flows",

	// VerifyVerdict's own time is seqverify's exact product-machine
	// traversal, which opens no span of its own.
	spanVerify: "seqverify",

	"algebraic.optimize": "algebraic",
	"sweep":              "algebraic", // algebraic.optimize's network sweep step
	"simplify":           "algebraic",
	"eliminate":          "algebraic",
	"kernels":            "algebraic",
	"decompose":          "algebraic",

	"mapper.map_delay": "mapper",

	"retime.min_period": "retime",
	"retime.min_area":   "retime",

	"core.resynthesize":         "core",
	"core.resynthesize_iterate": "core",
	"fanout_free":               "core",
	"stem_retime":               "core",
	"path_retime":               "core",
	"sta":                       "core", // internal/timing, called from core
	"dcret_simplify":            "core", // internal/dontcare, called from core

	"aig.restructure": "aig",

	"reach.analyze": "reach",

	"sweep.registers":  "sweep",
	"sweep.prove":      "sweep",
	"sweep.dc_extract": "sweep",

	"bitsim.random_equivalent": "bitsim",
	"bitsim.sync_sequence":     "bitsim",

	spanSubmit:      "serve",
	spanJobWait:     "serve",
	spanFetchResult: "serve",
}

// layers lists every layer in report order.
var layers = []string{"flows", "algebraic", "mapper", "retime", "core", "aig",
	"reach", "seqverify", "sweep", "bitsim", "guard", "serve"}

// layerOf maps a span name to its layer; "" means unmapped. guard.Tx
// names its span "guard." + the pass name, for every pass.
func layerOf(name string) string {
	if l, ok := spanLayer[name]; ok {
		return l
	}
	if strings.HasPrefix(name, "guard.") {
		return "guard"
	}
	return ""
}

// profile accumulates per-layer self time, span counts and counters over
// any number of traced tracers, one per traced pass (serve-mix: one per
// traced request).
type profile struct {
	self     map[string]time.Duration // layer -> self time
	spanSelf map[string]time.Duration // span name -> self time
	spanDur  map[string]time.Duration // span name -> total duration
	calls    map[string]int64         // span name -> spans seen
	counters map[string]int64
	// guardSmoke is the time of simulation spans run directly under a
	// guard transaction: the smoke checks.
	guardSmoke time.Duration
	unmapped   map[string]bool
	traced     time.Duration // wall time the folded tracers cover
	passes     int           // tracers folded
}

func newProfile() *profile {
	return &profile{
		self:     map[string]time.Duration{},
		spanSelf: map[string]time.Duration{},
		spanDur:  map[string]time.Duration{},
		calls:    map[string]int64{},
		counters: map[string]int64{},
		unmapped: map[string]bool{},
	}
}

// fold adds a finished tracer covering wall seconds of traced work. A
// span's self time is its duration minus its children's durations; spans
// are opened one at a time per tracer, so children never overlap.
func (p *profile) fold(tr *obs.Tracer, wall time.Duration) {
	p.traced += wall
	p.passes++
	for k, v := range tr.Counters() {
		p.counters[k] += v
	}
	var walk func(s *obs.Span, parent string)
	walk = func(s *obs.Span, parent string) {
		d := s.Dur()
		self := d
		for _, c := range s.Children() {
			self -= c.Dur()
			walk(c, s.Name)
		}
		if self < 0 {
			self = 0
		}
		p.calls[s.Name]++
		p.spanDur[s.Name] += d
		p.spanSelf[s.Name] += self
		if strings.HasPrefix(parent, "guard.") && layerOf(s.Name) == "bitsim" {
			p.guardSmoke += d
		}
		if l := layerOf(s.Name); l != "" {
			p.self[l] += self
		} else {
			p.unmapped[s.Name] = true
		}
	}
	for _, c := range tr.Root().Children() {
		walk(c, "")
	}
}

// attributed sums the self time of every mapped layer.
func (p *profile) attributed() time.Duration {
	var sum time.Duration
	for _, l := range layers {
		sum += p.self[l]
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics renders the per-layer metrics named in BENCHMARK.json. A
// layer the workload bypasses reports 0. Times and counts are per traced
// pass, so a faster program that fits more passes into the window does
// not report more work; ratios and rates are over all passes.
func (p *profile) layerMetrics() metrics {
	per := float64(max(p.passes, 1))
	sec := func(d time.Duration) float64 { return d.Seconds() / per }
	c := func(name string) float64 { return float64(p.counters[name]) / per }
	calls := func(name string) float64 { return float64(p.calls[name]) / per }
	guardPasses := 0.0
	for name := range p.calls {
		if layerOf(name) == "guard" {
			guardPasses += calls(name)
		}
	}
	m := metrics{}
	for _, l := range layers {
		m.set(l+".self_s", sec(p.self[l]), "s")
	}
	m.set("flows.calls", calls(spanRunFlow), "count")
	m.set("mapper.calls", calls("mapper.map_delay"), "count")
	m.set("mapper.cuts", c("mapper_cuts"), "count")
	m.set("mapper.candidates", c("mapper_candidates"), "count")
	m.set("algebraic.eliminate_s", sec(p.spanSelf["eliminate"]), "s")
	m.set("algebraic.nodes_eliminated", c("algebraic_nodes_eliminated"), "count")
	m.set("retime.min_period_s", sec(p.spanDur["retime.min_period"]), "s")
	m.set("retime.moves_applied", c("retime_moves_applied"), "count")
	m.set("retime.failed", c("retime_failed"), "count")
	m.set("core.stems_split", c("stems_split"), "count")
	m.set("core.dcret_pairs", c("dcret_pairs"), "count")
	m.set("core.declined", c("resyn_declined"), "count")
	m.set("aig.nodes", c("aig_nodes"), "count")
	m.set("aig.rewrite_gain", c("aig_rewrite_gain"), "count")
	m.set("aig.strash_hits", c("aig_strash_hits"), "count")
	m.set("reach.bdd_nodes", c("bdd_nodes"), "count")
	m.set("reach.bdd_cache_hit_ratio", ratio(c("bdd_cache_hits"), c("bdd_cache_hits")+c("bdd_cache_misses")), "ratio")
	m.set("reach.iterations", c("reach_iterations"), "count")
	m.set("seqverify.calls", calls(spanVerify), "count")
	m.set("sweep.calls", calls("sweep.prove")+calls("sweep.registers"), "count")
	m.set("sweep.classes_proved", c("sweep_classes_proved"), "count")
	m.set("sweep.cex_refinements", c("sweep_cex_refinements"), "count")
	m.set("sat.calls", c("sat_calls"), "count")
	m.set("sat.conflicts", c("sat_conflicts"), "count")
	m.set("sat.learned_clauses", c("sat_learned_clauses"), "count")
	// The solver runs only inside sweep spans, so sweep's self time is the
	// solver's busy time.
	m.set("sat.conflicts_per_s", ratio(c("sat_conflicts"), sec(p.self["sweep"])), "1/s")
	m.set("bitsim.vectors", c("bitsim_vectors"), "count")
	m.set("bitsim.vectors_per_s", ratio(c("bitsim_vectors"), sec(p.self["bitsim"])), "1/s")
	m.set("guard.passes", guardPasses, "count")
	m.set("guard.rollback_ratio", ratio(c("pass_rolled_back"), guardPasses), "ratio")
	m.set("guard.smoke_s", sec(p.guardSmoke), "s")
	m.set("trace.unattributed_share", ratio(sec(p.traced-p.attributed()), sec(p.traced)), "ratio")
	// Figures the workloads fill in themselves; 0 where a workload does not
	// exercise them.
	for name, unit := range selfReported {
		m.set(name, 0, unit)
	}
	return m
}

// selfReported are the per-layer figures, with their units, that the
// workloads measure themselves rather than read from spans and counters.
var selfReported = map[string]string{
	"bench.gen_s": "s", "bench.kernel_ms": "ms", "seqverify.proved_share": "ratio", "sweep.undecided": "count",
	"trace.overhead_ratio": "ratio", "loadgen.late_ms_max": "ms", "serve.submit_ms_p99": "ms",
	"serve.queue_wait_ms_p99": "ms", "serve.run_ms_p50": "ms", "serve.run_ms_p99": "ms",
	"serve.cache_hit_ratio": "ratio", "serve.latency_p50_ms": "ms", "serve.latency_p99_ms": "ms",
	"serve.hit_latency_p99_ms": "ms", "serve.shed": "count", "serve.wal_bytes": "bytes",
	"flows.recompute_differs": "count",
}

// unmappedNames lists the span names no layer claims, sorted.
func (p *profile) unmappedNames() []string {
	var names []string
	for name := range p.unmapped {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
