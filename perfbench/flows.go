package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/aig"
	"repro/internal/bitsim"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/seqverify"
	"repro/internal/sim"
)

// Each run repeats its set-up at least setupReps times and for at least
// setupMin, and reports the median as setup_s: cheap set-ups get enough
// repetitions for a steady median, costly ones stop at setupReps.
const (
	setupReps = 3
	setupMin  = 2 * time.Second
)

// sopFlows are the three Table I flows, in table order.
var sopFlows = []string{"script", "retime", "resyn"}

// proveDeadline bounds each prove-sweep obligation, in reference time (see
// speed): a run sets the wall-clock deadline to proveDeadline over the
// speed scale sampled before its first pass, so a proof gets the same work
// budget however fast the machine runs. A proof still running at the
// deadline counts as undecided.
const proveDeadline = 2 * time.Second

// smokeSeed derives the guard smoke-check stimulus seed from the run seed
// (run seed 0 keeps the program default).
func smokeSeed(run int64) int64 { return deriveSeed(sim.DefaultSpotCheck.Smoke.Seed, run) }

// output is one flow result with the source it must be equivalent to.
type output struct {
	circuit string
	flow    string
	src     *network.Network
	res     *flows.Result
}

func (o output) String() string { return o.circuit + "/" + o.flow }

// quality is the circuit-quality triple of a list of flow outputs.
type quality struct {
	clk, area float64 // geometric means
	regs      int
}

func qualityOf(outs []output) quality {
	var clks, areas []float64
	q := quality{}
	for _, o := range outs {
		clks = append(clks, o.res.Clk)
		areas = append(areas, o.res.Area)
		q.regs += o.res.Regs
	}
	q.clk, q.area = geomean(clks), geomean(areas)
	return q
}

func (q quality) report(m metrics) {
	m.set("clk_geomean", q.clk, "lib2-delay")
	m.set("area_geomean", q.area, "lib2-area")
	m.set("regs_total", float64(q.regs), "count")
}

// runFlow calls flows.RunFlow inside a benchmark span.
func runFlow(ctx context.Context, tr *obs.Tracer, c circuit, flow string, lib *genlib.Library, cfg flows.Config) (*flows.Result, error) {
	sp := tr.Begin(spanRunFlow)
	defer sp.End()
	cfg.Tracer = tr
	return flows.RunFlow(ctx, flow, c.net, lib, cfg)
}

// verify calls flows.VerifyVerdict inside a benchmark span.
func verify(ctx context.Context, tr *obs.Tracer, o output, cfg flows.Config) (string, error) {
	sp := tr.Begin(spanVerify)
	defer sp.End()
	cfg.Tracer = tr
	return flows.VerifyVerdict(ctx, o.src, o.res, cfg)
}

// proved reports whether a verdict is a proof rather than a spot check.
func proved(verdict string) bool {
	return verdict == string(seqverify.VerdictExact) || verdict == string(seqverify.VerdictInduction)
}

// genTimer times the circuit generators across set-up repetitions.
type genTimer struct{ secs []float64 }

func (g *genTimer) build(names []string) ([]circuit, error) {
	t0 := time.Now()
	c, err := buildAll(names)
	g.secs = append(g.secs, time.Since(t0).Seconds())
	return c, err
}

// pass is one timed pass over a workload's job list.
type pass struct {
	jobs    []time.Duration // per job, in job-list order
	quality quality
	speed   *speed // the run's reference-kernel samples
}

// job times one job of the pass. A forced collection runs first, untimed,
// so every job starts from the same heap: peak_rss_mb then reflects the
// largest job rather than when the collector last ran. The reference
// kernel runs after the job, untimed.
func (p *pass) job(f func()) {
	runtime.GC()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	p.jobs = append(p.jobs, d)
	p.speed.after(d)
}

func (p *pass) wall() time.Duration {
	var sum time.Duration
	for _, d := range p.jobs {
		sum += d
	}
	return sum
}

// passLoop runs passes until the window is spent (at least one; in a
// traced run alternately untraced and traced, at least one of each) and
// reports the end-to-end or per-layer metrics. The raw wall time sums each
// job's median time over the untraced passes, so one slow pass of one job
// does not move it; ref_wall_s is that, rescaled to the reference speed.
// Every pass of a run must produce the same circuit quality.
func passLoop(opt options, out *outcome, sp *speed, runPass func(p *pass, tr *obs.Tracer, first bool)) {
	var (
		untraced           []*pass
		walls, tracedWalls []float64
		firstQ             quality
		prof               = newProfile()
	)
	// The kernel's share of half a window runs before the first pass, as
	// serve-mix does before its schedule, so a run of one long job is
	// sampled on both sides of it, not only after.
	sp.after(opt.seconds / 2)
	start := time.Now()
	for i := 0; ; i++ {
		var tr *obs.Tracer
		if opt.trace && i%2 == 1 {
			tr = obs.New()
		}
		p := &pass{speed: sp}
		runPass(p, tr, i == 0)
		if tr != nil {
			prof.fold(tr, p.wall())
			tracedWalls = append(tracedWalls, p.wall().Seconds())
		} else {
			untraced = append(untraced, p)
			walls = append(walls, p.wall().Seconds())
		}
		if i == 0 {
			firstQ = p.quality
		} else if p.quality != firstQ {
			out.fail("pass %d quality %+v differs from pass 0 %+v", i, p.quality, firstQ)
		}
		if time.Since(start) >= opt.seconds && (!opt.trace || len(tracedWalls) > 0) {
			break
		}
	}
	fmt.Printf("passes %d untraced_walls_s %.3f traced_walls_s %.3f\n", len(walls)+len(tracedWalls), walls, tracedWalls)
	sp.report()
	if opt.trace {
		out.perLayer = prof.layerMetrics()
		out.perLayer.set("trace.overhead_ratio", median(tracedWalls)/median(walls), "ratio")
		out.perLayer.set("bench.kernel_ms", sp.medianMs(), "ms")
		out.unmapped = prof.unmappedNames()
		return
	}
	wall := 0.0
	for j := range untraced[0].jobs {
		var ds []float64
		for _, p := range untraced {
			ds = append(ds, p.jobs[j].Seconds())
		}
		wall += median(ds)
	}
	ref := wall * sp.scale()
	fmt.Printf("wall_s %.6f\n", wall)
	m := out.endToEnd
	m.set("ref_wall_s", ref, "s")
	// Every workload reports every end-to-end metric. A flow workload runs
	// its jobs back to back, so its rate is jobs over busy time: ref_wall_s
	// again, inverted, not an independent measurement.
	m.set("ref_max_qps", float64(len(untraced[0].jobs))/ref, "1/s")
	firstQ.report(m)
}

// finish records the set-up figures and the proved share once the timed
// phase is over.
func finish(out *outcome, opt options, setupS float64, gen *genTimer, proofs, obligations int) {
	share := ratio(float64(proofs), float64(obligations))
	if obligations > 0 {
		fmt.Printf("proved_share %.4f (%d of %d obligations)\n", share, proofs, obligations)
	}
	if opt.trace {
		out.perLayer.set("bench.gen_s", median(gen.secs), "s")
		out.perLayer.set("seqverify.proved_share", share, "ratio")
		return
	}
	out.endToEnd.set("setup_s", setupS, "s")
}

// runTableIExact runs the three SOP flows over the exact-engine Table I
// rows and verifies every output with sweeping off; every verdict is
// recorded.
func runTableIExact(ctx context.Context, opt options) (*outcome, error) {
	out := &outcome{endToEnd: metrics{}}
	var (
		gen genTimer
		sp  speed
	)
	circuits, setupS, err := timeSetup(func() ([]circuit, error) { return gen.build(opt.rows) })
	if err != nil {
		return nil, err
	}
	lib := genlib.Lib2()
	cfg := flows.Config{SmokeSeed: smokeSeed(opt.seed)}
	var proofs, obligations int
	passLoop(opt, out, &sp, func(p *pass, tr *obs.Tracer, first bool) {
		var outs []output
		for _, c := range circuits {
			for _, flow := range sopFlows {
				out.attempted++
				p.job(func() {
					res, err := runFlow(ctx, tr, c, flow, lib, cfg)
					if err != nil {
						out.fail("%s/%s: flow: %v", c.name, flow, err)
						return
					}
					o := output{circuit: c.name, flow: flow, src: c.net, res: res}
					verdict, err := verify(ctx, tr, o, cfg)
					if err != nil {
						out.fail("%s: verify: %v", o, err)
						return
					}
					if first {
						fmt.Printf("verdict %s %s\n", o, verdict)
					}
					obligations++
					if proved(verdict) {
						proofs++
					}
					outs = append(outs, o)
				})
			}
		}
		p.quality = qualityOf(outs)
	})
	finish(out, opt, setupS, &gen, proofs, obligations)
	return out, nil
}

// runLargeAIG runs the resyn flow on the AIG substrate over the large
// profiles, then spot-checks every output by random simulation.
func runLargeAIG(ctx context.Context, opt options) (*outcome, error) {
	out := &outcome{endToEnd: metrics{}}
	var (
		gen genTimer
		sp  speed
	)
	circuits, setupS, err := timeSetup(func() ([]circuit, error) {
		// The rewriter's NPN library is built once per process; build it
		// here so no pass pays for it.
		aig.InitLibraries()
		return gen.build(opt.rows)
	})
	if err != nil {
		return nil, err
	}
	lib := genlib.Lib2()
	cfg := flows.Config{Substrate: flows.SubstrateAIG, SmokeSeed: smokeSeed(opt.seed)}
	var last []output
	passLoop(opt, out, &sp, func(p *pass, tr *obs.Tracer, _ bool) {
		var outs []output
		for _, c := range circuits {
			out.attempted++
			p.job(func() {
				res, err := runFlow(ctx, tr, c, "resyn", lib, cfg)
				if err != nil {
					out.fail("%s/resyn: flow: %v", c.name, err)
					return
				}
				outs = append(outs, output{circuit: c.name, flow: "resyn", src: c.net, res: res})
			})
		}
		p.quality = qualityOf(outs)
		last = outs
	})
	// The spot check runs after the timed phase, on the last pass's
	// outputs (every pass produced the same quality).
	sc := sim.DefaultSpotCheck.Verify
	for _, o := range last {
		if err := bitsim.RandomEquivalent(o.src, o.res.Net, o.res.PrefixK, sc.Cycles, deriveSeed(sc.Seed, opt.seed), bitsim.Options{}); err != nil {
			out.fail("%s: spot check: %v", o, err)
		}
	}
	fmt.Printf("spot-checked %d outputs\n", len(last))
	finish(out, opt, setupS, &gen, 0, 0)
	return out, nil
}

// runProveSweep proves every (source, output, prefix k) obligation of the
// rows past the exact-engine wall by SAT sweeping, each under a fixed
// deadline. Set-up generates the rows and runs the three SOP flows on
// them; only the proofs are timed.
func runProveSweep(ctx context.Context, opt options) (*outcome, error) {
	out := &outcome{endToEnd: metrics{}}
	lib := genlib.Lib2()
	var (
		gen genTimer
		sp  speed
	)
	obligations, setupS, err := timeSetup(func() ([]output, error) {
		circuits, err := gen.build(opt.rows)
		if err != nil {
			return nil, err
		}
		var outs []output
		for _, c := range circuits {
			for _, flow := range sopFlows {
				res, err := runFlow(ctx, nil, c, flow, lib, flows.Config{SmokeSeed: smokeSeed(opt.seed)})
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", c.name, flow, err)
				}
				outs = append(outs, output{circuit: c.name, flow: flow, src: c.net, res: res})
			}
		}
		return outs, nil
	})
	if err != nil {
		return nil, err
	}
	cfg := flows.Config{Sweep: true}
	var (
		deadline        time.Duration
		proofs, decided int
		undecided       = map[string]string{} // obligation -> why
	)
	passLoop(opt, out, &sp, func(p *pass, tr *obs.Tracer, first bool) {
		if first {
			deadline = time.Duration(float64(proveDeadline) / sp.scale())
			fmt.Printf("per-obligation deadline %v (%v in reference time)\n", deadline.Round(time.Millisecond), proveDeadline)
		}
		// The quality triple is that of the set-up's flow outputs, which
		// the proofs take as input; the timed phase produces no circuits.
		p.quality = qualityOf(obligations)
		for _, o := range obligations {
			out.attempted++
			decided++
			p.job(func() {
				dctx, cancel := context.WithTimeout(ctx, deadline)
				defer cancel()
				verdict, err := verify(dctx, tr, o, cfg)
				switch {
				case err == nil && proved(verdict):
					proofs++
				case err == nil:
					// Induction inconclusive: only the spot check vouches.
					undecided[o.String()] = verdict
				case errors.Is(err, guard.ErrBudget), errors.Is(err, context.DeadlineExceeded):
					// The deadline: undecided, never an error.
					undecided[o.String()] = fmt.Sprintf("deadline %v", deadline.Round(time.Millisecond))
				default:
					out.fail("%s: verify: %v", o, err)
				}
			})
		}
	})
	for _, o := range obligations {
		if why, ok := undecided[o.String()]; ok {
			fmt.Printf("undecided %s (%s)\n", o, why)
		}
	}
	finish(out, opt, setupS, &gen, proofs, decided)
	if opt.trace {
		out.perLayer.set("sweep.undecided", float64(len(undecided)), "count")
	}
	return out, nil
}
