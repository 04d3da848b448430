package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/kiss"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serve-mix traffic. The mix is taken from BENCH_serve.json, the
// repository's recorded resynd run: it cycled bbtas, s27 and ex6 and hit
// the cache on 9 requests in 10 before its restart
// (cache_hit_rate_pre_restart 0.9). So one request in freshEvery is fresh,
// and each fresh netlist is a new seed-generated circuit of one of those
// three shapes (freshBody): a fresh job costs about what a first request
// of that run cost, but the cache has never seen it.
//
// The two rungs are placed around the rate at which the server saturates
// on this mix: 370 to 800 requests/s on a 2-vCPU Xeon, depending on the
// load other tenants put on the machine (raw sustained rates, medians of
// ten seeds).
// The nominal rung offers a third to a sixth of that for nominalShare of
// the window, so its latencies are those of a lightly loaded server, and
// its p99 rests on ten requests beyond it. The overload rung then offers
// over ten times that for overloadShare of the window: a burst of several
// seconds of work, which queues and is served at the server's capacity.
// The burst is short next to the time it takes to serve, so the drain
// after it (ref_wall_s) is mostly service time.
const (
	freshEvery    = 10
	nominalRate   = 128  // requests per second
	overloadRate  = 8192 // requests per second
	nominalShare  = 0.7
	overloadShare = 0.04
	// A resubmission repeats a netlist first submitted at least repeatAge
	// earlier, so it reads a finished result from the cache rather than
	// joining a running job.
	repeatAge = time.Second
	// drainTimeout bounds the wait for the last jobs after the schedule.
	drainTimeout = 60 * time.Second
	// hitChecks is how many distinct cache-hit results are recomputed and
	// compared after the run.
	hitChecks = 12
)

// Rung indices.
const (
	nominalRung = iota
	overloadRung
)

// request is one scheduled submission.
type request struct {
	rung   int
	at     time.Duration // due time, from the start of the schedule
	body   []byte
	fresh  bool // first submission of its netlist
	traced bool
}

// record is what the generator observed for one request.
type record struct {
	due      time.Time // when it was scheduled to be sent
	sent     time.Time // when a connection picked it up
	done     time.Time // job terminal
	end      time.Time // result fetched
	cached   bool
	err      error
	info     serve.JobInfo
	result   []byte
	tr       *obs.Tracer
	submitMs float64
}

// serveRig is one set-up server with its listener.
type serveRig struct {
	srv     *serve.Server
	httpSrv *http.Server
	url     string
	served  chan error
}

func startRig(dataDir string) (*serveRig, error) {
	// The queue holds the whole overload rung's backlog: a shed request
	// would be a failed operation, and the rung is there to be late, not
	// to fail.
	srv, err := serve.New(serve.Config{Workers: runtime.NumCPU(), DataDir: dataDir, Queue: 4096})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	rig := &serveRig{srv: srv, httpSrv: &http.Server{Handler: srv.Handler(false)}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { rig.served <- rig.httpSrv.Serve(ln) }()
	return rig, nil
}

// stop shuts the listener and the server down and waits for both.
func (r *serveRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := r.httpSrv.Shutdown(ctx)
	if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, r.srv.Shutdown(ctx))
}

// schedule lays out the open-loop request stream for the window: the
// nominal rung, then the overload rung. Every freshEvery-th request (and
// any request with nothing old enough to repeat) carries a new
// seed-generated netlist; the others resubmit a uniformly chosen netlist
// first submitted at least repeatAge earlier.
func schedule(seed int64, window time.Duration, trace bool) ([]request, error) {
	rng := rand.New(rand.NewSource(deriveSeed(1, seed)))
	type sent struct {
		at   time.Duration
		body []byte
	}
	var (
		reqs   []request
		fresh  []sent
		offset time.Duration
	)
	rungs := []struct {
		rate  float64
		share float64
	}{nominalRung: {nominalRate, nominalShare}, overloadRung: {overloadRate, overloadShare}}
	for rung, rg := range rungs {
		rungLen := time.Duration(rg.share * float64(window))
		n := int(rg.rate * rungLen.Seconds())
		for i := 0; i < n; i++ {
			r := request{rung: rung, at: offset + time.Duration(float64(i)/rg.rate*float64(time.Second))}
			old := 0 // fresh[:old] are old enough to repeat
			for old < len(fresh) && fresh[old].at <= r.at-repeatAge {
				old++
			}
			if len(reqs)%freshEvery == 0 || old == 0 {
				b, err := freshBody(len(fresh), rng.Int63())
				if err != nil {
					return nil, err
				}
				fresh = append(fresh, sent{r.at, b})
				r.body, r.fresh = b, true
			} else {
				r.body = fresh[rng.Intn(old)].body
			}
			r.traced = trace && len(reqs)%2 == 1
			reqs = append(reqs, r)
		}
		offset += rungLen
	}
	return reqs, nil
}

// freshBody renders the idx-th fresh request: a resyn job with verify on
// a new circuit shaped like bbtas (a 6-state FSM, 2 inputs, 2 outputs),
// s27 (4 inputs, 1 output, 3 flip-flops, 10 gates) or ex6 (an 8-state FSM,
// 5 inputs, 8 outputs) in turn, generated from seed.
func freshBody(idx int, seed int64) ([]byte, error) {
	name := "mix" + strconv.Itoa(idx)
	var (
		n   *network.Network
		err error
	)
	switch idx % 3 {
	case 0:
		n, err = bench.RandomFSM(name, 6, 2, 2, seed).Synthesize(kiss.Binary)
	case 1:
		n = bench.Synthetic(bench.Profile{Name: name, PIs: 4, POs: 1, FFs: 3, Gates: 10, Seed: seed})
		err = n.Check()
	default:
		n, err = bench.RandomFSM(name, 8, 5, 8, seed).Synthesize(kiss.Binary)
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", name, err)
	}
	var text strings.Builder
	if err := blif.Write(&text, n); err != nil {
		return nil, err
	}
	return json.Marshal(serve.Request{Netlist: text.String(), Flow: "resyn", Verify: true})
}

// runServeMix drives an in-process resynd open-loop through the nominal
// and the overload rung, and checks every fresh job and a sample of the
// cache hits.
func runServeMix(ctx context.Context, opt options) (*outcome, error) {
	out := &outcome{endToEnd: metrics{}}
	// Set up as timeSetup does (request stream plus a booted server on a
	// fresh WAL directory); only the last set-up serves, the earlier ones
	// are stopped untimed.
	var (
		reqs              []request
		rig               *serveRig
		dataDir           string
		genSecs, setupSec []float64
	)
	start := time.Now()
	for i := 0; i < setupReps || time.Since(start) < setupMin; i++ {
		if rig != nil {
			if err := rig.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		reqs, err = schedule(opt.seed, opt.seconds, opt.trace)
		if err != nil {
			return nil, err
		}
		genSecs = append(genSecs, time.Since(t0).Seconds())
		dataDir = fmt.Sprintf("%s/wal%d", opt.workDir, i)
		rig, err = startRig(dataDir)
		if err != nil {
			return nil, err
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}
	out.endToEnd.set("setup_s", median(setupSec), "s")

	tp := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 30 * time.Second}
	// The reference kernel runs before and after the schedule, never
	// during it, so it takes no capacity from the server.
	sp := &speed{}
	sp.after(opt.seconds / 2)
	recs, lateMax, err := drive(ctx, client, rig, reqs)
	sp.after(opt.seconds / 2)
	sp.report()
	metricsText, merr := fetch(client, rig.url+"/metrics")
	if serr := rig.stop(); err == nil {
		err = serr
	}
	if err == nil {
		err = merr
	}
	if err != nil {
		return nil, err
	}
	hits := summarize(out, opt, reqs, recs, lateMax, string(metricsText), sp.scale())
	if err := checkReplayedHits(client, dataDir, hits, out); err != nil {
		return nil, err
	}
	differs := recomputeHits(ctx, hits)
	if opt.trace {
		out.perLayer.set("bench.kernel_ms", sp.medianMs(), "ms")
		out.perLayer.set("bench.gen_s", median(genSecs), "s")
		out.perLayer.set("flows.recompute_differs", float64(differs), "count")
	}
	return out, nil
}

// drive sends every request on schedule from NumCPU senders sharing the
// client's keep-alive connections, and waits for each job through
// Server.Job's change channel. It returns the per-request records and how
// late the generator ran.
func drive(ctx context.Context, client *http.Client, rig *serveRig, reqs []request) ([]record, time.Duration, error) {
	recs := make([]record, len(reqs))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now().Add(20 * time.Millisecond)

	work := make(chan int)
	var senders, waiters sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range work {
				rec := &recs[i]
				rec.sent = time.Now()
				if reqs[i].traced {
					rec.tr = obs.New()
				}
				job, ok := submit(client, rig, reqs[i].body, rec)
				if !ok {
					continue
				}
				waiters.Add(1)
				go func(i int) {
					defer waiters.Done()
					awaitJob(ctx, client, rig, job, &recs[i])
				}(i)
			}
		}()
	}
	var lateMax time.Duration
	for i := range reqs {
		d := start.Add(reqs[i].at)
		recs[i].due = d
		time.Sleep(time.Until(d))
		work <- i
		if late := time.Since(d); late > lateMax {
			lateMax = late
		}
	}
	close(work)
	senders.Wait()

	drained := make(chan struct{})
	go func() { waiters.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		cancel()
		<-drained
		return nil, 0, fmt.Errorf("jobs still running %v after the schedule ended", drainTimeout)
	}
	return recs, lateMax, nil
}

// submit POSTs one request and resolves its job; false means the request
// ended here (shed or failed), recorded in rec.
func submit(client *http.Client, rig *serveRig, body []byte, rec *record) (*serve.Job, bool) {
	sp := rec.tr.Begin(spanSubmit)
	t0 := time.Now()
	resp, err := client.Post(rig.url+"/jobs", "application/json", bytes.NewReader(body))
	if err == nil {
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			err = json.NewDecoder(resp.Body).Decode(&rec.info)
		case http.StatusServiceUnavailable:
			err = errors.New("shed (503)")
		default:
			msg, _ := io.ReadAll(resp.Body)
			err = fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
	}
	rec.submitMs = float64(time.Since(t0)) / float64(time.Millisecond)
	sp.End()
	if err != nil {
		rec.err = err
		return nil, false
	}
	rec.cached = rec.info.Cached
	job, ok := rig.srv.Job(rec.info.ID)
	if !ok {
		rec.err = fmt.Errorf("job %s vanished after submission", rec.info.ID)
		return nil, false
	}
	return job, true
}

// awaitJob blocks on the job's change channel until it is terminal, then
// records the completion and fetches the result text.
func awaitJob(ctx context.Context, client *http.Client, rig *serveRig, job *serve.Job, rec *record) {
	sp := rec.tr.Begin(spanJobWait)
	for {
		_, state, changed := job.EventsSince(math.MaxInt)
		if state == serve.StateDone || state == serve.StateFailed {
			break
		}
		select {
		case <-changed:
		case <-ctx.Done():
			sp.End()
			rec.err = ctx.Err()
			return
		}
	}
	rec.done = time.Now()
	sp.End()
	rec.info = job.Info()
	if rec.info.State != serve.StateDone {
		rec.err = fmt.Errorf("job %s failed: %s", rec.info.ID, rec.info.Error)
		return
	}
	sp = rec.tr.Begin(spanFetchResult)
	rec.result, rec.err = fetch(client, rig.url+"/jobs/"+rec.info.ID+"/result")
	rec.end = time.Now()
	sp.End()
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, err
}

// promValue reads an unlabelled sample from a Prometheus text dump.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// hit is a cache-hit answer: the request and the result text served.
type hit struct {
	id     string
	body   []byte
	result []byte
}

// summarize checks every output and turns the records into metrics, with
// the bounded times rescaled to the reference speed by scale. It returns
// the first cache hit of each job, for checkReplayedHits.
func summarize(out *outcome, opt options, reqs []request, recs []record, lateMax time.Duration, metricsText string, scale float64) []hit {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	freshID := map[string]bool{}
	for i, r := range recs {
		if r.err == nil && reqs[i].fresh && !r.cached {
			freshID[r.info.ID] = true
		}
	}
	var (
		results                     []*serve.JobResult
		hits                        []hit
		hitSeen                     = map[string]bool{}
		proofs, hitCount, completed int
		submitMs, queueMs, runMs    []float64
		nominalLat, hitLat          []float64
		tracedLat, untrLat          []float64
		overloadStart, overloadDone time.Time
		lastDue, lastDone           time.Time
		overloadServed              int
		prof                        = newProfile()
	)
	for i, r := range recs {
		rung := reqs[i].rung
		out.attempted++
		if r.due.After(lastDue) {
			lastDue = r.due
		}
		if rung == overloadRung && (overloadStart.IsZero() || r.due.Before(overloadStart)) {
			overloadStart = r.due
		}
		if r.err != nil {
			out.fail("request %d: %v", i, r.err)
			continue
		}
		completed++
		submitMs = append(submitMs, r.submitMs)
		if r.done.After(lastDone) {
			lastDone = r.done
		}
		lat := ms(r.done.Sub(r.due))
		if rung == overloadRung {
			overloadServed++
			if r.done.After(overloadDone) {
				overloadDone = r.done
			}
		} else {
			nominalLat = append(nominalLat, lat)
			if reqs[i].traced {
				tracedLat = append(tracedLat, lat)
			} else {
				untrLat = append(untrLat, lat)
			}
		}
		switch {
		case r.cached:
			hitCount++
			if !freshID[r.info.ID] {
				out.fail("request %d: cache hit on %s with no fresh submission", i, r.info.ID)
			} else if !hitSeen[r.info.ID] {
				hitSeen[r.info.ID] = true
				hits = append(hits, hit{r.info.ID, reqs[i].body, r.result})
			}
			if rung == nominalRung {
				hitLat = append(hitLat, lat)
			}
		case !reqs[i].fresh:
			out.fail("request %d: resubmission of %s missed the cache", i, r.info.ID)
		default:
			res := r.info.Result
			if res == nil || res.Verify == "skipped" {
				out.fail("fresh job %s: not verified", r.info.ID)
				continue
			}
			if proved(res.Verify) {
				proofs++
			}
			results = append(results, res)
			queueMs = append(queueMs, ms(r.info.Started.Sub(r.info.Created)))
			runMs = append(runMs, ms(r.info.Finished.Sub(r.info.Started)))
		}
		if r.tr != nil {
			// From pickup, not due time: the generator's own lateness is
			// reported as loadgen.late_ms_max, not as unattributed time.
			prof.fold(r.tr, r.end.Sub(r.sent))
		}
	}
	// The overload rung's requests arrive faster than the server completes
	// them, so they complete at its capacity: maxQPS is their number over
	// the time from the rung's first due time to its last completion, and
	// drain is how long the server took to catch up once arrivals stopped.
	maxQPS := ratio(float64(overloadServed), overloadDone.Sub(overloadStart).Seconds())
	drain := lastDone.Sub(lastDue)
	fmt.Printf("requests %d fresh %d hits %d late_ms_max %.3f\n", len(recs), len(results), hitCount, ms(lateMax))
	fmt.Printf("overload rung: %d requests offered at %d/s, served at %.1f/s, drained %.3f s after the last was due (raw)\n",
		overloadServed, overloadRate, maxQPS, drain.Seconds())
	if maxQPS >= 0.9*overloadRate {
		fmt.Printf("warning: the overload rung did not saturate the server; ref_max_qps reflects the offered rate\n")
	}
	provedShare := ratio(float64(proofs), float64(len(results)))
	hitP99 := quantile(hitLat, 0.99)
	latP50, latP99 := quantile(nominalLat, 0.5), quantile(nominalLat, 0.99)
	fmt.Printf("proved_share %.4f (%d of %d fresh jobs)\n", provedShare, proofs, len(results))
	fmt.Printf("hit_latency_p99_ms %.3f (%d cache hits at %d/s)\n", hitP99, len(hitLat), nominalRate)
	fmt.Printf("latency_p50_ms %.3f latency_p99_ms %.3f (%d requests at %d/s)\n", latP50, latP99, len(nominalLat), nominalRate)

	if opt.trace {
		m := prof.layerMetrics()
		m.set("serve.submit_ms_p99", quantile(submitMs, 0.99), "ms")
		m.set("serve.queue_wait_ms_p99", quantile(queueMs, 0.99), "ms")
		m.set("serve.run_ms_p50", quantile(runMs, 0.5), "ms")
		m.set("serve.run_ms_p99", quantile(runMs, 0.99), "ms")
		m.set("serve.cache_hit_ratio", ratio(float64(hitCount), float64(completed)), "ratio")
		m.set("serve.shed", promValue(metricsText, "resynd_jobs_shed_total"), "count")
		m.set("serve.wal_bytes", promValue(metricsText, "resynd_wal_bytes"), "bytes")
		m.set("loadgen.late_ms_max", ms(lateMax), "ms")
		m.set("trace.overhead_ratio", ratio(median(tracedLat), median(untrLat)), "ratio")
		m.set("serve.latency_p50_ms", latP50, "ms")
		m.set("serve.latency_p99_ms", latP99, "ms")
		m.set("serve.hit_latency_p99_ms", hitP99, "ms")
		m.set("seqverify.proved_share", provedShare, "ratio")
		out.perLayer = m
		out.unmapped = prof.unmappedNames()
		return hits
	}
	m := out.endToEnd
	m.set("ref_wall_s", drain.Seconds()*scale, "s")
	m.set("ref_max_qps", maxQPS/scale, "1/s")
	var clks, areas []float64
	q := quality{}
	for _, r := range results {
		clks, areas = append(clks, r.Clk), append(areas, r.Area)
		q.regs += r.Regs
	}
	q.clk, q.area = geomean(clks), geomean(areas)
	q.report(m)
	return hits
}

// checkReplayedHits boots a second server from the run's WAL after the
// first has stopped, and resubmits every distinct cache-hit request: each
// must be answered from the replayed cache, with the text served during
// the run byte for byte. It runs outside the timed phase.
func checkReplayedHits(client *http.Client, dataDir string, hits []hit, out *outcome) error {
	rig, err := startRig(dataDir)
	if err != nil {
		return err
	}
	for _, h := range hits {
		var rec record
		if _, ok := submit(client, rig, h.body, &rec); !ok {
			out.fail("hit %s after replay: %v", h.id, rec.err)
			continue
		}
		text, err := fetch(client, rig.url+"/jobs/"+h.id+"/result")
		switch {
		case !rec.cached || rec.info.ID != h.id:
			out.fail("hit %s after replay: answered by job %s, cached %v", h.id, rec.info.ID, rec.cached)
		case err != nil:
			out.fail("hit %s after replay: %v", h.id, err)
		case !bytes.Equal(text, h.result):
			out.fail("hit %s after replay: result differs from the one served during the run", h.id)
		}
	}
	fmt.Printf("replayed the WAL and resubmitted %d distinct cache-hit requests\n", len(hits))
	return rig.stop()
}

// recomputeHits recomputes up to hitChecks of the cache-hit results,
// spread evenly over the run, with flows.RunFlow under the server's
// configuration, and counts those whose text differs from the served one.
// A difference is reported, not failed: the resyn flow does not give the
// same netlist on every run of one input (on some s27-shaped inputs it
// gives one of three, with different clk and area), so the comparison
// tests the flows' determinism rather than the cache, which
// checkReplayedHits checks.
func recomputeHits(ctx context.Context, hits []hit) int {
	lib := genlib.Lib2()
	step := max(1, len(hits)/hitChecks)
	checked, differs := 0, 0
	for i := 0; i < len(hits) && checked < hitChecks; i += step {
		h := hits[i]
		checked++
		var req serve.Request
		if err := json.Unmarshal(h.body, &req); err != nil {
			panic(err) // the benchmark marshalled it
		}
		text, err := recompute(ctx, req, lib)
		if err != nil || text != string(h.result) {
			differs++
			fmt.Printf("recomputed %s differs from the served result (err %v)\n", h.id, err)
		}
	}
	fmt.Printf("recomputed %d of %d distinct cache-hit results, %d differ\n", checked, len(hits), differs)
	return differs
}

// recompute runs a request's flow as the server does and renders the
// output netlist.
func recompute(ctx context.Context, req serve.Request, lib *genlib.Library) (string, error) {
	src, err := blif.ParseString(req.Netlist)
	if err != nil {
		return "", err
	}
	res, err := flows.RunFlow(ctx, req.Flow, src, lib, flows.Config{Substrate: flows.SubstrateSOP})
	if err != nil {
		return "", err
	}
	var text strings.Builder
	err = blif.Write(&text, res.Net)
	return text.String(), err
}
