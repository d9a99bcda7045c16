package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/loadgen"
	"filealloc/internal/metrics"
	"filealloc/internal/protocol"
	"filealloc/internal/topology"
)

// The serve workload: loadgen.Run against agent.NewServeCluster, 8 nodes,
// closed loop (the load-generator workers fire each tick's batch and wait
// for all of it before the controller ticks), phases steady → shift →
// burst → crash with node 1 killed, several request streams per pass,
// each on a fresh cluster. pass_s is the pass's loadgen.Run calls,
// step_* are ServeCluster.Tick calls (heartbeats, drift check, re-plan),
// op_* are ServeCluster.Fire calls including retries and fallback. These
// are wall times, not the model latencies the loadgen report carries.

const serveNodes = 8

// serveSpec is the repository's canonical load script,
// loadgen.DefaultSpec, widened to serveNodes: its phases in order, their
// tick counts in proportion (exact when the scale has the script's 40
// ticks), its rate ratios (burst 2.25×, crash 1.5× the steady rate)
// scaled so the steady rate is the scale's serveRPS, and its kill list.
func serveSpec(sc scale, seed int64) loadgen.Spec {
	spec := loadgen.DefaultSpec()
	base := 0
	for _, p := range spec.Phases {
		base += p.Ticks
	}
	k := float64(sc.serveRPS) / spec.Phases[0].RPS
	phases := make([]loadgen.Phase, len(spec.Phases))
	left := sc.serveTicks
	for i, p := range spec.Phases {
		p.Ticks = p.Ticks * sc.serveTicks / base
		if i == len(phases)-1 {
			p.Ticks = left
		}
		left -= p.Ticks
		p.RPS *= k
		if p.Weights != nil {
			p.Weights = widenSkew(p.Weights, serveNodes)
		}
		phases[i] = p
	}
	spec.Name, spec.Seed, spec.Nodes, spec.Phases = "perfbench-serve", seed, serveNodes, phases
	return spec
}

// widenSkew spreads per-origin weights over n nodes: the hot origins
// (weight above the uniform share) keep their weights, and the rest of
// the mass is split evenly over the other nodes. DefaultSpec's
// {0.4, 0.3, 0.1, 0.1, 0.1} becomes {0.4, 0.3, 0.05 × 6} on 8 nodes, so
// node 1, which the crash phase kills, stays the second-busiest origin.
func widenSkew(w []float64, n int) []float64 {
	out := make([]float64, n)
	hot, rest := 0, 0.0
	for i, x := range w {
		rest += x
		if x > 1/float64(len(w)) {
			out[i] = x
			hot++
			rest -= x
		}
	}
	for i := range out {
		if out[i] == 0 {
			out[i] = rest / float64(n-hot)
		}
	}
	return out
}

// specRequests is how many requests the spec fires: each tick's rate
// rounded, at least one (none of the phases ramps).
func specRequests(spec loadgen.Spec) int {
	n := 0
	for _, p := range spec.Phases {
		n += p.Ticks * max(1, int(math.Round(p.RPS)))
	}
	return n
}

// serveMu gives every node 2.2× the peak per-node rate, as fapload does,
// so capacity exceeds demand even with a node down.
func serveMu(spec loadgen.Spec) []float64 {
	peak := 0.0
	for _, p := range spec.Phases {
		peak = math.Max(peak, p.RPS)
	}
	mu := make([]float64, spec.Nodes)
	for i := range mu {
		mu[i] = 2.2 * peak / float64(spec.Nodes)
	}
	return mu
}

// serveK is the cost model's delay-vs-communication factor.
const serveK = 1

// serveInitRates is the demand the initial plan assumes: the steady
// rate spread evenly over the nodes.
func serveInitRates(spec loadgen.Spec) []float64 {
	rates := make([]float64, spec.Nodes)
	for i := range rates {
		rates[i] = spec.Phases[0].RPS / float64(spec.Nodes)
	}
	return rates
}

func newServeCluster(ctx context.Context, spec loadgen.Spec, reg *metrics.Registry) (*agent.ServeCluster, error) {
	return agent.NewServeCluster(ctx, agent.ServeClusterConfig{
		N:              spec.Nodes,
		Mu:             serveMu(spec),
		K:              serveK,
		InitRates:      serveInitRates(spec),
		RequestTimeout: 2 * time.Second,
		Retries:        2,
		DownAfter:      2,
		Seed:           spec.Seed,
		Registry:       reg,
	})
}

// fireRec is one timed ServeCluster.Fire.
type fireRec struct {
	id         uint64
	start, end time.Time
	out        loadgen.Outcome
}

// tickRec is one timed ServeCluster.Tick.
type tickRec struct {
	start, end time.Time
	info       loadgen.TickInfo
}

// timedTarget times every call the load generator makes into the
// cluster. Fire runs on several workers at once and claims its record
// slot atomically; Tick runs between batches only.
type timedTarget struct {
	*agent.ServeCluster
	fires []fireRec
	next  atomic.Int64
	ticks []tickRec
}

func (t *timedTarget) Fire(ctx context.Context, req loadgen.Request) loadgen.Outcome {
	start := time.Now()
	out := t.ServeCluster.Fire(ctx, req)
	end := time.Now()
	if i := t.next.Add(1) - 1; i < int64(len(t.fires)) {
		t.fires[i] = fireRec{id: req.ID, start: start, end: end, out: out}
	}
	return out
}

func (t *timedTarget) Tick(ctx context.Context, now float64, p99Micros int64) (loadgen.TickInfo, error) {
	start := time.Now()
	info, err := t.ServeCluster.Tick(ctx, now, p99Micros)
	t.ticks = append(t.ticks, tickRec{start: start, end: time.Now(), info: info})
	return info, err
}

// servePass is what one loadgen.Run measured.
type servePass struct {
	start  time.Time
	wall   time.Duration
	fires  []fireRec
	ticks  []tickRec
	report *loadgen.Report
	digest [32]byte
}

// fireMicros and tickMillis are the pass's operation and step samples.
func (p servePass) fireMicros() []float64 {
	xs := make([]float64, len(p.fires))
	for i, f := range p.fires {
		xs[i] = micros(f.end.Sub(f.start))
	}
	return xs
}

func (p servePass) tickMillis() []float64 {
	xs := make([]float64, len(p.ticks))
	for i, t := range p.ticks {
		xs[i] = millis(t.end.Sub(t.start))
	}
	return xs
}

// runServePass drives the load script against sc and checks the run:
// every request served, the spec's request count fired, and every
// accepted plan certified.
func runServePass(ctx context.Context, b *bench, spec loadgen.Spec, sc *agent.ServeCluster, reg *metrics.Registry) (servePass, error) {
	want := specRequests(spec)
	tt := &timedTarget{ServeCluster: sc, fires: make([]fireRec, want)}
	var p servePass
	p.start = time.Now()
	rep, err := loadgen.Run(ctx, loadgen.Config{Spec: spec, Target: tt, Workers: maxLoadWorkers(), Registry: reg})
	p.wall = time.Since(p.start)
	if cerr := sc.Close(); cerr != nil {
		b.ops(1)
		b.fail(1, "closing the serving cluster: %v", cerr)
	}
	if err != nil {
		return p, fmt.Errorf("load run: %w", err)
	}
	p.report = rep
	p.fires = tt.fires[:min(int(tt.next.Load()), want)]
	p.ticks = tt.ticks

	b.ops(int64(want))
	if got := int(tt.next.Load()); got != want || rep.Totals.Requests != want {
		b.fail(int64(max(1, abs(want-got))), "fired %d requests (report: %d), the spec has %d", got, rep.Totals.Requests, want)
	}
	bad := int64(0)
	for _, f := range p.fires {
		if !f.out.OK {
			bad++
		}
	}
	if bad > 0 {
		b.fail(bad, "%d requests not served", bad)
	}
	b.ops(int64(len(p.ticks)))
	for i, t := range p.ticks {
		if t.info.Replanned && !t.info.Certified {
			b.fail(1, "tick %d accepted an uncertified plan", i+1)
		}
	}
	if rep.Totals.Replans != rep.Totals.CertifiedReplans {
		b.fail(1, "report: %d replans, %d certified", rep.Totals.Replans, rep.Totals.CertifiedReplans)
	}
	j, err := rep.JSON()
	if err != nil {
		return p, err
	}
	p.digest = sha256.Sum256(j)
	return p, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// serveSpecs are one pass's load scripts: serveStreams runs, each with
// its own request stream. Whether a stream's re-plans fall back to cold
// solves depends on its draws, so a pass pools several streams to keep
// that share, and with it the tick tail, steady from seed to seed.
func serveSpecs(sc scale, seed int64) ([]loadgen.Spec, error) {
	specs := make([]loadgen.Spec, sc.serveStreams)
	for k := range specs {
		specs[k] = serveSpec(sc, seed*int64(sc.serveStreams)+int64(k))
		if err := specs[k].Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// serveRound is one pass: every spec run on a fresh cluster.
type serveRound struct {
	runs   []servePass
	setups []float64
	wall   time.Duration
	digest [32]byte
}

// runServeSpecs runs each spec against a new cluster reporting into reg.
func runServeSpecs(ctx context.Context, b *bench, specs []loadgen.Spec, reg *metrics.Registry) (serveRound, error) {
	var r serveRound
	h := sha256.New()
	for _, spec := range specs {
		t0 := time.Now()
		sc, err := newServeCluster(ctx, spec, reg)
		if err != nil {
			return r, err
		}
		r.setups = append(r.setups, seconds(time.Since(t0)))
		p, err := runServePass(ctx, b, spec, sc, reg)
		if err != nil {
			return r, err
		}
		r.runs = append(r.runs, p)
		r.wall += p.wall
		h.Write(p.digest[:])
	}
	copy(r.digest[:], h.Sum(nil))
	return r, nil
}

func (r serveRound) fireMicros() []float64 {
	var xs []float64
	for _, p := range r.runs {
		xs = append(xs, p.fireMicros()...)
	}
	return xs
}

func (r serveRound) tickMillis() []float64 {
	var xs []float64
	for _, p := range r.runs {
		xs = append(xs, p.tickMillis()...)
	}
	return xs
}

func runServe(ctx context.Context, b *bench) error {
	specs, err := serveSpecs(b.scale, b.seed)
	if err != nil {
		return err
	}
	if b.tracing {
		return traceServe(ctx, b, specs)
	}
	var setups, walls, okPerSecond []float64
	ticks, fires := timings{q: 0.99}, timings{q: 0.995}
	// Setting up takes under a millisecond; repeat it for a steady median.
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		sc, err := newServeCluster(ctx, specs[0], metrics.New())
		if err != nil {
			return err
		}
		setups = append(setups, seconds(time.Since(t0)))
		if err := sc.Close(); err != nil {
			return err
		}
	}
	var digest [32]byte
	replans := 0
	start := time.Now()
	for pass := 0; b.more(pass, start); pass++ {
		endPass := b.startPass()
		r, err := runServeSpecs(ctx, b, specs, metrics.New())
		endPass()
		if err != nil {
			return err
		}
		setups = append(setups, r.setups...)
		walls = append(walls, seconds(r.wall))
		ticks.add(r.tickMillis())
		fires.add(r.fireMicros())
		ok, cold := 0, 0
		for _, p := range r.runs {
			ok += p.report.Totals.Requests - p.report.Totals.Errors
			replans += p.report.Totals.Replans
			for _, t := range p.ticks {
				if t.info.Replanned && t.info.FellBack {
					cold++
				}
			}
		}
		okPerSecond = append(okPerSecond, float64(ok)/r.wall.Seconds())
		b.notes["cold_fallback_replans_per_pass"] = cold
		checkSameSeed(b, pass, &digest, r.digest, "loadgen reports")
	}
	b.setE2E("setup_s", median(setups), len(setups))
	b.setE2E("pass_s", median(walls), len(walls))
	b.setE2E("step_p50_ms", ticks.p50(), ticks.n)
	b.setE2E("step_p99_ms", ticks.tail(), ticks.n)
	b.setE2E("op_p50_us", fires.p50(), fires.n)
	b.setE2E("op_p99.5_us", fires.tail(), fires.n)
	b.notes["requests_per_s"] = median(okPerSecond)
	b.notes["replans_per_pass"] = float64(replans) / float64(len(walls))
	b.notes["pass_s.samples"] = walls
	return nil
}

// traceServe runs one untraced and one traced pass, then reads the
// client's counters, replays the pass's re-plans through the re-solver,
// and probes the JSON codec and the memory transport with the run's
// message shapes.
func traceServe(ctx context.Context, b *bench, specs []loadgen.Spec) error {
	tr := b.tr
	plain, err := runServeSpecs(ctx, b, specs, metrics.New())
	if err != nil {
		return err
	}

	reg := metrics.New()
	root := tr.begin("bench.pass", 0, -1)
	mem := startMem()
	r, err := runServeSpecs(ctx, b, specs, reg)
	fires := r.fireMicros()
	mem.stop(b, float64(len(fires)))
	tr.end(root)
	if err != nil {
		return err
	}
	if r.digest != plain.digest {
		b.fail(1, "traced loadgen reports differ from the untraced ones at the same seed")
	}
	var firing, ticking time.Duration
	var nticks int
	for k, p := range r.runs {
		f, t := p.spans(tr, root, int64(k))
		firing, ticking, nticks = firing+f, ticking+t, nticks+len(p.ticks)
	}
	b.overhead(seconds(plain.wall), seconds(r.wall), median(plain.fireMicros()), median(fires))
	b.setLayer("loadgen.fire_share", ratio(float64(firing), float64(r.wall)), nticks)
	b.setLayer("loadgen.tick_share", ratio(float64(ticking), float64(r.wall)), nticks)

	requests := float64(len(fires))
	b.setLayer("transport.client.retries_per_req", ratio(float64(counterSum(reg, "fap_client_retries_total", nil)), requests), len(fires))
	for _, c := range []string{"deadline_misses", "admission_rejects", "unmatched_replies", "node_down"} {
		b.setLayer("transport.client."+c, float64(counterSum(reg, "fap_client_"+c+"_total", nil)), len(r.runs))
	}
	var fallbacks, degraded float64
	var replans, rejected, coldFallbacks, iters float64
	for _, p := range r.runs {
		for _, f := range p.fires {
			if f.out.Fallback {
				fallbacks++
			}
			if f.out.Degraded {
				degraded++
			}
		}
		for _, t := range p.ticks {
			switch {
			case t.info.Replanned:
				replans++
				iters += float64(t.info.SolveIterations)
				if t.info.FellBack {
					coldFallbacks++
				}
			case t.info.Rejected:
				rejected++
			}
		}
	}
	b.setLayer("agent.fallback_frac", ratio(fallbacks, requests), len(fires))
	b.setLayer("agent.degraded_frac", ratio(degraded, requests), len(fires))
	b.setLayer("agent.replans", replans, nticks)
	b.setLayer("agent.replans_rejected", rejected, nticks)
	b.setLayer("agent.cold_fallbacks", coldFallbacks, nticks)
	b.setLayer("agent.solve_iters_per_replan", ratio(iters, replans), int(replans))
	if err := probeReplan(ctx, b, specs[0], r.runs); err != nil {
		return err
	}

	last := r.runs[len(r.runs)-1]
	if len(last.fires) == 0 {
		return fmt.Errorf("the traced pass fired no requests")
	}
	lf := last.fires[len(last.fires)-1]
	req := protocol.Access{ID: lf.id, Origin: serveNodes - 1, T: float64(len(last.ticks)), Epoch: lf.out.Epoch}
	reply := protocol.AccessReply{ID: lf.id, Node: lf.out.Node, Origin: req.Origin, Epoch: lf.out.Epoch,
		LatencyMicros: lf.out.LatencyMicros, Degraded: lf.out.Degraded}
	if err := probeJSONCodec(b, req, reply); err != nil {
		return err
	}
	payload, err := protocol.EncodeAccess(req)
	if err != nil {
		return err
	}
	if err := probeTransport(ctx, b, len(payload), 0); err != nil {
		return err
	}
	tr.report(b)
	return nil
}

// spans lays the run's timed calls down as spans — loadgen.Run, one
// loadgen.fire_batch per tick holding its agent.Fire calls, and the
// agent.Tick calls — and returns the time spent firing batches and
// ticking.
func (p servePass) spans(tr *tracer, root int, id int64) (firing, ticking time.Duration) {
	run := tr.add("loadgen.Run", id, root, p.start, p.start.Add(p.wall))
	// Request ids carry their tick in the bits above 20.
	type window struct{ start, end time.Time }
	batches := map[uint64]*window{}
	for _, f := range p.fires {
		tick := f.id >> 20
		w, ok := batches[tick]
		if !ok {
			batches[tick] = &window{f.start, f.end}
			continue
		}
		if f.start.Before(w.start) {
			w.start = f.start
		}
		if f.end.After(w.end) {
			w.end = f.end
		}
	}
	batchSpan := map[uint64]int{}
	for tick := uint64(0); tick < uint64(len(p.ticks)); tick++ {
		if w, ok := batches[tick]; ok {
			batchSpan[tick] = tr.add("loadgen.fire_batch", int64(tick), run, w.start, w.end)
			firing += w.end.Sub(w.start)
		}
		t := p.ticks[tick]
		tr.add("agent.Tick", int64(tick), run, t.start, t.end)
		ticking += t.end.Sub(t.start)
	}
	for _, f := range p.fires {
		tr.add("agent.Fire", int64(f.id), batchSpan[f.id>>20], f.start, f.end)
	}
	return firing, ticking
}

// probeReplan replays, run by run, every re-plan the controller attempted
// through agent.ReplanConfig.Replan, built as NewServeCluster builds it:
// the initial plan from the cluster's InitRates, then each attempt on the
// tick's sensed rates and alive view, warm-started from the last accepted
// plan. Every replayed solve must take the controller's path (iteration
// count and cold fallback for accepted plans, no certified plan for
// rejected ones); a mismatch is a failed operation, since the probe would
// then time other work than the run did.
func probeReplan(ctx context.Context, b *bench, spec loadgen.Spec, runs []servePass) error {
	g, err := topology.Ring(spec.Nodes, 1)
	if err != nil {
		return err
	}
	mu := serveMu(spec)
	rc := agent.ReplanConfig{
		N:  spec.Nodes,
		Mu: mu,
		BuildModel: func(rates []float64, lambda float64, support []int) (*costmodel.SingleFile, error) {
			access, err := topology.AccessCosts(g, rates, topology.RoundTrip)
			if err != nil {
				return nil, err
			}
			acc := make([]float64, len(support))
			svc := make([]float64, len(support))
			for j, i := range support {
				acc[j], svc[j] = access[i], mu[i]
			}
			return costmodel.NewSingleFile(acc, svc, lambda, serveK)
		},
	}
	all := make([]bool, spec.Nodes)
	for i := range all {
		all[i] = true
	}
	var times []float64
	var probeIters, runIters float64
	sp := b.tr.begin("probe.agent.replan", 0, -1)
	defer b.tr.end(sp)
	for k, p := range runs {
		// Zero prev: the capacity-proportional start NewController uses.
		first, err := rc.Replan(ctx, serveInitRates(spec), make([]float64, spec.Nodes), all)
		if err != nil {
			return fmt.Errorf("replan probe, initial plan: %w", err)
		}
		prev := first.X
		for i, t := range p.ticks {
			if !t.info.Replanned && !t.info.Rejected {
				continue
			}
			t0 := time.Now()
			res, err := rc.Replan(ctx, t.info.Rates, prev, t.info.Alive)
			times = append(times, micros(time.Since(t0)))
			b.ops(1)
			if !t.info.Replanned {
				if err == nil && res.Certified {
					b.fail(1, "replan probe, run %d tick %d: certified a plan the controller rejected", k, i+1)
				}
				continue
			}
			if err != nil || !res.Certified || res.Iterations != t.info.SolveIterations || res.FellBack != t.info.FellBack {
				b.fail(1, "replan probe, run %d tick %d: err=%v certified=%v iterations %d (run %d) fell back %v (run %v)",
					k, i+1, err, res.Certified, res.Iterations, t.info.SolveIterations, res.FellBack, t.info.FellBack)
				continue
			}
			probeIters += float64(res.Iterations)
			runIters += float64(t.info.SolveIterations)
			prev = res.X
		}
	}
	// The mean, not the median: a third or more of the re-plans stop at
	// the solver's iteration cap and take tens of milliseconds, the rest
	// about one, so the median jumps between the two groups.
	b.setLayer("agent.replan_us", mean(times), len(times))
	b.notes["agent.replan_us_p50"] = median(times)
	b.setLayer("agent.probe_iters_ratio", ratio(probeIters, runIters), len(times))
	return nil
}
