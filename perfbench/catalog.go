package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"filealloc/internal/catalog"
	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/metrics"
	"filealloc/internal/sweep"
	"filealloc/internal/topology"
)

// The catalog workload: catalog.New → SolveCold → Sense → epochs ×
// (Drift, ReSolve) on the default 8-node ring, 10% of objects drifting
// per epoch. pass_s is SolveCold, step_* are ReSolve epochs, op_* are
// single-object cold solves with the catalog's model and solver settings.

// catalogDrift is the share of objects whose demand is re-drawn per epoch.
const catalogDrift = 0.1

// sumTol bounds |Σx − 1| per object: Theorem 1's conservation, held to
// the 1e-12 the core property tests pin.
const sumTol = 1e-12

// catalogConfig is the catalog every run builds. The model and solver
// settings are set here rather than left to catalog.New's defaults, so
// the single-object probes rebuild each object from the very values the
// catalog solves it with.
func catalogConfig(sc scale, seed int64) catalog.Config {
	return catalog.Config{
		Objects:       sc.catalogObjects,
		Nodes:         8,
		Mu:            1.5,
		K:             1,
		Lambda:        1,
		DynamicAlpha:  0.5,
		Epsilon:       1e-6,
		KKTTol:        1e-5,
		WarmSteps:     64,
		DriftFraction: catalogDrift,
		Seed:          uint64(seed),
	}
}

// catalogPass is what one pass over a fresh catalog measured.
type catalogPass struct {
	cold, sense    time.Duration
	drift, resolve []time.Duration
	coldStats      catalog.Stats
	resolveStats   catalog.Stats // summed over epochs
	first          catalog.Snapshot
	firstDrift     catalog.Snapshot // after the first Drift (traced runs only)
	digest         [32]byte
}

func runCatalog(ctx context.Context, b *bench) error {
	ctx = sweep.WithWorkers(ctx, maxLoadWorkers())
	cfg := catalogConfig(b.scale, b.seed)
	if b.tracing {
		return traceCatalog(ctx, b, cfg)
	}
	var setups, colds []float64
	steps, ops := timings{q: 0.99}, timings{q: 0.995}
	var digest [32]byte
	var unconverged int
	start := time.Now()
	for pass := 0; b.more(pass, start); pass++ {
		endPass := b.startPass()
		t0 := time.Now()
		cat, err := catalog.New(cfg)
		if err != nil {
			return err
		}
		setups = append(setups, seconds(time.Since(t0)))
		p, err := runCatalogPass(ctx, b, cat, nil, -1)
		if err != nil {
			return err
		}
		colds = append(colds, seconds(p.cold))
		epochs := make([]float64, len(p.resolve))
		for i, d := range p.resolve {
			epochs[i] = millis(d)
		}
		steps.add(epochs)
		checkSameSeed(b, pass, &digest, p.digest, "catalog snapshot")
		// Every pass solves every object, so each pass's tail rests on
		// the whole catalog rather than on a sample's few slow objects.
		times, unconv, err := singleObjectSolves(ctx, b, cfg, p.first)
		if err != nil {
			return err
		}
		ops.add(times)
		unconverged += unconv
		endPass()
	}
	b.setE2E("setup_s", median(setups), len(setups))
	b.setE2E("pass_s", median(colds), len(colds))
	b.setE2E("step_p50_ms", steps.p50(), steps.n)
	b.setE2E("step_p99_ms", steps.tail(), steps.n)
	b.setE2E("op_p50_us", ops.p50(), ops.n)
	b.setE2E("op_p99.5_us", ops.tail(), ops.n)
	objects := float64(cfg.Objects)
	b.notes["cold_objects_per_s"] = objects / median(colds)
	b.notes["pass_s.samples"] = colds
	b.notes["op.unconverged"] = fmt.Sprintf("%d of %d single-object solves stop at the iteration cap", unconverged, ops.n)
	b.notes["resolve_objects_per_s"] = objects / (steps.mean() / 1e3)
	return nil
}

// runCatalogPass fills, senses and re-solves one catalog, checking every
// object after every solve. Spans go to tr (nil: untraced) under parent.
func runCatalogPass(ctx context.Context, b *bench, cat *catalog.Catalog, tr *tracer, parent int) (catalogPass, error) {
	var p catalogPass
	objects := int64(cat.Objects())
	b.ops(objects)
	sp := tr.begin("catalog.SolveCold", 0, parent)
	t0 := time.Now()
	st, err := cat.SolveCold(ctx)
	p.cold = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	p.coldStats = st
	if st.Cold != objects {
		b.fail(objects-st.Cold, "cold pass solved %d of %d objects", st.Cold, objects)
	}
	p.first = cat.Snapshot()
	checkAllocations(b, p.first)

	sp = tr.begin("catalog.Sense", 0, parent)
	t0 = time.Now()
	err = cat.Sense(ctx)
	p.sense = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	for e := 1; e <= b.scale.catalogEpochs; e++ {
		sp = tr.begin("catalog.Drift", int64(e), parent)
		t0 = time.Now()
		_, err := cat.Drift(ctx)
		p.drift = append(p.drift, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return p, err
		}
		if e == 1 && tr != nil {
			p.firstDrift = cat.Snapshot()
		}
		sp = tr.begin("catalog.ReSolve", int64(e), parent)
		t0 = time.Now()
		st, err := cat.ReSolve(ctx)
		p.resolve = append(p.resolve, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return p, err
		}
		b.ops(objects)
		if st.Warm+st.Fallback != st.Drifted {
			b.fail(st.Drifted, "epoch %d: warm %d + fallback %d != drifted %d", e, st.Warm, st.Fallback, st.Drifted)
		}
		if st.Skipped+st.Drifted != objects {
			b.fail(objects, "epoch %d: skipped %d + drifted %d != %d objects", e, st.Skipped, st.Drifted, objects)
		}
		p.resolveStats.Warm += st.Warm
		p.resolveStats.Fallback += st.Fallback
		p.resolveStats.Skipped += st.Skipped
		p.resolveStats.Drifted += st.Drifted
		p.resolveStats.Steps += st.Steps
		snap := cat.Snapshot()
		checkAllocations(b, snap)
		if e == b.scale.catalogEpochs {
			p.digest = snapshotDigest(snap)
		}
	}
	return p, nil
}

// checkAllocations fails every object whose allocation leaves the
// feasible region: some x_i < 0 (or NaN), or |Σx − 1| > sumTol.
func checkAllocations(b *bench, s catalog.Snapshot) {
	bad, first := int64(0), -1
	for id := 0; id < s.Objects; id++ {
		row := s.X[id*s.Nodes : (id+1)*s.Nodes]
		sum, ok := 0.0, true
		for _, x := range row {
			if !(x >= 0) {
				ok = false
			}
			sum += x
		}
		if !ok || !(math.Abs(sum-1) <= sumTol) {
			if first < 0 {
				first = id
			}
			bad++
		}
	}
	if bad > 0 {
		b.fail(bad, "%d objects outside the feasible region at epoch %d (first: object %d, x=%v)",
			bad, s.Epoch, first, s.X[first*s.Nodes:(first+1)*s.Nodes])
	}
}

// snapshotDigest hashes everything a snapshot says about the plan: its
// epoch, allocations and demand, bit for bit.
func snapshotDigest(s catalog.Snapshot) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(s.Epoch))
	h.Write(buf[:])
	for _, xs := range [][]float64{s.X, s.Demand} {
		for _, v := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// checkSameSeed fails the pass when its digest differs from the first
// pass's: every pass of a run uses the same seed, so the outputs must be
// identical.
func checkSameSeed(b *bench, pass int, first *[32]byte, got [32]byte, what string) {
	b.ops(1)
	if pass == 0 {
		*first = got
		return
	}
	if got != *first {
		b.fail(1, "pass %d: %s differs from pass 0 at the same seed", pass, what)
	}
}

// objectProblem is one catalog object rebuilt from a snapshot with the
// catalog's settings: its cost model and cold solver.
type objectProblem struct {
	model *costmodel.SingleFile
	alloc *core.Allocator
}

// problemBuilder rebuilds catalog objects from snapshot demand rows.
type problemBuilder struct {
	cfg  catalog.Config
	pair [][]float64
}

func newProblemBuilder(cfg catalog.Config) (*problemBuilder, error) {
	ring, err := topology.Ring(cfg.Nodes, 1)
	if err != nil {
		return nil, err
	}
	pair, err := topology.PairCosts(ring, topology.RoundTrip)
	if err != nil {
		return nil, err
	}
	return &problemBuilder{cfg: cfg, pair: pair}, nil
}

// accessCosts derives C_i = Σ_j (d_j/Σd)·pair[j][i], summed in the same
// order as the catalog so the rebuilt model is bit-identical. The cost
// model keeps the slice, so each call returns a fresh one.
func (pb *problemBuilder) accessCosts(demand []float64) []float64 {
	var total float64
	for _, d := range demand {
		total += d
	}
	access := make([]float64, len(pb.pair))
	for i := range access {
		var c float64
		for j, d := range demand {
			c += d * pb.pair[j][i]
		}
		access[i] = c / total
	}
	return access
}

// build makes the model and cold solver for one demand row; wrap, when
// non-nil, wraps the model (the costmodel probe counts evaluations).
func (pb *problemBuilder) build(demand []float64, wrap func(*costmodel.SingleFile) core.Objective) (objectProblem, error) {
	m, err := costmodel.NewSingleFile(pb.accessCosts(demand), []float64{pb.cfg.Mu}, pb.cfg.Lambda, pb.cfg.K)
	if err != nil {
		return objectProblem{}, err
	}
	var obj core.Objective = m
	if wrap != nil {
		obj = wrap(m)
	}
	a, err := core.NewAllocator(obj, core.WithDynamicAlpha(pb.cfg.DynamicAlpha), core.WithEpsilon(pb.cfg.Epsilon), core.WithKKTCheck())
	if err != nil {
		return objectProblem{}, err
	}
	return objectProblem{model: m, alloc: a}, nil
}

// sampleIDs spreads n object ids evenly over the catalog (all of them
// when n ≥ objects).
func sampleIDs(objects, n int) []int {
	if n >= objects || n <= 0 {
		n = objects
	}
	ids := make([]int, n)
	for k := range ids {
		ids[k] = k * objects / n
	}
	return ids
}

// opChunk is how many single-object problems are built, then solved, at
// a time, which bounds the memory they hold.
const opChunk = 5000

// singleObjectSolves cold-solves every object of the snapshot one at a
// time from the uniform allocation, exactly as SolveCold does, and
// returns each solve's wall time in µs and how many stopped at the
// iteration cap without converging (SolveCold keeps those too). A solve
// that fails or lands on a different allocation than the catalog's is a
// failed operation: the probe then measures other work than the catalog
// did.
func singleObjectSolves(ctx context.Context, b *bench, cfg catalog.Config, s catalog.Snapshot) ([]float64, int, error) {
	pb, err := newProblemBuilder(cfg)
	if err != nil {
		return nil, 0, err
	}
	scratch := core.NewScratch()
	init := make([]float64, s.Nodes)
	times := make([]float64, 0, s.Objects)
	probs := make([]objectProblem, 0, opChunk)
	unconverged := 0
	b.ops(int64(s.Objects))
	for first := 0; first < s.Objects; first += opChunk {
		last := min(first+opChunk, s.Objects)
		probs = probs[:0]
		for id := first; id < last; id++ {
			prob, err := pb.build(s.Demand[id*s.Nodes:(id+1)*s.Nodes], nil)
			if err != nil {
				return nil, 0, err
			}
			probs = append(probs, prob)
		}
		// Building allocates; collect before timing so the solves, which
		// do not allocate, run without a concurrent collection.
		runtime.GC()
		for id := first; id < last; id++ {
			for j := range init {
				init[j] = 1 / float64(s.Nodes)
			}
			t0 := time.Now()
			res, err := probs[id-first].alloc.RunWithScratch(ctx, init, scratch)
			times = append(times, micros(time.Since(t0)))
			if err != nil || !sameBits(res.X, s.X[id*s.Nodes:(id+1)*s.Nodes]) {
				b.fail(1, "single-object solve of object %d: err=%v, or its plan differs from the catalog's", id, err)
			}
			if !res.Converged {
				unconverged++
			}
		}
	}
	return times, unconverged, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// traceCatalog runs one untraced and one traced pass, then probes sweep,
// core and costmodel underneath the catalog.
func traceCatalog(ctx context.Context, b *bench, cfg catalog.Config) error {
	tr := b.tr
	cat, err := catalog.New(cfg)
	if err != nil {
		return err
	}
	plain, err := runCatalogPass(ctx, b, cat, nil, -1)
	if err != nil {
		return err
	}
	plainOps, _, err := singleObjectSolves(ctx, b, cfg, plain.first)
	if err != nil {
		return err
	}

	reg := metrics.New()
	mctx := sweep.WithMetrics(ctx, reg)
	root := tr.begin("bench.pass", 0, -1)
	sp := tr.begin("catalog.New", 0, root)
	cat, err = catalog.New(cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	mem := startMem()
	p, err := runCatalogPass(mctx, b, cat, tr, root)
	mem.stop(b, float64(cfg.Objects))
	tr.end(root)
	if err != nil {
		return err
	}
	if p.digest != plain.digest {
		b.fail(1, "traced pass snapshot differs from the untraced pass at the same seed")
	}
	tracedOps, _, err := singleObjectSolves(ctx, b, cfg, p.first)
	if err != nil {
		return err
	}
	b.overhead(seconds(plain.cold), seconds(p.cold), median(plainOps), median(tracedOps))

	for _, name := range []string{"SolveCold", "Sense", "Drift", "ReSolve"} {
		b.setLayer("catalog."+name+".s", tr.total("catalog."+name).Seconds(), 1)
	}
	cs, rs := p.coldStats, p.resolveStats
	b.setLayer("catalog.cold.steps_per_object", ratio(float64(cs.Steps), float64(cs.Cold)), int(cs.Cold))
	b.setLayer("catalog.resolve.steps_per_drifted", ratio(float64(rs.Steps), float64(rs.Drifted)), int(rs.Drifted))
	b.setLayer("catalog.resolve.skip_frac", ratio(float64(rs.Skipped), float64(rs.Skipped+rs.Drifted)), int(rs.Skipped+rs.Drifted))
	b.setLayer("catalog.resolve.warm_frac", ratio(float64(rs.Warm), float64(rs.Drifted)), int(rs.Drifted))
	b.setLayer("catalog.resolve.fallback_frac", ratio(float64(rs.Fallback), float64(rs.Drifted)), int(rs.Drifted))
	b.setLayer("sweep.items", float64(counterSum(reg, "fap_sweep_items_total", nil)), 1)

	if err := probeSweep(ctx, b, cfg, p.cold); err != nil {
		return err
	}
	if err := probeCore(ctx, b, cfg, p); err != nil {
		return err
	}
	if err := probeCostmodel(ctx, b, cfg, p.first); err != nil {
		return err
	}
	tr.report(b)
	return nil
}

// probeSweep re-runs the cold fill on one sweep worker; the ratio to the
// traced run's fill time is the worker pool's speedup.
func probeSweep(ctx context.Context, b *bench, cfg catalog.Config, parallel time.Duration) error {
	cat, err := catalog.New(cfg)
	if err != nil {
		return err
	}
	sp := b.tr.begin("probe.sweep.serial_cold", 0, -1)
	t0 := time.Now()
	_, err = cat.SolveCold(sweep.WithWorkers(ctx, 1))
	serial := time.Since(t0)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	b.setLayer("sweep.speedup", ratio(serial.Seconds(), parallel.Seconds()), 1)
	return nil
}

// probeCore times cold solves of every object, warm re-solves of the
// objects the first drift epoch moved, and PlanStepInto, all through
// core's public API on problems rebuilt from the traced pass's
// snapshots. The probe's steps per object must match the catalog's.
func probeCore(ctx context.Context, b *bench, cfg catalog.Config, p catalogPass) error {
	pb, err := newProblemBuilder(cfg)
	if err != nil {
		return err
	}
	s0, s1 := p.first, p.firstDrift
	nodes := s0.Nodes
	scratch := core.NewScratch()
	init := make([]float64, nodes)
	var cold, warm []float64
	var steps, unconverged int64
	sp := b.tr.begin("probe.core.cold", 0, -1)
	for id := 0; id < s0.Objects; id++ {
		prob, err := pb.build(s0.Demand[id*nodes:(id+1)*nodes], nil)
		if err != nil {
			return err
		}
		for j := range init {
			init[j] = 1 / float64(nodes)
		}
		t0 := time.Now()
		res, err := prob.alloc.RunWithScratch(ctx, init, scratch)
		cold = append(cold, micros(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("core probe, object %d: %w", id, err)
		}
		steps += int64(res.Iterations)
		if !res.Converged {
			unconverged++
		}
	}
	b.tr.end(sp)
	b.setLayer("catalog.cold.unconverged", float64(unconverged), s0.Objects)
	probeSteps := ratio(float64(steps), float64(s0.Objects))
	catSteps := ratio(float64(p.coldStats.Steps), float64(p.coldStats.Cold))
	b.setLayer("core.cold_solve_us_p50", quantile(cold, 0.5), len(cold))
	b.setLayer("core.cold_solve_us_p99", quantile(cold, 0.99), len(cold))
	b.setLayer("core.probe_steps_ratio", ratio(probeSteps, catSteps), len(cold))
	b.notes["core.probe_steps_per_object"] = probeSteps
	// The probe rebuilds the catalog's problems from the catalog's own
	// config; if it stops solving them alike, it measures other work.
	b.ops(1)
	if math.Abs(probeSteps/catSteps-1) > probeStepsTol {
		b.fail(1, "core probe takes %.4f steps per object, the catalog %.4f (tolerance %g)", probeSteps, catSteps, probeStepsTol)
	}

	sp = b.tr.begin("probe.core.warm", 0, -1)
	for id := 0; id < s0.Objects; id++ {
		d0, d1 := s0.Demand[id*nodes:(id+1)*nodes], s1.Demand[id*nodes:(id+1)*nodes]
		if sameBits(d0, d1) {
			continue
		}
		prob, err := pb.build(d0, nil)
		if err != nil {
			return err
		}
		model := prob.model
		ws, err := core.NewWarmSolver(prob.alloc, core.WarmConfig{
			MaxSteps: cfg.WarmSteps,
			Certify:  func(x []float64, q float64) error { return model.VerifyKKT(x, q, cfg.KKTTol) },
		})
		if err != nil {
			return err
		}
		if err := model.SetAccessCosts(pb.accessCosts(d1)); err != nil {
			return err
		}
		copy(init, s0.X[id*nodes:(id+1)*nodes])
		t0 := time.Now()
		_, _, err = ws.SolveWarm(ctx, init, scratch)
		warm = append(warm, micros(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("warm probe, object %d: %w", id, err)
		}
	}
	b.tr.end(sp)
	b.setLayer("core.warm_solve_us_p50", quantile(warm, 0.5), len(warm))
	b.setLayer("core.warm_solve_us_p99", quantile(warm, 0.99), len(warm))

	return probePlanStep(b, pb, s0)
}

// probeStepsTol is how far the core probe's steps per object may stray
// from the catalog's before the probe counts as measuring other work.
// The probe rebuilds the same problems bit for bit, so it is tight.
const probeStepsTol = 1e-3

// probePlanStep times core.PlanStepInto from the uniform allocation of
// sampled objects (the first step of every cold solve).
func probePlanStep(b *bench, pb *problemBuilder, s catalog.Snapshot) error {
	nodes := s.Nodes
	ids := sampleIDs(s.Objects, 1000)
	group := make([]int, nodes)
	for i := range group {
		group[i] = i
	}
	x := make([]float64, nodes*len(ids))
	grad := make([]float64, nodes*len(ids))
	for k, id := range ids {
		prob, err := pb.build(s.Demand[id*nodes:(id+1)*nodes], nil)
		if err != nil {
			return err
		}
		xs := x[k*nodes : (k+1)*nodes]
		for j := range xs {
			xs[j] = 1 / float64(nodes)
		}
		if err := prob.model.Gradient(grad[k*nodes:(k+1)*nodes], xs); err != nil {
			return err
		}
	}
	var step core.Step
	const reps = 50
	sp := b.tr.begin("probe.core.plan_step", 0, -1)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for k := range ids {
			if err := core.PlanStepInto(&step, x[k*nodes:(k+1)*nodes], grad[k*nodes:(k+1)*nodes], group, 0.1); err != nil {
				return err
			}
		}
	}
	el := time.Since(t0)
	b.tr.end(sp)
	calls := reps * len(ids)
	b.setLayer("core.plan_step_ns", float64(el.Nanoseconds())/float64(calls), calls)
	return nil
}

// countingObjective forwards to the cost model and counts evaluations.
type countingObjective struct {
	*costmodel.SingleFile
	grads, utils, curvs int64
}

func (c *countingObjective) Utility(x []float64) (float64, error) {
	c.utils++
	return c.SingleFile.Utility(x)
}

func (c *countingObjective) Gradient(grad, x []float64) error {
	c.grads++
	return c.SingleFile.Gradient(grad, x)
}

func (c *countingObjective) SecondDerivative(hess, x []float64) error {
	c.curvs++
	return c.SingleFile.SecondDerivative(hess, x)
}

// probeCostmodel counts cost-model evaluations per solver step, times
// each kind of evaluation, estimates the cost model's share of solve
// time, and times the KKT certificate, on sampled objects.
func probeCostmodel(ctx context.Context, b *bench, cfg catalog.Config, s catalog.Snapshot) error {
	pb, err := newProblemBuilder(cfg)
	if err != nil {
		return err
	}
	nodes := s.Nodes
	ids := sampleIDs(s.Objects, 2000)
	scratch := core.NewScratch()
	init := make([]float64, nodes)
	var grads, utils, curvs, steps int64
	var solve time.Duration
	xs := make([][]float64, len(ids))
	models := make([]*costmodel.SingleFile, len(ids))
	sp := b.tr.begin("probe.costmodel.count", 0, -1)
	for k, id := range ids {
		var counter *countingObjective
		prob, err := pb.build(s.Demand[id*nodes:(id+1)*nodes], func(m *costmodel.SingleFile) core.Objective {
			counter = &countingObjective{SingleFile: m}
			return counter
		})
		if err != nil {
			return err
		}
		for j := range init {
			init[j] = 1 / float64(nodes)
		}
		t0 := time.Now()
		res, err := prob.alloc.RunWithScratch(ctx, init, scratch)
		solve += time.Since(t0)
		if err != nil {
			return fmt.Errorf("costmodel probe, object %d: %w", id, err)
		}
		grads, utils, curvs = grads+counter.grads, utils+counter.utils, curvs+counter.curvs
		steps += int64(res.Iterations)
		xs[k] = append([]float64(nil), res.X...)
		models[k] = prob.model
	}
	b.tr.end(sp)

	const reps = 20
	buf := make([]float64, nodes)
	timeEval := func(name string, eval func(m *costmodel.SingleFile, x []float64) error) (float64, error) {
		sp := b.tr.begin("probe.costmodel."+name, 0, -1)
		defer b.tr.end(sp)
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for k := range models {
				if err := eval(models[k], xs[k]); err != nil {
					return 0, err
				}
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(reps*len(models)), nil
	}
	gradNS, err := timeEval("gradient", func(m *costmodel.SingleFile, x []float64) error { return m.Gradient(buf, x) })
	if err != nil {
		return err
	}
	utilNS, err := timeEval("utility", func(m *costmodel.SingleFile, x []float64) error { _, err := m.Utility(x); return err })
	if err != nil {
		return err
	}
	curvNS, err := timeEval("curvature", func(m *costmodel.SingleFile, x []float64) error { return m.SecondDerivative(buf, x) })
	if err != nil {
		return err
	}
	// Time the certificate on its accepting path: the allocation with its
	// sub-residueTol entries zeroed, priced at its support's mean marginal
	// cost. Cold solves can leave ~1e-17 on nodes outside the optimal
	// support, which VerifyKKT rejects as a support node off price.
	certified := 0
	for k, m := range models {
		cleanResidues(xs[k])
		if m.VerifyKKT(xs[k], supportPrice(m, xs[k], buf), cfg.KKTTol) == nil {
			certified++
		}
	}
	b.notes["costmodel.verify_kkt_accepted"] = fmt.Sprintf("%d of %d", certified, len(models))
	kktNS, err := timeEval("verify_kkt", func(m *costmodel.SingleFile, x []float64) error {
		_ = m.VerifyKKT(x, supportPrice(m, x, buf), cfg.KKTTol) // acceptance counted above
		return nil
	})
	if err != nil {
		return err
	}
	evals := grads + utils + curvs
	modelNS := float64(grads)*gradNS + float64(utils)*utilNS + float64(curvs)*curvNS
	b.setLayer("costmodel.gradient_ns", gradNS, reps*len(models))
	b.setLayer("costmodel.evals_per_step", ratio(float64(evals), float64(steps)), int(steps))
	b.setLayer("costmodel.self_frac", ratio(modelNS, float64(solve.Nanoseconds())), len(models))
	b.setLayer("costmodel.verify_kkt_us", kktNS/1e3, reps*len(models))
	return nil
}

// residueTol is the share below which an allocation entry counts as
// zero when pricing a plan for the certificate probe.
const residueTol = 1e-12

// cleanResidues zeroes every entry of x below residueTol.
func cleanResidues(x []float64) {
	for i, xi := range x {
		if xi < residueTol {
			x[i] = 0
		}
	}
}

// supportPrice is the KKT price q of an allocation: the mean marginal
// cost C_i + k·μ/(μ−λx_i)² = −∂U/∂x_i over the nodes holding mass.
func supportPrice(m *costmodel.SingleFile, x, grad []float64) float64 {
	if err := m.Gradient(grad, x); err != nil {
		return math.NaN()
	}
	var q float64
	var n int
	for i, xi := range x {
		if xi > 0 {
			q -= grad[i]
			n++
		}
	}
	return ratio(q, float64(n))
}

// counterSum totals a counter family's series, optionally only those
// carrying label key=value.
func counterSum(reg *metrics.Registry, name string, label *metrics.Label) int64 {
	var total int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name != name {
			continue
		}
		if label != nil && !hasLabel(c.Labels, *label) {
			continue
		}
		total += c.Value
	}
	return total
}

func hasLabel(ls []metrics.Label, want metrics.Label) bool {
	for _, l := range ls {
		if l == want {
			return true
		}
	}
	return false
}
