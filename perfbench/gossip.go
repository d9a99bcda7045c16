package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/gossip"
	"filealloc/internal/metrics"
	"filealloc/internal/protocol"
	"filealloc/internal/topology"
)

// The gossip workload: gossip.RunCluster in tree mode over the binary
// wire, planning one file on each of several random connected graphs of N
// nodes with seeded per-node models (the shape BenchmarkGossipRound
// uses). Several graphs per pass average out how much one graph's tree
// shape sets the round time. pass_s is the RunCluster calls of a pass, to
// certified plans, step_* are aggregation rounds (a round ends when its
// last node applies the step), op_* are per-node round latencies (from
// the previous round's end to this node's apply).

// gossipAlpha is the ascent stepsize BenchmarkGossipRound uses.
const gossipAlpha = 0.3

// gossipCostTol bounds the relative excess of the certified plan's cost
// over the water-filling optimum costmodel.SolveKKT finds for the same
// parameters. The protocol stops at a marginal-utility spread of 1e-3,
// which leaves the cost within about 1e-6 of optimal (at most 8.7e-7 on
// 128-node graphs); 1e-5 flags a plan that is certified yet measurably
// worse.
const gossipCostTol = 1e-5

// gossipInput is one generated aggregation problem.
type gossipInput struct {
	graph  *topology.Graph
	models []agent.LocalModel
	init   []float64
}

func newGossipInput(n int, seed int64) (gossipInput, error) {
	g, err := topology.RandomConnected(n, 2*n, 0.1, 1, seed)
	if err != nil {
		return gossipInput{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	models := make([]agent.LocalModel, n)
	for i := range models {
		models[i] = agent.LocalModel{
			AccessCost:  0.5 + 2*rng.Float64(),
			ServiceRate: 1.5 + rng.Float64(),
			Lambda:      1,
			K:           1,
		}
	}
	init := make([]float64, n)
	for i := range init {
		init[i] = 1 / float64(n)
	}
	return gossipInput{graph: g, models: models, init: init}, nil
}

// applyEvent is one node applying one round's step.
type applyEvent struct {
	epoch, round int
	at           time.Duration // since the solve started
}

// roundClock timestamps every applied step. Each node appends only to
// its own slice, from its own goroutine, and the slices are read after
// RunCluster has returned, so no locking is needed.
type roundClock struct {
	start time.Time
	nodes [][]applyEvent
}

func newRoundClock(n int) *roundClock { return &roundClock{nodes: make([][]applyEvent, n)} }

func (rc *roundClock) onRound(epoch, round, node int, _ float64) {
	rc.nodes[node] = append(rc.nodes[node], applyEvent{epoch, round, time.Since(rc.start)})
}

// roundTiming is when each round ended and how long each node waited
// for it.
type roundTiming struct {
	ends      []time.Duration // per round, in round order
	durations []float64       // per round, ms
	nodeWaits []float64       // per node and round, µs
}

func (rc *roundClock) timing() roundTiming {
	type key struct{ epoch, round int }
	ends := map[key]time.Duration{}
	for _, evs := range rc.nodes {
		for _, ev := range evs {
			k := key{ev.epoch, ev.round}
			ends[k] = max(ends[k], ev.at)
		}
	}
	keys := make([]key, 0, len(ends))
	for k := range ends {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		return keys[i].round < keys[j].round
	})
	var rt roundTiming
	prevEnd := map[key]time.Duration{}
	var last time.Duration
	for _, k := range keys {
		prevEnd[k] = last
		rt.ends = append(rt.ends, ends[k])
		rt.durations = append(rt.durations, millis(ends[k]-last))
		last = ends[k]
	}
	for _, evs := range rc.nodes {
		for _, ev := range evs {
			rt.nodeWaits = append(rt.nodeWaits, micros(ev.at-prevEnd[key{ev.epoch, ev.round}]))
		}
	}
	return rt
}

// gossipPass is what one RunCluster call measured.
type gossipPass struct {
	gap    float64 // relative cost above the KKT optimum
	start  time.Time
	wall   time.Duration
	res    gossip.ClusterResult
	timing roundTiming
	digest [32]byte
}

// runGossipPass solves the input once and checks the plan: converged,
// certified, and as cheap as the KKT reference solution.
func runGossipPass(ctx context.Context, b *bench, in gossipInput, reg *metrics.Registry) (gossipPass, error) {
	rc := newRoundClock(len(in.models))
	cfg := gossip.ClusterConfig{
		Graph:   in.graph,
		Models:  in.models,
		Init:    append([]float64(nil), in.init...),
		Alpha:   gossipAlpha,
		Metrics: reg,
		OnRound: rc.onRound,
	}
	var p gossipPass
	b.ops(1)
	rc.start = time.Now()
	res, err := gossip.RunCluster(ctx, cfg)
	p.start, p.wall = rc.start, time.Since(rc.start)
	p.res = res
	p.timing = rc.timing()
	if err != nil || !res.Converged || !res.Certified {
		b.fail(1, "gossip solve: err=%v converged=%v certified=%v after %d rounds", err, res.Converged, res.Certified, res.Rounds)
		return p, nil
	}
	if p.gap, err = costGap(in.models, res.X); err != nil {
		return p, err
	}
	if !(p.gap <= gossipCostTol) {
		b.fail(1, "gossip plan costs %.3g more than the KKT optimum (tolerance %g)", p.gap, gossipCostTol)
	}
	h := sha256.New()
	var buf [8]byte
	for _, x := range res.X {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	copy(p.digest[:], h.Sum(nil))
	return p, nil
}

// costGap is (C(x) − C*)/C*, where C* is the cost of the water-filling
// optimum on the same per-node parameters.
func costGap(models []agent.LocalModel, x []float64) (float64, error) {
	access := make([]float64, len(models))
	service := make([]float64, len(models))
	for i, m := range models {
		access[i], service[i] = m.AccessCost, m.ServiceRate
	}
	m, err := costmodel.NewSingleFile(access, service, models[0].Lambda, models[0].K)
	if err != nil {
		return 0, err
	}
	opt, err := m.SolveKKT(1e-12)
	if err != nil {
		return 0, fmt.Errorf("KKT reference: %w", err)
	}
	c, err := m.Cost(x)
	if err != nil {
		return math.Inf(1), nil
	}
	return (c - opt.Cost) / opt.Cost, nil
}

// newGossipInputs builds the workload's graphs; graph k derives from
// seed·graphs + k, so seeds never share a graph.
func newGossipInputs(n, graphs int, seed int64) ([]gossipInput, error) {
	ins := make([]gossipInput, graphs)
	for k := range ins {
		var err error
		if ins[k], err = newGossipInput(n, seed*int64(graphs)+int64(k)); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// gossipRound is one pass over every graph of the workload: one solve
// each, in order.
type gossipRound struct {
	solves []gossipPass
	wall   time.Duration
	digest [32]byte
}

func runGossipGraphs(ctx context.Context, b *bench, ins []gossipInput, reg *metrics.Registry) (gossipRound, error) {
	var r gossipRound
	h := sha256.New()
	for _, in := range ins {
		p, err := runGossipPass(ctx, b, in, reg)
		if err != nil {
			return r, err
		}
		r.solves = append(r.solves, p)
		r.wall += p.wall
		h.Write(p.digest[:])
	}
	copy(r.digest[:], h.Sum(nil))
	return r, nil
}

// pooled gathers every solve's round durations and node waits.
func (r gossipRound) pooled() (rounds, waits []float64) {
	for _, p := range r.solves {
		rounds = append(rounds, p.timing.durations...)
		waits = append(waits, p.timing.nodeWaits...)
	}
	return rounds, waits
}

func runGossip(ctx context.Context, b *bench) error {
	n, graphs := b.scale.gossipNodes, b.scale.gossipGraphs
	if b.tracing {
		return traceGossip(ctx, b, n, graphs)
	}
	var setups, walls []float64
	rounds, waits := timings{q: 0.99}, timings{q: 0.995}
	var ins []gossipInput
	// Setting up takes about a millisecond; repeat it for a steady median.
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if ins, err = newGossipInputs(n, graphs, b.seed); err != nil {
			return err
		}
		setups = append(setups, seconds(time.Since(t0)))
	}
	var digest [32]byte
	var bytesPerRound []float64
	var maxGap float64
	start := time.Now()
	for pass := 0; b.more(pass, start); pass++ {
		endPass := b.startPass()
		r, err := runGossipGraphs(ctx, b, ins, nil)
		endPass()
		if err != nil {
			return err
		}
		walls = append(walls, seconds(r.wall))
		rs, ws := r.pooled()
		rounds.add(rs)
		waits.add(ws)
		checkSameSeed(b, pass, &digest, r.digest, "gossip plans")
		if pass == 0 {
			for _, p := range r.solves {
				bytesPerRound = append(bytesPerRound, p.res.Bill.BytesPerRound())
				maxGap = math.Max(maxGap, p.gap)
			}
		}
	}
	b.setE2E("setup_s", median(setups), len(setups))
	b.setE2E("pass_s", median(walls), len(walls))
	b.setE2E("step_p50_ms", rounds.p50(), rounds.n)
	b.setE2E("step_p99_ms", rounds.tail(), rounds.n)
	b.setE2E("op_p50_us", waits.p50(), waits.n)
	b.setE2E("op_p99.5_us", waits.tail(), waits.n)
	b.notes["plan_s"] = median(walls) / float64(graphs)
	b.notes["pass_s.samples"] = walls
	b.notes["wire_bytes_per_round"] = bytesPerRound
	b.notes["max_cost_gap"] = maxGap
	return nil
}

// traceGossip runs one untraced and one traced pass over the graphs,
// then probes the binary codec and the memory transport with the run's
// message shapes.
func traceGossip(ctx context.Context, b *bench, n, graphs int) error {
	tr := b.tr
	ins, err := newGossipInputs(n, graphs, b.seed)
	if err != nil {
		return err
	}
	plain, err := runGossipGraphs(ctx, b, ins, nil)
	if err != nil {
		return err
	}

	reg := metrics.New()
	root := tr.begin("bench.pass", 0, -1)
	mem := startMem()
	r, err := runGossipGraphs(ctx, b, ins, reg)
	var bill gossip.Bill
	solves := 0
	for _, p := range r.solves {
		bill.Rounds += p.res.Rounds
		bill.Messages += p.res.Bill.Messages
		bill.Frames += p.res.Bill.Frames
		bill.Bytes += p.res.Bill.Bytes
		solves++
	}
	mem.stop(b, float64(bill.Messages))
	tr.end(root)
	if err != nil {
		return err
	}
	if r.digest != plain.digest {
		b.fail(1, "traced gossip plans differ from the untraced ones at the same seed")
	}
	// The spans are laid down after the solves from the round clocks, so
	// recording them costs the solves nothing.
	for k, p := range r.solves {
		run := tr.add("gossip.RunCluster", int64(k), root, p.start, p.start.Add(p.wall))
		var prev time.Duration
		for i, end := range p.timing.ends {
			tr.add("gossip.round", int64(i+1), run, p.start.Add(prev), p.start.Add(end))
			prev = end
		}
	}
	_, plainWaits := plain.pooled()
	rounds, waits := r.pooled()
	b.overhead(seconds(plain.wall), seconds(r.wall), median(plainWaits), median(waits))

	b.setLayer("gossip.rounds", ratio(float64(bill.Rounds), float64(solves)), solves)
	b.setLayer("gossip.msgs_per_round", bill.MessagesPerRound(), bill.Rounds)
	b.setLayer("gossip.bytes_per_round", bill.BytesPerRound(), bill.Rounds)
	b.setLayer("gossip.frames_per_msg", ratio(float64(bill.Frames), float64(bill.Messages)), int(bill.Messages))
	b.setLayer("gossip.round_ms_p50", quantile(rounds, 0.5), len(rounds))
	b.setLayer("gossip.round_ms_p99", quantile(rounds, 0.99), len(rounds))

	up, down := aggShapes(ins[0].models, r.solves[0].res)
	if err := probeBinaryCodec(b, up, down); err != nil {
		return err
	}
	bytesPerMsg := int(math.Round(ratio(float64(bill.Bytes), float64(bill.Messages))))
	msgsPerFrame := max(1, int(math.Round(ratio(float64(bill.Messages), float64(bill.Frames)))))
	if err := probeTransport(ctx, b, bytesPerMsg, msgsPerFrame); err != nil {
		return err
	}
	tr.report(b)
	return nil
}

// aggShapes builds one tree-aggregation message of each direction from
// the solved run: its round count, and marginal utilities, curvatures
// and allocation sums at the final plan.
func aggShapes(models []agent.LocalModel, res gossip.ClusterResult) (protocol.AggUp, protocol.AggDown) {
	agg := protocol.Aggregate{MinG: math.Inf(1), MaxG: math.Inf(-1), OutNode: -1}
	for i, m := range models {
		g, errG := m.Marginal(res.X[i])
		h, errH := m.Curvature(res.X[i])
		if errG != nil || errH != nil {
			continue
		}
		agg.SumG += g
		agg.SumH += h
		agg.SumX += res.X[i]
		agg.Count++
		agg.MinG = math.Min(agg.MinG, g)
		agg.MaxG = math.Max(agg.MaxG, g)
	}
	up := protocol.AggUp{Round: res.Rounds, Pass: 1, Epoch: res.Epochs - 1, Node: len(models) / 2, Agg: agg}
	down := protocol.AggDown{
		Round: res.Rounds, Pass: 1, Epoch: res.Epochs - 1,
		Avg: ratio(agg.SumG, float64(agg.Count)), Count: agg.Count, Readmit: -1,
		Final: true, Truncation: 1, Spread: agg.MaxG - agg.MinG,
	}
	return up, down
}
