// Package catalog scales the paper's single-file solver from one file to
// a placement service: a catalog of N independent objects, each with its
// own Zipf-skewed demand vector over the cluster, sharded and
// batch-solved over the internal/sweep worker pool. Cold fills run the
// full allocator per object; after demand drifts, re-solves go through
// the core.Solver interface's warm path — each object's
// internal/estimate tracker flags drift against the demand its current
// plan assumed, un-drifted objects are skipped entirely, and drifted
// ones are re-solved incrementally from their previous allocation
// (core.WarmSolver), with costmodel.VerifyKKT certifying every warm
// early-exit. This is the ROADMAP's million-object service: the headline
// number is objects/sec, cold vs. warm.
//
// Everything is deterministic: demand, drift, and synthetic sensing are
// hash-derived from Config.Seed, solves are exact functions of their
// inputs, and batches use the sweep engine's order-preserving claiming —
// so catalog state and metrics snapshots are byte-identical across
// worker counts and chunk sizes.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"math"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/estimate"
	"filealloc/internal/metrics"
	"filealloc/internal/records"
	"filealloc/internal/sweep"
	"filealloc/internal/topology"
)

// ErrCatalog reports invalid catalog configuration or misuse.
var ErrCatalog = errors.New("catalog: invalid configuration")

// Config sizes and parameterizes a catalog. The zero value of every
// field except Objects picks a sensible default.
type Config struct {
	// Objects is the catalog size (required).
	Objects int
	// Nodes is the cluster size (default 8). The cluster is a uniform
	// ring; per-object demand decides which nodes are cheap.
	Nodes int
	// ShardSize is the number of objects per shard (default 256).
	// Shards are the sweep's work items: contiguous id ranges owned by
	// one worker at a time.
	ShardSize int
	// Skew is the Zipf exponent shaping each object's demand over the
	// nodes (default 1).
	Skew float64
	// Mu is the per-node service rate μ (default 1.5); must exceed
	// Lambda so every feasible allocation has stable queues.
	Mu float64
	// K is the delay-vs-communication scaling factor (default 1).
	K float64
	// Lambda is each object's total access rate λ (default 1).
	Lambda float64
	// DynamicAlpha is the Theorem-2 dynamic stepsize safety factor
	// (default 0.5).
	DynamicAlpha float64
	// Epsilon is the marginal-utility spread termination threshold
	// (default 1e-6).
	Epsilon float64
	// KKTTol is the relative tolerance of the VerifyKKT certificate on
	// warm early-exits (default 1e-5).
	KKTTol float64
	// DriftThreshold is the relative rate deviation above which a
	// tracker flags an object for re-solve (default 0.2; see
	// estimate.DriftExceeds).
	DriftThreshold float64
	// DriftFraction is the fraction of objects whose demand is
	// re-drawn each Drift epoch. Zero means demand never moves (there
	// is no default — a drift-free catalog is meaningful, it is the
	// warm path's best case).
	DriftFraction float64
	// WarmSteps is the incremental-step budget before a re-solve falls
	// back to a cold solve (default 64). Most drifted objects converge
	// within a few dozen warm steps; a long tail sits near a vertex
	// where the dynamic stepsize is tiny and creeps for hundreds. The
	// default is the knee of that curve — and a fallback continues from
	// the current iterate, so an exhausted budget wastes little.
	WarmSteps int
	// HalfLife is the rate estimators' exponential-window half-life,
	// in sensing-time units (default 16).
	HalfLife float64
	// EpochWindow is the sensing window advanced per Sense/Drift call
	// (default 32 — two half-lives, so estimates cover ~75% of the
	// distance to a moved rate within one epoch).
	EpochWindow float64
	// Seed derives demand shapes, drift selection, and re-drawn demand
	// (default 1).
	Seed uint64
}

func (cfg *Config) applyDefaults() {
	if cfg.Nodes == 0 {
		cfg.Nodes = 8
	}
	if cfg.ShardSize == 0 {
		cfg.ShardSize = 256
	}
	if cfg.Skew == 0 {
		cfg.Skew = 1
	}
	if cfg.Mu == 0 {
		cfg.Mu = 1.5
	}
	if cfg.K == 0 {
		cfg.K = 1
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	if cfg.DynamicAlpha == 0 {
		cfg.DynamicAlpha = 0.5
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-6
	}
	if cfg.KKTTol == 0 {
		cfg.KKTTol = 1e-5
	}
	if cfg.DriftThreshold == 0 {
		cfg.DriftThreshold = 0.2
	}
	if cfg.WarmSteps == 0 {
		cfg.WarmSteps = 64
	}
	if cfg.HalfLife == 0 {
		cfg.HalfLife = 16
	}
	if cfg.EpochWindow == 0 {
		cfg.EpochWindow = 32
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
}

func (cfg Config) validate() error {
	switch {
	case cfg.Objects < 1:
		return fmt.Errorf("%w: %d objects", ErrCatalog, cfg.Objects)
	case cfg.Nodes < 2:
		return fmt.Errorf("%w: %d nodes", ErrCatalog, cfg.Nodes)
	case cfg.ShardSize < 1:
		return fmt.Errorf("%w: shard size %d", ErrCatalog, cfg.ShardSize)
	case cfg.Mu <= cfg.Lambda:
		return fmt.Errorf("%w: μ = %v must exceed λ = %v", ErrCatalog, cfg.Mu, cfg.Lambda)
	case cfg.Lambda <= 0 || math.IsNaN(cfg.Lambda):
		return fmt.Errorf("%w: λ = %v", ErrCatalog, cfg.Lambda)
	case cfg.Skew < 0 || math.IsNaN(cfg.Skew):
		return fmt.Errorf("%w: skew %v", ErrCatalog, cfg.Skew)
	case cfg.DriftFraction < 0 || cfg.DriftFraction > 1 || math.IsNaN(cfg.DriftFraction):
		return fmt.Errorf("%w: drift fraction %v", ErrCatalog, cfg.DriftFraction)
	case cfg.DriftThreshold < 0 || cfg.DriftThreshold >= 1 || math.IsNaN(cfg.DriftThreshold):
		return fmt.Errorf("%w: drift threshold %v", ErrCatalog, cfg.DriftThreshold)
	case cfg.EpochWindow <= 0 || math.IsNaN(cfg.EpochWindow):
		return fmt.Errorf("%w: epoch window %v", ErrCatalog, cfg.EpochWindow)
	}
	return nil
}

// Stats counts the work one pass (or the catalog's lifetime) performed.
// All fields are object counts except Steps, which totals solver
// iterations.
type Stats struct {
	// Cold counts full solves from the uniform initial allocation.
	Cold int64
	// Warm counts re-solves that converged on the incremental path.
	Warm int64
	// Fallback counts re-solves whose warm budget ran out (or whose
	// certificate was vetoed) and escalated to a cold solve.
	Fallback int64
	// Skipped counts objects whose tracker flagged no drift — their
	// allocation was left untouched.
	Skipped int64
	// Drifted counts objects the tracker flagged for re-solve.
	Drifted int64
	// DriftApplied counts demand re-draws applied by Drift.
	DriftApplied int64
	// Steps totals solver iterations across all solves.
	Steps int64
}

func (s *Stats) add(o Stats) {
	s.Cold += o.Cold
	s.Warm += o.Warm
	s.Fallback += o.Fallback
	s.Skipped += o.Skipped
	s.Drifted += o.Drifted
	s.DriftApplied += o.DriftApplied
	s.Steps += o.Steps
}

// shard is one contiguous range of object ids with structure-of-arrays
// state. A shard is only ever touched by the single sweep worker that
// claimed it, so it needs no locking.
type shard struct {
	lo, hi   int       // object ids [lo, hi)
	demand   []float64 // true demand rates, (hi-lo)×nodes row-major
	x        []float64 // current allocation, same layout
	gen      []int     // demand generation, bumped per applied drift
	models   []*costmodel.SingleFile
	cold     []*core.Allocator
	warm     []*core.WarmSolver
	trackers []*estimate.Tracker
}

func (sh *shard) count() int { return sh.hi - sh.lo }

// meters is the catalog's metrics surface (nil when none attached). All
// series are integer-valued and event-counted, so snapshots stay
// byte-identical across worker scheduling.
type meters struct {
	cold, warm, fallback *metrics.Counter
	skipped, drifted     *metrics.Counter
	driftApplied, epochs *metrics.Counter
	steps                *metrics.Counter
	resolveIters         *metrics.Histogram
}

// Catalog is the solved object catalog. Construction (New) only lays out
// state; SolveCold fills every allocation, Sense establishes the demand
// baselines, and Drift/ReSolve advance epochs. Methods are not safe for
// concurrent use with each other; each method parallelizes internally
// over the sweep pool configured on its context.
type Catalog struct {
	cfg    Config
	pair   [][]float64 // round-trip node-pair costs of the uniform ring
	zipf   *records.Popularity
	shards []*shard
	total  Stats
	epoch  int
	now    float64
	sensed bool
	m      *meters
}

// New lays out a catalog: demand vectors, per-object cost models, cold
// and warm solvers, and drift trackers. No solves happen yet.
func New(cfg Config) (*Catalog, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ring, err := topology.Ring(cfg.Nodes, 1)
	if err != nil {
		return nil, fmt.Errorf("catalog: building ring: %w", err)
	}
	pair, err := topology.PairCosts(ring, topology.RoundTrip)
	if err != nil {
		return nil, fmt.Errorf("catalog: pair costs: %w", err)
	}
	zipf, err := records.Zipf(cfg.Nodes, cfg.Skew)
	if err != nil {
		return nil, fmt.Errorf("catalog: demand shape: %w", err)
	}
	c := &Catalog{cfg: cfg, pair: pair, zipf: zipf}

	nodes := cfg.Nodes
	access := make([]float64, nodes)
	service := []float64{cfg.Mu}
	for lo := 0; lo < cfg.Objects; lo += cfg.ShardSize {
		hi := lo + cfg.ShardSize
		if hi > cfg.Objects {
			hi = cfg.Objects
		}
		n := hi - lo
		sh := &shard{
			lo:       lo,
			hi:       hi,
			demand:   make([]float64, n*nodes),
			x:        make([]float64, n*nodes),
			gen:      make([]int, n),
			models:   make([]*costmodel.SingleFile, n),
			cold:     make([]*core.Allocator, n),
			warm:     make([]*core.WarmSolver, n),
			trackers: make([]*estimate.Tracker, n),
		}
		for o := 0; o < n; o++ {
			id := lo + o
			row := sh.demand[o*nodes : (o+1)*nodes]
			c.fillDemand(id, 0, row)
			c.accessCosts(row, access)
			model, err := costmodel.NewSingleFile(access, service, cfg.Lambda, cfg.K)
			if err != nil {
				return nil, fmt.Errorf("catalog: object %d model: %w", id, err)
			}
			alloc, err := core.NewAllocator(model,
				core.WithDynamicAlpha(cfg.DynamicAlpha),
				core.WithEpsilon(cfg.Epsilon),
				core.WithKKTCheck())
			if err != nil {
				return nil, fmt.Errorf("catalog: object %d allocator: %w", id, err)
			}
			warm, err := core.NewWarmSolver(alloc, core.WarmConfig{
				MaxSteps: cfg.WarmSteps,
				Certify: func(x []float64, q float64) error {
					return model.VerifyKKT(x, q, cfg.KKTTol)
				},
			})
			if err != nil {
				return nil, fmt.Errorf("catalog: object %d warm solver: %w", id, err)
			}
			tracker, err := estimate.NewTracker(nodes, cfg.HalfLife)
			if err != nil {
				return nil, fmt.Errorf("catalog: object %d tracker: %w", id, err)
			}
			sh.models[o] = model
			sh.cold[o] = alloc
			sh.warm[o] = warm
			sh.trackers[o] = tracker
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// Objects returns the catalog size.
func (c *Catalog) Objects() int { return c.cfg.Objects }

// Nodes returns the cluster size.
func (c *Catalog) Nodes() int { return c.cfg.Nodes }

// NumShards returns the number of shards (the sweep's work items).
func (c *Catalog) NumShards() int { return len(c.shards) }

// Epoch returns the number of completed drift epochs.
func (c *Catalog) Epoch() int { return c.epoch }

// Stats returns the catalog's cumulative work counters.
func (c *Catalog) Stats() Stats { return c.total }

// AttachMetrics registers the catalog's counters on reg; subsequent
// passes record into them. Sweep-level queue-depth metrics are attached
// separately via sweep.WithMetrics on the context.
func (c *Catalog) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	m := &meters{
		cold:         reg.Counter("fap_catalog_solves_total", "Catalog solves by kind.", metrics.L("kind", "cold")),
		warm:         reg.Counter("fap_catalog_solves_total", "Catalog solves by kind.", metrics.L("kind", "warm")),
		fallback:     reg.Counter("fap_catalog_solves_total", "Catalog solves by kind.", metrics.L("kind", "fallback")),
		skipped:      reg.Counter("fap_catalog_objects_skipped_total", "Objects left untouched by a re-solve pass (no drift flagged)."),
		drifted:      reg.Counter("fap_catalog_objects_drifted_total", "Objects flagged by their tracker for re-solve."),
		driftApplied: reg.Counter("fap_catalog_drift_applied_total", "Demand re-draws applied by drift epochs."),
		epochs:       reg.Counter("fap_catalog_epochs_total", "Completed drift epochs."),
		steps:        reg.Counter("fap_catalog_solve_steps_total", "Total solver iterations across all solves."),
		resolveIters: reg.Histogram("fap_catalog_resolve_iterations",
			"Solver iterations per re-solved object (warm and fallback).",
			[]int64{1, 2, 4, 8, 16, 32, 64, 128}),
	}
	c.m = m
}

// record merges one pass's stats into the cumulative totals and the
// attached metrics.
func (c *Catalog) record(st Stats) {
	c.total.add(st)
	if c.m == nil {
		return
	}
	c.m.cold.Add(st.Cold)
	c.m.warm.Add(st.Warm)
	c.m.fallback.Add(st.Fallback)
	c.m.skipped.Add(st.Skipped)
	c.m.drifted.Add(st.Drifted)
	c.m.driftApplied.Add(st.DriftApplied)
	c.m.steps.Add(st.Steps)
}

// solveScratch bundles one sweep worker's reusable buffers: the core
// solver scratch plus catalog-side vectors, so steady-state re-solves
// allocate nothing per object.
type solveScratch struct {
	core    *core.Scratch
	init    []float64
	access  []float64
	drifted []int
}

func (c *Catalog) newSolveScratch() *solveScratch {
	return &solveScratch{
		core:    core.NewScratch(),
		init:    make([]float64, c.cfg.Nodes),
		access:  make([]float64, c.cfg.Nodes),
		drifted: make([]int, 0, c.cfg.Nodes),
	}
}

// SolveCold solves every object from the uniform initial allocation —
// the catalog fill. It can be called again at any time to re-solve the
// whole catalog from scratch (the results are idempotent for unchanged
// demand).
func (c *Catalog) SolveCold(ctx context.Context) (Stats, error) {
	nodes := c.cfg.Nodes
	per := make([]Stats, len(c.shards))
	err := sweep.RunWithScratch(ctx, len(c.shards), sweep.WorkersFrom(ctx), c.newSolveScratch,
		func(ctx context.Context, si int, s *solveScratch) error {
			sh := c.shards[si]
			st := &per[si]
			done := ctx.Done()
			for o := 0; o < sh.count(); o++ {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
				for j := range s.init {
					s.init[j] = 1 / float64(nodes)
				}
				res, err := sh.cold[o].Solve(ctx, s.init, s.core)
				if err != nil {
					return fmt.Errorf("catalog: cold solve of object %d: %w", sh.lo+o, err)
				}
				copy(sh.x[o*nodes:(o+1)*nodes], res.X)
				st.Cold++
				st.Steps += int64(res.Iterations)
			}
			return nil
		})
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	for i := range per {
		st.add(per[i])
	}
	c.record(st)
	return st, nil
}

// Sense advances the sensing clock one epoch window, feeding every
// object's tracker synthetic access events drawn from its current true
// demand, and marks the resulting estimates as each object's planning
// baseline. Call it once after SolveCold (so the baselines describe the
// demand the allocations were planned for) and rely on Drift for later
// windows.
func (c *Catalog) Sense(ctx context.Context) error {
	t0, w := c.now, c.cfg.EpochWindow
	err := sweep.Run(ctx, len(c.shards), sweep.WorkersFrom(ctx), func(ctx context.Context, si int) error {
		sh := c.shards[si]
		nodes := c.cfg.Nodes
		for o := 0; o < sh.count(); o++ {
			if err := senseObject(sh.trackers[o], sh.demand[o*nodes:(o+1)*nodes], t0, w); err != nil {
				return fmt.Errorf("catalog: sensing object %d: %w", sh.lo+o, err)
			}
			sh.trackers[o].MarkPlanned(t0 + w)
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.now = t0 + w
	c.sensed = true
	return nil
}

// Drift advances one demand epoch: a hash-selected DriftFraction of
// objects get their demand re-drawn (a rotated, re-weighted Zipf shape —
// a large move), then every tracker senses one window of events from the
// now-current demand. It returns the number of objects whose demand
// changed. Baselines are not re-marked here — that is ReSolve's job, and
// only for the objects it actually re-plans.
func (c *Catalog) Drift(ctx context.Context) (int, error) {
	if !c.sensed {
		return 0, fmt.Errorf("%w: Drift before Sense", ErrCatalog)
	}
	c.epoch++
	epoch := c.epoch
	t0, w := c.now, c.cfg.EpochWindow
	applied := make([]int, len(c.shards))
	err := sweep.Run(ctx, len(c.shards), sweep.WorkersFrom(ctx), func(ctx context.Context, si int) error {
		sh := c.shards[si]
		nodes := c.cfg.Nodes
		for o := 0; o < sh.count(); o++ {
			id := sh.lo + o
			row := sh.demand[o*nodes : (o+1)*nodes]
			if c.drifts(id, epoch) {
				sh.gen[o]++
				c.fillDemand(id, sh.gen[o], row)
				applied[si]++
			}
			if err := senseObject(sh.trackers[o], row, t0, w); err != nil {
				return fmt.Errorf("catalog: sensing object %d: %w", id, err)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	c.now = t0 + w
	total := 0
	for _, n := range applied {
		total += n
	}
	c.record(Stats{DriftApplied: int64(total)})
	if c.m != nil {
		c.m.epochs.Inc()
	}
	return total, nil
}

// ReSolve is the warm pass: every object whose tracker flags drift above
// the threshold is re-solved through its WarmSolver seeded from the
// previous allocation (model access costs refreshed from the current
// demand first); everything else is skipped untouched. Flagged objects
// re-mark their baselines, so a stable demand stops being re-solved
// after one pass.
func (c *Catalog) ReSolve(ctx context.Context) (Stats, error) {
	if !c.sensed {
		return Stats{}, fmt.Errorf("%w: ReSolve before Sense", ErrCatalog)
	}
	nodes := c.cfg.Nodes
	now, threshold := c.now, c.cfg.DriftThreshold
	per := make([]Stats, len(c.shards))
	err := sweep.RunWithScratch(ctx, len(c.shards), sweep.WorkersFrom(ctx), c.newSolveScratch,
		func(ctx context.Context, si int, s *solveScratch) error {
			sh := c.shards[si]
			st := &per[si]
			done := ctx.Done()
			for o := 0; o < sh.count(); o++ {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
				var err error
				s.drifted, err = sh.trackers[o].AppendDrifted(s.drifted[:0], now, threshold)
				if err != nil {
					return fmt.Errorf("catalog: drift check of object %d: %w", sh.lo+o, err)
				}
				if len(s.drifted) == 0 {
					st.Skipped++
					continue
				}
				st.Drifted++
				row := sh.demand[o*nodes : (o+1)*nodes]
				c.accessCosts(row, s.access)
				if err := sh.models[o].SetAccessCosts(s.access); err != nil {
					return fmt.Errorf("catalog: updating object %d: %w", sh.lo+o, err)
				}
				xrow := sh.x[o*nodes : (o+1)*nodes]
				res, fellBack, err := sh.warm[o].SolveWarm(ctx, xrow, s.core)
				if err != nil {
					return fmt.Errorf("catalog: warm solve of object %d: %w", sh.lo+o, err)
				}
				copy(xrow, res.X)
				if fellBack {
					st.Fallback++
				} else {
					st.Warm++
				}
				st.Steps += int64(res.Iterations)
				sh.trackers[o].MarkPlanned(now)
				if c.m != nil {
					c.m.resolveIters.Observe(int64(res.Iterations))
				}
			}
			return nil
		})
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	for i := range per {
		st.add(per[i])
	}
	c.record(st)
	return st, nil
}

// senseObject feeds one tracker round(rate·w) evenly spaced events per
// node over the window (t0, t0+w], the last landing exactly on the
// window boundary. An unchanged demand therefore produces an identical
// event pattern every epoch, and the estimator's warm-up correction
// cancels the window-to-window accumulation exactly — un-drifted
// estimates are epoch-constant, which is what makes skip decisions
// reliable.
//
//fap:zeroalloc
func senseObject(tr *estimate.Tracker, demand []float64, t0, w float64) error {
	for j, r := range demand {
		m := int(math.Round(r * w))
		for k := m - 1; k >= 0; k-- {
			if err := tr.Observe(j, t0+w-w*float64(k)/float64(m)); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillDemand writes object id's demand vector at the given drift
// generation: a Zipf shape rotated by id (so different objects favor
// different nodes) with a gen-keyed hash re-weighting of each node in
// [0.5, 1.5]×, normalized to total rate λ. An applied drift (gen bump)
// re-draws the weights — node rates move by up to 3× relative to each
// other, enough to flip placement decisions, while the shape's backbone
// stays put so the drifted problem remains in warm-start range.
//
//fap:zeroalloc
func (c *Catalog) fillDemand(id, gen int, out []float64) {
	nodes := c.cfg.Nodes
	h := mix64(c.cfg.Seed ^ mix64(uint64(id)+1) ^ mix64(uint64(gen)<<20))
	var sum float64
	for j := 0; j < nodes; j++ {
		w := c.zipf.Prob((j+id)%nodes) * (0.5 + unitFloat(mix64(h^uint64(j))))
		out[j] = w
		sum += w
	}
	for j := range out {
		out[j] *= c.cfg.Lambda / sum
	}
}

// drifts reports whether object id's demand is re-drawn at the given
// epoch (a seeded hash decision, independent per (id, epoch)).
//
//fap:zeroalloc
func (c *Catalog) drifts(id, epoch int) bool {
	const driftSalt = 0xD96EB1A810CAAF5B
	u := unitFloat(mix64(mix64(c.cfg.Seed^driftSalt^uint64(id)+1) ^ uint64(epoch)))
	return u < c.cfg.DriftFraction
}

// accessCosts derives the traffic-weighted access costs C_i = Σ_j
// (d_j/Σd)·pair[j][i] from a demand vector (topology.AccessCosts without
// the per-call allocation).
//
//fap:zeroalloc
func (c *Catalog) accessCosts(demand, out []float64) {
	var total float64
	for _, dj := range demand {
		total += dj
	}
	for i := range out {
		var ci float64
		for j, dj := range demand {
			ci += dj * c.pair[j][i]
		}
		out[i] = ci / total
	}
}

// mix64 is SplitMix64's finalizer: a deterministic, well-distributed
// 64-bit hash used for demand shapes and drift selection (no global
// rand, no per-run state).
//
//fap:zeroalloc
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// unitFloat maps a hash to [0, 1).
//
//fap:zeroalloc
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }
