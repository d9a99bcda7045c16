// Package neighbor implements the "neighbours-only" variant of the
// allocation algorithm that the paper's section 8.2 poses as future work:
// "To reduce the amount of message sending at each iteration we wish to
// look at restrictions in communication where nodes communicate only with
// their neighbours ... algorithms based on marginal utility that maintain
// the attractive properties of feasibility, monotonicity and rapid
// convergence and yet execute with a 'neighbours-only' restriction."
//
// The algorithm here is the center-free pairwise-exchange scheme of the
// Ho–Servi–Suri class (the paper's reference [20]): in each iteration
// every communication link (i, j) carries an exchange proportional to the
// difference of the endpoints' marginal utilities,
//
//	δ_ij = β · (∂U/∂x_i − ∂U/∂x_j),
//
// and node i receives δ_ij while node j gives it up. Each pairwise
// transfer conserves the total exactly (feasibility needs no global
// averaging), the update direction is an ascent direction for any
// connected graph (⟨∇U, Δx⟩ = β·Σ_(i,j) (g_i − g_j)² ≥ 0, the edge-wise
// Lemma 1), and each node only ever talks to its graph neighbours —
// 2|E| messages per iteration instead of the broadcast mode's n(n−1).
// The price is slower convergence: information diffuses across the graph
// at one hop per iteration, so poorly connected topologies (rings, lines)
// need Θ(n²)-ish iterations where the full-exchange algorithm needs O(1).
package neighbor

import (
	"context"
	"errors"
	"fmt"
	"math"

	"filealloc/internal/core"
	"filealloc/internal/topology"
)

// ErrBadConfig reports invalid solver configuration.
var ErrBadConfig = errors.New("neighbor: invalid configuration")

// Edge is one undirected communication link.
type Edge struct {
	I, J int
}

// EdgesOf extracts each undirected link of a graph once (I < J), the
// exchange schedule matching the physical topology.
func EdgesOf(g *topology.Graph) []Edge {
	n := g.NumNodes()
	seen := make(map[[2]int]bool)
	var edges []Edge
	for i := 0; i < n; i++ {
		for _, j := range g.Neighbors(i) {
			a, b := i, j
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if seen[key] {
				continue
			}
			seen[key] = true
			edges = append(edges, Edge{I: a, J: b})
		}
	}
	return edges
}

// Config assembles a neighbor-only solver.
type Config struct {
	// Objective is the utility to maximize.
	Objective core.Objective
	// Edges lists the undirected links over which exchanges happen; the
	// edge set must connect all variables or the algorithm converges to
	// per-component optima only.
	Edges []Edge
	// Beta is the exchange gain (default 0.05). The stable range shrinks
	// with the maximum node degree: β < α_stable/deg_max, since a node's
	// total update is the sum over its incident edges.
	Beta float64
	// Epsilon is the termination threshold on the global marginal
	// utility spread (default 1e-3). Detecting it needs no extra
	// communication in a synchronous simulation; a real deployment
	// would run a neighbour-based max/min diffusion, which costs the
	// graph diameter in extra rounds.
	Epsilon float64
	// MaxIterations bounds the run (default 100000).
	MaxIterations int
	// OnIteration observes each iteration.
	OnIteration func(core.Iteration)
}

func (c *Config) fill() error {
	if c.Objective == nil {
		return fmt.Errorf("%w: nil objective", ErrBadConfig)
	}
	if len(c.Edges) == 0 {
		return fmt.Errorf("%w: no edges", ErrBadConfig)
	}
	n := c.Objective.Dim()
	for _, e := range c.Edges {
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= n || e.I == e.J {
			return fmt.Errorf("%w: edge (%d,%d) invalid for %d variables", ErrBadConfig, e.I, e.J, n)
		}
	}
	if c.Beta == 0 {
		c.Beta = 0.05
	}
	if c.Beta < 0 || math.IsNaN(c.Beta) {
		return fmt.Errorf("%w: beta = %v", ErrBadConfig, c.Beta)
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-3
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("%w: epsilon = %v", ErrBadConfig, c.Epsilon)
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 100000
	}
	if c.MaxIterations < 1 {
		return fmt.Errorf("%w: max iterations = %d", ErrBadConfig, c.MaxIterations)
	}
	return nil
}

// Result reports a neighbor-only run.
type Result struct {
	// X is the final allocation.
	X []float64
	// Iterations performed.
	Iterations int
	// Converged reports the ε-criterion fired.
	Converged bool
	// Messages is the total message count (2 per edge per iteration —
	// each endpoint sends its marginal utility to the other).
	Messages int
}

// Solve runs the synchronous pairwise-exchange iteration from init.
func Solve(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	obj := cfg.Objective
	n := obj.Dim()
	x := make([]float64, n)
	// init taken from cfg? Solve keeps the signature small: the caller
	// seeds via SolveFrom.
	for i := range x {
		x[i] = 1 / float64(n)
	}
	return solveFrom(ctx, cfg, x)
}

// SolveFrom runs the iteration from the given feasible start.
func SolveFrom(ctx context.Context, cfg Config, init []float64) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	if len(init) != cfg.Objective.Dim() {
		return Result{}, fmt.Errorf("%w: init has %d entries for dimension %d", core.ErrDimension, len(init), cfg.Objective.Dim())
	}
	for i, v := range init {
		if v < 0 || math.IsNaN(v) {
			return Result{}, fmt.Errorf("%w: init[%d] = %v", core.ErrInfeasible, i, v)
		}
	}
	x := append([]float64(nil), init...)
	return solveFrom(ctx, cfg, x)
}

// boundaryTol is the stock below which a node counts as empty for the
// exchange rules.
const boundaryTol = 1e-12

func solveFrom(ctx context.Context, cfg Config, x []float64) (Result, error) {
	obj := cfg.Objective
	n := obj.Dim()
	grad := make([]float64, n)
	res := Result{}
	done := ctx.Done()
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		select {
		case <-done:
			res.X = x
			res.Iterations = iter - 1
			return res, nil
		default:
		}
		if err := obj.Gradient(grad, x); err != nil {
			return Result{}, fmt.Errorf("neighbor: gradient at iteration %d: %w", iter, err)
		}

		// Per-edge KKT termination: the allocation is edge-wise optimal
		// when every link either has (nearly) equal marginal utilities
		// or its poorer endpoint has nothing left to give. This is a
		// purely local criterion — exactly what a neighbours-only
		// protocol can evaluate.
		converged := true
		for _, e := range cfg.Edges {
			diff := grad[e.I] - grad[e.J]
			if math.Abs(diff) < cfg.Epsilon {
				continue
			}
			giver := e.J
			if diff < 0 {
				giver = e.I
			}
			if x[giver] > boundaryTol {
				converged = false
				break
			}
		}
		if converged {
			res.X = x
			res.Iterations = iter - 1
			res.Converged = true
			return res, nil
		}

		// One exchange per edge, all from the same marginal-utility
		// snapshot (nodes announce once per round), applied
		// sequentially with per-exchange clamping to the giver's
		// current stock. Every pairwise transfer conserves the total
		// and keeps stocks non-negative, and each transfer moves mass
		// toward the higher marginal utility, so the round is an
		// ascent step: ⟨∇U, Δx⟩ = Σ_e d_e·(g_i − g_j) ≥ 0.
		for _, e := range cfg.Edges {
			d := cfg.Beta * (grad[e.I] - grad[e.J])
			switch {
			case d > 0: // j gives to i
				if d > x[e.J] {
					d = x[e.J]
				}
				x[e.I] += d
				x[e.J] -= d
			case d < 0: // i gives to j
				if -d > x[e.I] {
					d = -x[e.I]
				}
				x[e.I] += d
				x[e.J] -= d
			}
		}
		res.Messages += 2 * len(cfg.Edges)
		if cfg.OnIteration != nil {
			u, err := obj.Utility(x)
			if err != nil {
				return Result{}, fmt.Errorf("neighbor: utility at iteration %d: %w", iter, err)
			}
			cfg.OnIteration(core.Iteration{Index: iter, X: x, Utility: u, Alpha: cfg.Beta})
		}
	}
	res.X = x
	res.Iterations = cfg.MaxIterations
	return res, nil
}

// RingEdges returns the edge list of an n-node ring, the natural
// neighbours-only schedule for the paper's evaluation topology.
func RingEdges(n int) []Edge {
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{I: i, J: (i + 1) % n})
	}
	return edges
}

// LineEdges returns the edge list of a path graph.
func LineEdges(n int) []Edge {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{I: i, J: i + 1})
	}
	return edges
}

// FullEdges returns all pairs — with which the pairwise algorithm mimics
// (a scaled version of) the full-exchange iteration.
func FullEdges(n int) []Edge {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{I: i, J: j})
		}
	}
	return edges
}
