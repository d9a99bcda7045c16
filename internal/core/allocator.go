package core

import (
	"context"
	"fmt"
	"math"
)

// StopReason explains why Run returned.
type StopReason int

const (
	// StopConverged means the termination criterion was met: all marginal
	// utilities over each active set differ by less than ε.
	StopConverged StopReason = iota + 1
	// StopMaxIterations means the iteration budget ran out first. The
	// returned allocation is still feasible and no worse than any earlier
	// iterate (the paper's premature-termination property).
	StopMaxIterations
	// StopStalled means no group could move (active sets collapsed to
	// singletons) before the ε criterion was met.
	StopStalled
	// StopCostDelta means the oscillation-tolerant criterion fired: the
	// utility change between successive iterations fell below the
	// configured threshold (section 7.3's modified halting rule).
	StopCostDelta
	// StopCanceled means the context was canceled mid-run.
	StopCanceled
)

func (r StopReason) String() string {
	switch r {
	case StopConverged:
		return "converged"
	case StopMaxIterations:
		return "max-iterations"
	case StopStalled:
		return "stalled"
	case StopCostDelta:
		return "cost-delta"
	case StopCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Iteration is a snapshot passed to trace hooks after each completed
// iteration (and once, with Index 0, for the initial allocation).
type Iteration struct {
	// Index is the iteration number; 0 is the initial allocation.
	Index int
	// X is the allocation after this iteration. The slice is reused
	// between calls; hooks must copy it to retain it.
	X []float64
	// Utility is U(X).
	Utility float64
	// Spread is the largest marginal-utility spread over any group's
	// active set (0 for the initial snapshot).
	Spread float64
	// Alpha is the stepsize used for this iteration.
	Alpha float64
}

// Result summarizes a Run.
type Result struct {
	// X is the final allocation.
	X []float64
	// Utility is U(X).
	Utility float64
	// Iterations is the number of re-allocation steps performed. After a
	// WarmSolver falls back to a cold continuation it counts only the
	// continuation's steps, not the warm steps taken before it.
	Iterations int
	// Reason reports why the run stopped.
	Reason StopReason
	// Converged is true when Reason is StopConverged or StopCostDelta.
	Converged bool
}

// Option configures an Allocator.
type Option func(*Allocator)

// WithAlpha sets the fixed stepsize α (default 0.1).
func WithAlpha(alpha float64) Option {
	return func(a *Allocator) { a.alpha = alpha }
}

// WithEpsilon sets the termination threshold ε on the marginal-utility
// spread (default 1e-3, the paper's experimental setting).
func WithEpsilon(eps float64) Option {
	return func(a *Allocator) { a.epsilon = eps }
}

// WithMaxIterations bounds the number of iterations (default 10000).
func WithMaxIterations(n int) Option {
	return func(a *Allocator) { a.maxIter = n }
}

// WithTrace registers a hook invoked after every iteration. The hook runs
// synchronously on the solver goroutine.
func WithTrace(fn func(Iteration)) Option {
	return func(a *Allocator) { a.trace = fn }
}

// WithDynamicAlpha recomputes the stepsize each iteration from the
// Theorem-2 bound evaluated at the current gradient and curvature
// (the appendix's closing remark: "we could get a better value for α if we
// dynamically calculate it at each iteration"). The objective must
// implement Curvature. safety in (0,1] scales the bound; values near 1
// step aggressively, small values conservatively.
//
// The bound is evaluated at the pre-step point, so a step large enough to
// leave its validity region could still lower U. Run guards against this:
// whenever a dynamically sized step decreases the utility it backtracks —
// halving α and replanning from the same iterate — until the step is an
// ascent again, making U non-decreasing at every iteration (the Theorem-2
// contract, property-tested by TestTheoremInvariantsRandomized).
func WithDynamicAlpha(safety float64) Option {
	return func(a *Allocator) { a.dynamicSafety = safety }
}

// AdaptAlphaConfig tunes the oscillation-triggered stepsize decay used for
// discontinuous objectives such as the multiple-copy ring (section 7.3).
type AdaptAlphaConfig struct {
	// Patience is the number of utility decreases tolerated before α is
	// reduced.
	Patience int
	// Factor multiplies α at each reduction; must be in (0, 1).
	Factor float64
	// MinAlpha stops further reductions.
	MinAlpha float64
	// CostDelta, when positive, stops the run once |ΔU| between
	// successive iterations falls below it (the paper's modified
	// termination rule for oscillatory problems).
	CostDelta float64
}

// WithAdaptiveAlpha enables section 7.3's oscillation handling: when the
// utility decreases Patience times since the last reduction, α is multiplied
// by Factor; the run additionally stops when |ΔU| < CostDelta.
func WithAdaptiveAlpha(cfg AdaptAlphaConfig) Option {
	return func(a *Allocator) { a.adapt = &cfg }
}

// WithKKTCheck additionally requires, for termination, that every variable
// held at zero outside the active set has a marginal utility of at most the
// active-set average plus ε (the boundary half of the optimality conditions
// in section 5.3). The paper's own termination test omits this; it is
// implied by the active-set re-admission rule but checking it makes the
// convergence claim explicit.
func WithKKTCheck() Option {
	return func(a *Allocator) { a.kktCheck = true }
}

// Allocator runs the decentralized file allocation iteration in-process.
// It is the centralized counterpart of the agent runtime: both plan steps
// with PlanStep, so their trajectories are identical.
type Allocator struct {
	obj     Objective
	groups  [][]int
	alpha   float64
	epsilon float64
	maxIter int
	trace   func(Iteration)

	dynamicSafety float64
	adapt         *AdaptAlphaConfig
	kktCheck      bool
}

// NewAllocator returns a solver for the given objective.
func NewAllocator(obj Objective, opts ...Option) (*Allocator, error) {
	if obj == nil {
		return nil, fmt.Errorf("%w: nil objective", ErrBadConfig)
	}
	a := &Allocator{
		obj:     obj,
		alpha:   0.1,
		epsilon: 1e-3,
		maxIter: 10000,
	}
	for _, opt := range opts {
		opt(a)
	}
	switch {
	case a.alpha <= 0 || math.IsNaN(a.alpha):
		return nil, fmt.Errorf("%w: alpha = %v", ErrBadConfig, a.alpha)
	case a.epsilon <= 0:
		return nil, fmt.Errorf("%w: epsilon = %v", ErrBadConfig, a.epsilon)
	case a.maxIter < 1:
		return nil, fmt.Errorf("%w: max iterations = %d", ErrBadConfig, a.maxIter)
	case a.dynamicSafety < 0 || a.dynamicSafety > 1:
		return nil, fmt.Errorf("%w: dynamic-alpha safety = %v", ErrBadConfig, a.dynamicSafety)
	}
	if a.dynamicSafety > 0 {
		if _, ok := obj.(Curvature); !ok {
			return nil, fmt.Errorf("%w: dynamic alpha requires a Curvature objective", ErrBadConfig)
		}
	}
	if a.adapt != nil {
		if a.adapt.Factor <= 0 || a.adapt.Factor >= 1 {
			return nil, fmt.Errorf("%w: adaptive-alpha factor = %v", ErrBadConfig, a.adapt.Factor)
		}
		if a.adapt.Patience < 1 {
			return nil, fmt.Errorf("%w: adaptive-alpha patience = %d", ErrBadConfig, a.adapt.Patience)
		}
	}
	if g, ok := obj.(Grouped); ok {
		a.groups = g.Groups()
	}
	if len(a.groups) == 0 {
		all := make([]int, obj.Dim())
		for i := range all {
			all[i] = i
		}
		a.groups = [][]int{all}
	}
	if err := validateGroups(a.groups, obj.Dim()); err != nil {
		return nil, err
	}
	return a, nil
}

func validateGroups(groups [][]int, dim int) error {
	seen := make([]bool, dim)
	for _, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("%w: empty constraint group", ErrBadConfig)
		}
		for _, gi := range g {
			if gi < 0 || gi >= dim {
				return fmt.Errorf("%w: group index %d outside dimension %d", ErrDimension, gi, dim)
			}
			if seen[gi] {
				return fmt.Errorf("%w: variable %d appears in two groups", ErrBadConfig, gi)
			}
			seen[gi] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("%w: variable %d belongs to no group", ErrBadConfig, i)
		}
	}
	return nil
}

// CheckFeasible verifies that x has the objective's dimension, is
// non-negative, and that each constraint group sums to the corresponding
// total (within a small tolerance).
func (a *Allocator) CheckFeasible(x []float64, totals []float64) error {
	if len(x) != a.obj.Dim() {
		return fmt.Errorf("%w: allocation has %d entries for dimension %d", ErrDimension, len(x), a.obj.Dim())
	}
	if len(totals) != len(a.groups) {
		return fmt.Errorf("%w: %d totals for %d groups", ErrDimension, len(totals), len(a.groups))
	}
	for i, v := range x {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: x[%d] = %v", ErrInfeasible, i, v)
		}
	}
	for gi, g := range a.groups {
		var sum float64
		for _, idx := range g {
			sum += x[idx]
		}
		if math.Abs(sum-totals[gi]) > 1e-9*math.Max(1, totals[gi]) {
			return fmt.Errorf("%w: group %d sums to %v, want %v", ErrInfeasible, gi, sum, totals[gi])
		}
	}
	return nil
}

// Scratch holds every buffer a solve needs — the working allocation, the
// gradient, per-group step planning buffers, and the dynamic-α Hessian —
// so repeated solves reuse one set of allocations. The zero value is
// ready to use; buffers grow on first use and are reused (or regrown)
// by later runs of any dimension. A Scratch is single-goroutine: sweeps
// build one per worker (sweep.RunWithScratch pairs naturally with
// NewScratch).
type Scratch struct {
	x, grad, hess, xPrev, totals []float64
	steps                        []Step
}

// NewScratch returns an empty Scratch. It exists so callers can pass the
// constructor itself where a factory is expected (e.g.
// sweep.RunWithScratch(ctx, n, workers, core.NewScratch, fn)).
func NewScratch() *Scratch { return &Scratch{} }

// Run iterates from the initial allocation init until convergence, stall,
// cancellation, or the iteration budget. init is not modified. Totals are
// inferred from init: each group conserves its initial sum, so init must
// already be feasible for the intended problem (e.g. sum 1 for a single
// file, m for m copies).
func (a *Allocator) Run(ctx context.Context, init []float64) (Result, error) {
	// A fresh scratch per call keeps Run's historical contract: the
	// returned Result.X is exclusively the caller's.
	return a.RunWithScratch(ctx, init, &Scratch{})
}

// RunWithScratch is Run drawing every buffer from s, so a caller solving
// many instances (a stepsize sweep, a grid search) allocates the solve
// machinery once and reuses it: after the first call on a given problem
// shape, subsequent calls allocate nothing (asserted by
// TestRunWithScratchSteadyStateAllocFree). A nil s runs with a private
// scratch, equivalent to Run.
//
// The returned Result.X aliases s and is overwritten by the next run
// using the same scratch — copy it to retain it. Results are
// byte-identical to Run's for the same inputs.
func (a *Allocator) RunWithScratch(ctx context.Context, init []float64, s *Scratch) (Result, error) {
	if s == nil {
		s = &Scratch{}
	}
	u, err := a.prepare(init, s)
	if err != nil {
		return Result{}, err
	}
	return a.iterate(ctx, s, u, a.maxIter, a.kktCheck)
}

// prepare adopts init as the working allocation in s — checking it is
// feasible for the totals it implies, since each group conserves its
// initial sum — sizes every per-iteration buffer, and returns U(init).
// init may alias s.x (the warm solver's cold continuation re-adopts its
// own iterate in place).
func (a *Allocator) prepare(init []float64, s *Scratch) (float64, error) {
	s.totals = growFloats(s.totals, len(a.groups))
	for gi, g := range a.groups {
		s.totals[gi] = 0
		for _, idx := range g {
			if idx < len(init) {
				s.totals[gi] += init[idx]
			}
		}
	}
	if err := a.CheckFeasible(init, s.totals); err != nil {
		return 0, err
	}
	s.x = growFloats(s.x, len(init))
	copy(s.x, init)
	s.grad = growFloats(s.grad, len(init))
	clear(s.grad)
	// PlanStepInto reuses each group's Delta/Active buffers, growing them
	// in place when a larger group appears, so steps keeps its entries.
	if cap(s.steps) < len(a.groups) {
		steps := make([]Step, len(a.groups))
		copy(steps, s.steps)
		s.steps = steps
	} else {
		s.steps = s.steps[:len(a.groups)]
	}
	if a.dynamicSafety > 0 {
		s.hess = growFloats(s.hess, len(init))
		s.xPrev = growFloats(s.xPrev, len(init))
		clear(s.hess)
		clear(s.xPrev)
	}
	u, err := a.obj.Utility(s.x)
	if err != nil {
		return 0, fmt.Errorf("core: evaluating initial utility: %w", err)
	}
	return u, nil
}

// maxHalvings bounds the Theorem-2 backtracking guard: after this many
// halvings of α no representable step makes progress.
const maxHalvings = 48

// iterate is the solver: the section 5.2 iteration run on the allocation
// prepare left in s, whose utility is u, for at most budget steps. A cold
// solve runs it with the maxIter budget. A warm solve runs it first with
// its MaxSteps budget and the boundary-KKT test forced on (kkt), then, if
// that phase ends without a certified convergence, once more as a cold
// solve from the iterate it reached. Running out of budget returns
// StopMaxIterations with the allocation reached.
//
// Every buffer comes from s, so the loop is allocation-free (asserted by
// TestRunInnerLoopAllocFree and TestWarmSolveSteadyStateAllocFree). It
// stays reentrant because each call owns its scratch; sharing one Scratch
// across concurrent runs is the caller's bug.
//
//fap:zeroalloc
func (a *Allocator) iterate(ctx context.Context, s *Scratch, u float64, budget int, kkt bool) (Result, error) {
	x, grad, steps := s.x, s.grad, s.steps
	dynamic := a.dynamicSafety > 0
	curv, _ := a.obj.(Curvature) // NewAllocator checks it when dynamic
	alpha := a.alpha
	if a.trace != nil {
		a.trace(Iteration{Index: 0, X: x, Utility: u, Alpha: alpha})
	}

	decreases := 0
	prevU := u
	// Cancellation is polled every iteration by a non-blocking receive
	// on the Done channel, loaded once: ctx.Err() locks the context's
	// mutex, which every sweep worker sharing the context would contend
	// on each step.
	done := ctx.Done()
	for iter := 1; iter <= budget; iter++ {
		select {
		case <-done:
			return Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: StopCanceled}, nil
		default:
		}
		if err := a.obj.Gradient(grad, x); err != nil {
			return Result{}, fmt.Errorf("core: gradient at iteration %d: %w", iter, err)
		}
		if dynamic {
			if err := curv.SecondDerivative(s.hess, x); err != nil {
				return Result{}, fmt.Errorf("core: dynamic alpha at iteration %d: %w", iter, err)
			}
			if dyn := DynamicAlpha(grad, s.hess, a.groups, a.dynamicSafety); dyn > 0 {
				alpha = dyn
			}
		}

		plan, err := PlanRound(steps, x, grad, a.groups, alpha, a.epsilon, kkt)
		if err != nil {
			return Result{}, fmt.Errorf("core: planning iteration %d: %w", iter, err)
		}
		if plan.Converged {
			return Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: StopConverged, Converged: true}, nil
		}
		if !plan.Movable {
			return Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: StopStalled}, nil
		}

		// Theorem-2 backtracking guard, dynamic stepsize only: the bound is
		// evaluated at the pre-step point, and M/M/1 curvature grows along
		// the step, so a large move can overshoot the bound's validity
		// region and lower U. Halving α — replanning and reapplying from
		// the saved iterate — restores the monotone-ascent contract
		// WithDynamicAlpha documents; trajectories that never overshoot
		// are untouched. An overshot step can also leave the iterate
		// outside the model's domain entirely (a queue driven past its
		// service rate has infinite cost, so Utility errors rather than
		// returning a number); that counts as a utility of -Inf, so the
		// guard halves α until the step lands back inside the domain.
		if dynamic {
			copy(s.xPrev, x)
		}
		for halvings := 0; ; halvings++ {
			for gi, g := range a.groups {
				if err := steps[gi].Apply(x, g); err != nil {
					return Result{}, fmt.Errorf("core: applying iteration %d: %w", iter, err)
				}
			}
			if u, err = a.obj.Utility(x); err != nil {
				if !dynamic {
					return Result{}, fmt.Errorf("core: utility at iteration %d: %w", iter, err)
				}
				u = math.Inf(-1)
			}
			if !dynamic || u >= prevU || halvings == maxHalvings {
				break
			}
			alpha /= 2
			copy(x, s.xPrev)
			// Replan without the termination test, which the backtrack
			// does not need: stiff instances halve many times per step.
			for gi, g := range a.groups {
				if err := PlanStepInto(&steps[gi], x, grad, g, alpha); err != nil {
					return Result{}, fmt.Errorf("core: replanning iteration %d: %w", iter, err)
				}
			}
		}
		if dynamic && u < prevU {
			// No stepsize makes representable progress: hold the last
			// good iterate rather than accept a descent.
			copy(x, s.xPrev)
			return Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: StopStalled}, nil
		}
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return Result{}, fmt.Errorf("%w: utility %v at iteration %d", ErrDiverged, u, iter)
		}
		if a.trace != nil {
			a.trace(Iteration{Index: iter, X: x, Utility: u, Spread: plan.Spread, Alpha: alpha})
		}

		if a.adapt != nil {
			if u < prevU {
				decreases++
				if decreases >= a.adapt.Patience {
					decreases = 0
					if next := alpha * a.adapt.Factor; next >= a.adapt.MinAlpha {
						alpha = next
					}
				}
			}
			if a.adapt.CostDelta > 0 && math.Abs(u-prevU) < a.adapt.CostDelta {
				return Result{X: x, Utility: u, Iterations: iter, Reason: StopCostDelta, Converged: true}, nil
			}
		}
		prevU = u
	}
	return Result{X: x, Utility: prevU, Iterations: budget, Reason: StopMaxIterations}, nil
}

// RoundPlan summarizes one iteration planned over every constraint group.
type RoundPlan struct {
	// Spread is the largest marginal-utility spread over any group's
	// active set.
	Spread float64
	// Converged reports that the termination test holds: every group's
	// spread is below ε and, when the boundary test is on, every group
	// satisfies the KKT boundary condition (see WithKKTCheck).
	Converged bool
	// Movable reports that at least one planned step moves something;
	// when it is false and Converged is not, the iteration has stalled.
	Movable bool
}

// PlanRound plans one iteration: a PlanStepInto per group into the
// matching entry of steps (len(steps) must equal len(groups)), evaluated
// against section 5.2's termination test with threshold eps, plus the
// boundary half of the KKT conditions when kkt is set. Every solver —
// the centralized Allocator and the agents' coordinator and multi-file
// rounds — plans and tests its iterations through it, so they stop on
// identical criteria.
//
//fap:zeroalloc
func PlanRound(steps []Step, x, grad []float64, groups [][]int, alpha, eps float64, kkt bool) (RoundPlan, error) {
	plan := RoundPlan{Converged: true}
	for gi, g := range groups {
		st := &steps[gi]
		if err := PlanStepInto(st, x, grad, g, alpha); err != nil {
			return RoundPlan{}, err
		}
		sp := st.Spread(grad, g)
		if sp > plan.Spread {
			plan.Spread = sp
		}
		if sp >= eps || kkt && !kktHolds(*st, grad, x, g, eps) {
			plan.Converged = false
		}
		if !st.IsNoOp() {
			plan.Movable = true
		}
	}
	return plan, nil
}

// kktHolds reports whether every variable excluded from the active set and
// held at (numerically) zero satisfies the boundary optimality condition
// ∂U/∂x_i ≤ q + ε.
//
//fap:zeroalloc
func kktHolds(st Step, grad, x []float64, group []int, eps float64) bool {
	for k, gi := range group {
		if st.Active[k] {
			continue
		}
		if x[gi] <= 1e-12 && grad[gi] > st.AvgMarginal+eps {
			return false
		}
	}
	return true
}

// DynamicAlpha evaluates the Theorem-2 stepsize bound
//
//	α < 2·Σ g_i(g_i − ḡ) / |Σ h_i (g_i − ḡ)²|
//
// summed over every group (ḡ is each group's mean marginal utility), from
// the marginal utilities grad and second derivatives hess, scaled by
// safety. It returns 0 when the expression is degenerate (already
// converged or flat). The Allocator's dynamic stepsize and the broadcast
// agents' round stepsize both come from it, so the decentralized
// trajectory matches the centralized one bit for bit.
//
//fap:zeroalloc
func DynamicAlpha(grad, hess []float64, groups [][]int, safety float64) float64 {
	var num, den float64
	for _, g := range groups {
		var avg float64
		for _, gi := range g {
			avg += grad[gi]
		}
		avg /= float64(len(g))
		for _, gi := range g {
			dev := grad[gi] - avg
			num += dev * dev // Lemma 1: Σ g(g−ḡ) = Σ (g−ḡ)²
			den += hess[gi] * dev * dev
		}
	}
	den = math.Abs(den)
	if den < 1e-300 || num <= 0 {
		return 0
	}
	return safety * 2 * num / den
}
