// Package secondorder implements the second-derivative variant of the
// allocation algorithm sketched in the paper's section 8.2 ("We are at the
// moment investigating the use of second derivative information in this
// algorithm"). Instead of moving proportionally to the deviation of the raw
// marginal utility from its average, the step scales each deviation by the
// local curvature:
//
//	Δx_i = α·(g_i − ν)/|h_i|,   ν = Σ_j (g_j/|h_j|) / Σ_j (1/|h_j|)
//
// where g_i = ∂U/∂x_i and h_i = ∂²U/∂x_i². ν is the curvature-weighted
// average chosen so the deltas sum to zero (feasibility, as in Theorem 1);
// because the deltas approximate a projected Newton step, α = 1 recovers
// the Newton iterate on separable quadratics. The same construction powers
// the center-free algorithms of Ho, Servi & Suri and the second-derivative
// routing of Bertsekas–Gafni–Gallager, both cited by the paper.
//
// The two properties the paper reports from its pilot study fall out
// directly:
//
//   - Scale resilience: multiplying the utility by a constant rescales g
//     and h together, leaving Δx unchanged, so convergence speed is
//     unaffected by link-cost or service-rate scaling.
//   - Stepsize tolerance: the normalized step is a contraction for any
//     α ∈ (0, 2) on separable concave objectives, a much wider window than
//     the first-order algorithm's problem-dependent bound.
package secondorder

import (
	"context"
	"errors"
	"fmt"
	"math"

	"filealloc/internal/core"
)

// ErrBadObjective is returned when the objective lacks curvature
// information or yields unusable second derivatives.
var ErrBadObjective = errors.New("secondorder: objective unusable")

// curvatureObjective pairs the Objective and Curvature interfaces.
type curvatureObjective interface {
	core.Objective
	core.Curvature
}

// PlanStep computes one curvature-scaled step over a constraint group with
// the same active-set handling as the first-order algorithm: boundary
// variables that would shrink are excluded (and the weighted average ν
// recomputed), excluded variables whose marginal utility beats ν are
// re-admitted, and the final step is ratio-truncated to preserve
// non-negativity. The objective must be strictly concave along every
// coordinate (h_i < 0) at x.
func PlanStep(x, grad, hess []float64, group []int, alpha float64) (core.Step, error) {
	if len(x) != len(grad) || len(x) != len(hess) {
		return core.Step{}, fmt.Errorf("%w: x/grad/hess length mismatch", core.ErrDimension)
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return core.Step{}, fmt.Errorf("%w: alpha = %v", core.ErrBadConfig, alpha)
	}
	m := len(group)
	if m == 0 {
		return core.Step{}, fmt.Errorf("%w: empty constraint group", core.ErrBadConfig)
	}
	for _, gi := range group {
		if gi < 0 || gi >= len(x) {
			return core.Step{}, fmt.Errorf("%w: group index %d outside dimension %d", core.ErrDimension, gi, len(x))
		}
		if math.IsNaN(grad[gi]) || math.IsInf(grad[gi], 0) {
			return core.Step{}, fmt.Errorf("%w: non-finite marginal utility at %d", core.ErrDiverged, gi)
		}
		if !(hess[gi] < 0) || math.IsInf(hess[gi], 0) {
			return core.Step{}, fmt.Errorf("%w: need strictly negative curvature, h[%d] = %v", ErrBadObjective, gi, hess[gi])
		}
	}

	step := core.Step{
		Delta:      make([]float64, m),
		Active:     make([]bool, m),
		Truncation: 1,
	}
	for k := range step.Active {
		step.Active[k] = true
	}
	const boundaryTol = 1e-12

	for pass := 0; ; pass++ {
		if pass > 4*m+4 {
			return core.Step{}, fmt.Errorf("%w: active-set computation did not reach a fixed point", core.ErrDiverged)
		}
		// Curvature-weighted average ν over the active set.
		var num, den float64
		active := 0
		for k, on := range step.Active {
			if on {
				gi := group[k]
				w := 1 / -hess[gi]
				num += grad[gi] * w
				den += w
				active++
			}
		}
		if active == 0 {
			for k := range step.Delta {
				step.Delta[k] = 0
			}
			step.AvgMarginal = math.NaN()
			return step, nil
		}
		nu := num / den
		step.AvgMarginal = nu
		for k, on := range step.Active {
			if on {
				gi := group[k]
				step.Delta[k] = alpha * (grad[gi] - nu) / -hess[gi]
			} else {
				step.Delta[k] = 0
			}
		}
		if active == 1 {
			return step, nil
		}

		dropped := false
		for k, on := range step.Active {
			if on && x[group[k]] <= boundaryTol && step.Delta[k] <= 0 {
				step.Active[k] = false
				dropped = true
			}
		}
		if dropped {
			continue
		}
		best := -1
		for k, on := range step.Active {
			if !on && (best < 0 || grad[group[k]] > grad[group[best]]) {
				best = k
			}
		}
		if best >= 0 && grad[group[best]] > nu {
			step.Active[best] = true
			continue
		}
		break
	}

	t := 1.0
	for k, gi := range group {
		if d := step.Delta[k]; d < 0 {
			if ratio := x[gi] / -d; ratio < t {
				t = ratio
			}
		}
	}
	if t < 1 {
		step.Truncation = t
		for k := range step.Delta {
			step.Delta[k] *= t
		}
	}
	return step, nil
}

// Option configures an Allocator.
type Option func(*Allocator)

// WithAlpha sets the normalized stepsize (default 1, the Newton step).
func WithAlpha(alpha float64) Option {
	return func(a *Allocator) { a.alpha = alpha }
}

// WithEpsilon sets the termination threshold on the marginal-utility
// spread (default 1e-3).
func WithEpsilon(eps float64) Option {
	return func(a *Allocator) { a.epsilon = eps }
}

// WithMaxIterations bounds the run (default 10000).
func WithMaxIterations(n int) Option {
	return func(a *Allocator) { a.maxIter = n }
}

// WithTrace registers a per-iteration hook.
func WithTrace(fn func(core.Iteration)) Option {
	return func(a *Allocator) { a.trace = fn }
}

// Allocator runs the second-derivative algorithm.
type Allocator struct {
	obj     curvatureObjective
	groups  [][]int
	alpha   float64
	epsilon float64
	maxIter int
	trace   func(core.Iteration)
}

// NewAllocator builds a second-order solver; the objective must implement
// core.Curvature.
func NewAllocator(obj core.Objective, opts ...Option) (*Allocator, error) {
	if obj == nil {
		return nil, fmt.Errorf("%w: nil objective", core.ErrBadConfig)
	}
	curved, ok := obj.(curvatureObjective)
	if !ok {
		return nil, fmt.Errorf("%w: objective does not expose second derivatives", ErrBadObjective)
	}
	a := &Allocator{
		obj:     curved,
		alpha:   1,
		epsilon: 1e-3,
		maxIter: 10000,
	}
	for _, opt := range opts {
		opt(a)
	}
	switch {
	case a.alpha <= 0 || math.IsNaN(a.alpha):
		return nil, fmt.Errorf("%w: alpha = %v", core.ErrBadConfig, a.alpha)
	case a.epsilon <= 0:
		return nil, fmt.Errorf("%w: epsilon = %v", core.ErrBadConfig, a.epsilon)
	case a.maxIter < 1:
		return nil, fmt.Errorf("%w: max iterations = %d", core.ErrBadConfig, a.maxIter)
	}
	if g, ok := obj.(core.Grouped); ok {
		a.groups = g.Groups()
	}
	if len(a.groups) == 0 {
		all := make([]int, obj.Dim())
		for i := range all {
			all[i] = i
		}
		a.groups = [][]int{all}
	}
	return a, nil
}

// Run iterates from init until the marginal-utility spread over every
// group's active set falls below ε.
func (a *Allocator) Run(ctx context.Context, init []float64) (core.Result, error) {
	if len(init) != a.obj.Dim() {
		return core.Result{}, fmt.Errorf("%w: init has %d entries for dimension %d", core.ErrDimension, len(init), a.obj.Dim())
	}
	for i, v := range init {
		if v < 0 || math.IsNaN(v) {
			return core.Result{}, fmt.Errorf("%w: init[%d] = %v", core.ErrInfeasible, i, v)
		}
	}
	x := append([]float64(nil), init...)
	grad := make([]float64, len(x))
	hess := make([]float64, len(x))

	u, err := a.obj.Utility(x)
	if err != nil {
		return core.Result{}, fmt.Errorf("secondorder: evaluating initial utility: %w", err)
	}
	if a.trace != nil {
		a.trace(core.Iteration{Index: 0, X: x, Utility: u, Alpha: a.alpha})
	}
	prevU := u
	done := ctx.Done()
	for iter := 1; iter <= a.maxIter; iter++ {
		select {
		case <-done:
			return core.Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: core.StopCanceled}, nil
		default:
		}
		if err := a.obj.Gradient(grad, x); err != nil {
			return core.Result{}, fmt.Errorf("secondorder: gradient at iteration %d: %w", iter, err)
		}
		if err := a.obj.SecondDerivative(hess, x); err != nil {
			return core.Result{}, fmt.Errorf("secondorder: curvature at iteration %d: %w", iter, err)
		}
		steps := make([]core.Step, len(a.groups))
		converged := true
		movable := false
		spread := 0.0
		for gi, g := range a.groups {
			st, err := PlanStep(x, grad, hess, g, a.alpha)
			if err != nil {
				return core.Result{}, fmt.Errorf("secondorder: planning iteration %d: %w", iter, err)
			}
			steps[gi] = st
			sp := st.Spread(grad, g)
			if sp > spread {
				spread = sp
			}
			if sp >= a.epsilon {
				converged = false
			}
			if !st.IsNoOp() {
				movable = true
			}
		}
		if converged {
			return core.Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: core.StopConverged, Converged: true}, nil
		}
		if !movable {
			return core.Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: core.StopStalled}, nil
		}
		for gi, g := range a.groups {
			if err := steps[gi].Apply(x, g); err != nil {
				return core.Result{}, fmt.Errorf("secondorder: applying iteration %d: %w", iter, err)
			}
		}
		u, err := a.obj.Utility(x)
		if err != nil {
			return core.Result{}, fmt.Errorf("secondorder: utility at iteration %d: %w", iter, err)
		}
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return core.Result{}, fmt.Errorf("%w: utility %v at iteration %d", core.ErrDiverged, u, iter)
		}
		if a.trace != nil {
			a.trace(core.Iteration{Index: iter, X: x, Utility: u, Spread: spread, Alpha: a.alpha})
		}
		prevU = u
	}
	return core.Result{X: x, Utility: prevU, Iterations: a.maxIter, Reason: core.StopMaxIterations}, nil
}
