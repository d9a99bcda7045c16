package core

import (
	"context"
	"fmt"
)

// Solver is the shared entry point for whole solves: cold solves
// (Allocator.RunWithScratch), warm-start incremental re-solves
// (WarmSolver), and any future strategy plug into batch machinery — a
// catalog sweep, a grid search — through this one signature. init is the
// starting allocation (its group sums define the conserved totals) and s
// supplies every buffer, so steady-state calls allocate nothing. The
// returned Result.X aliases s and is overwritten by the next solve using
// the same scratch.
type Solver interface {
	Solve(ctx context.Context, init []float64, s *Scratch) (Result, error)
}

// Solve implements Solver by running a full cold solve; it is
// RunWithScratch under the interface's name.
func (a *Allocator) Solve(ctx context.Context, init []float64, s *Scratch) (Result, error) {
	return a.RunWithScratch(ctx, init, s)
}

var (
	_ Solver = (*Allocator)(nil)
	_ Solver = (*WarmSolver)(nil)
)

// WarmConfig tunes a WarmSolver.
type WarmConfig struct {
	// MaxSteps is the incremental-step budget before the solver falls
	// back to a full cold solve (default 16). A warm start near the old
	// optimum normally converges in a handful of steps; exhausting the
	// budget means the problem moved too far for incremental repair.
	MaxSteps int
	// Certify, when non-nil, is consulted once the internal criterion
	// (marginal-utility spread below ε plus the boundary KKT check)
	// holds: it receives the candidate allocation and the common
	// marginal *cost* level q implied by the final planned step, and a
	// non-nil error vetoes the early exit, sending the solve to the
	// cold fallback. Wiring costmodel.VerifyKKT here makes every warm
	// exit carry an independent optimality certificate. The hook is
	// only invoked for single-group problems; grouped objectives skip
	// certification (q is per-group there).
	Certify func(x []float64, q float64) error
}

// WarmSolver re-solves a problem whose parameters drifted slightly, seeded
// from the previous allocation. It runs the Allocator's own iteration —
// the same loop a cold solve runs, at the Allocator's α (dynamic if
// configured) — under a small step budget, with the boundary KKT test
// always on, and exits as soon as that test and the optional certificate
// hold. If the budget runs out, the iteration stalls, or the certificate
// vetoes the exit — the drift was too large for incremental repair — it
// continues as a full cold solve from the iterate reached, so the result
// is always a converged allocation when the underlying Allocator
// converges.
//
// A WarmSolver is stateless between calls and safe for concurrent use as
// long as each call gets its own Scratch (the same contract as
// RunWithScratch).
type WarmSolver struct {
	cold     *Allocator
	maxSteps int
	certify  func(x []float64, q float64) error
}

// NewWarmSolver wraps an Allocator with the warm-start strategy.
func NewWarmSolver(cold *Allocator, cfg WarmConfig) (*WarmSolver, error) {
	if cold == nil {
		return nil, fmt.Errorf("%w: nil cold allocator", ErrBadConfig)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 16
	}
	if cfg.MaxSteps < 1 {
		return nil, fmt.Errorf("%w: warm step budget = %d", ErrBadConfig, cfg.MaxSteps)
	}
	return &WarmSolver{cold: cold, maxSteps: cfg.MaxSteps, certify: cfg.Certify}, nil
}

// Solve implements Solver.
func (w *WarmSolver) Solve(ctx context.Context, init []float64, s *Scratch) (Result, error) {
	res, _, err := w.SolveWarm(ctx, init, s)
	return res, err
}

// SolveWarm is Solve additionally reporting whether the incremental
// budget was exhausted and the full cold fallback ran (callers batching
// many objects count warm hits vs. fallbacks from it). After a fallback
// the Result describes the cold continuation alone: its Iterations do not
// include the warm steps taken before it.
func (w *WarmSolver) SolveWarm(ctx context.Context, init []float64, s *Scratch) (Result, bool, error) {
	a := w.cold
	if s == nil {
		s = &Scratch{}
	}
	u, err := a.prepare(init, s)
	if err != nil {
		return Result{}, false, err
	}
	res, err := a.iterate(ctx, s, u, w.maxSteps, true)
	if err != nil {
		return Result{}, false, err
	}
	if res.Reason == StopCanceled || res.Reason == StopConverged && w.certified(s) {
		return res, false, nil
	}
	// Continue as a full cold solve from the current iterate, which
	// RunWithScratch re-adopts from s.x in place.
	res, err = a.RunWithScratch(ctx, s.x, s)
	return res, true, err
}

// certified reports whether the warm exit the last iteration in s
// converged on carries the certificate. Only single-group problems are
// certified (q is per-group otherwise); the step's AvgMarginal is the
// active set's mean marginal utility, and the section-5.3 price is the
// marginal cost, its negation.
func (w *WarmSolver) certified(s *Scratch) bool {
	if w.certify == nil || len(w.cold.groups) != 1 {
		return true
	}
	return w.certify(s.x, -s.steps[0].AvgMarginal) == nil
}
