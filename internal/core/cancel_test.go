package core_test

import (
	"context"
	"math"
	"testing"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/topology"
)

// ringObject builds one catalog-shaped object: a file on an 8-node
// uniform ring with round-trip access costs, weighted by a skewed
// per-node demand, at the catalog's default μ = 1.5, λ = 1, k = 1.
func ringObject(t *testing.T) *costmodel.SingleFile {
	t.Helper()
	const nodes = 8
	ring, err := topology.Ring(nodes, 1)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	pair, err := topology.PairCosts(ring, topology.RoundTrip)
	if err != nil {
		t.Fatalf("PairCosts: %v", err)
	}
	demand := make([]float64, nodes)
	var total float64
	for j := range demand {
		demand[j] = 1 / float64(j+1)
		total += demand[j]
	}
	access := make([]float64, nodes)
	for i := range access {
		for j, dj := range demand {
			access[i] += dj * pair[j][i] / total
		}
	}
	m, err := costmodel.NewSingleFile(access, []float64{1.5}, 1, 1)
	if err != nil {
		t.Fatalf("NewSingleFile: %v", err)
	}
	return m
}

// phaseIter names one traced iterate: phase counts the iteration loops
// a solve ran (a warm solve's cold continuation is phase 2), index is
// the iteration within that loop.
type phaseIter struct{ phase, index int }

// iterRecorder is a trace hook that copies every iterate and, when
// cancel is set, cancels the solve's context at iterate cancelAt.
type iterRecorder struct {
	phase    int
	iterates map[phaseIter]core.Iteration
	cancelAt phaseIter
	cancel   context.CancelFunc
}

func (r *iterRecorder) hook(it core.Iteration) {
	if it.Index == 0 {
		r.phase++
	}
	key := phaseIter{r.phase, it.Index}
	it.X = append([]float64(nil), it.X...)
	r.iterates[key] = it
	if r.cancel != nil && key == r.cancelAt {
		r.cancel()
	}
}

// TestCancelAtIteration pins cancellation promptness inside a running
// solve: a context canceled at the end of iteration k stops the loop
// before iteration k+1, reporting exactly k iterations and the iterate
// the uncanceled solve held at k, bit for bit. It covers a cold solve,
// the warm phase of a warm solve, and the cold continuation a warm solve
// falls back to.
func TestCancelAtIteration(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		name     string
		warm     bool
		at       phaseIter
		fellBack bool
	}{
		{name: "cold", at: phaseIter{1, k}},
		{name: "warm_phase", warm: true, at: phaseIter{1, k}},
		{name: "cold_continuation", warm: true, at: phaseIter{2, k}, fellBack: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := ringObject(t)
			solve := func(ctx context.Context, rec *iterRecorder) (core.Result, bool) {
				t.Helper()
				alloc, err := core.NewAllocator(m,
					core.WithDynamicAlpha(0.5),
					core.WithEpsilon(1e-6),
					core.WithKKTCheck(),
					core.WithTrace(rec.hook))
				if err != nil {
					t.Fatalf("NewAllocator: %v", err)
				}
				init := make([]float64, m.Dim())
				for i := range init {
					init[i] = 1 / float64(len(init))
				}
				if !tc.warm {
					res, err := alloc.RunWithScratch(ctx, init, nil)
					if err != nil {
						t.Fatalf("RunWithScratch: %v", err)
					}
					return res, false
				}
				// A uniform start is far from this object's optimum, so
				// an 8-step warm budget runs out and falls back.
				warm, err := core.NewWarmSolver(alloc, core.WarmConfig{
					MaxSteps: 8,
					Certify: func(x []float64, q float64) error {
						return m.VerifyKKT(x, q, 1e-5)
					},
				})
				if err != nil {
					t.Fatalf("NewWarmSolver: %v", err)
				}
				res, fellBack, err := warm.SolveWarm(ctx, init, nil)
				if err != nil {
					t.Fatalf("SolveWarm: %v", err)
				}
				return res, fellBack
			}

			ref := &iterRecorder{iterates: map[phaseIter]core.Iteration{}}
			refRes, refFellBack := solve(context.Background(), ref)
			if tc.warm && !refFellBack {
				t.Fatalf("reference warm solve did not fall back: %+v", refRes)
			}
			next := phaseIter{tc.at.phase, tc.at.index + 1}
			if _, ok := ref.iterates[next]; !ok {
				t.Fatalf("reference solve never reached iterate %+v; pick a smaller k", next)
			}
			want := ref.iterates[tc.at]

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rec := &iterRecorder{iterates: map[phaseIter]core.Iteration{}, cancelAt: tc.at, cancel: cancel}
			res, fellBack := solve(ctx, rec)
			if res.Reason != core.StopCanceled {
				t.Fatalf("reason = %v, want canceled", res.Reason)
			}
			if res.Iterations != k {
				t.Errorf("iterations = %d, want %d", res.Iterations, k)
			}
			if fellBack != tc.fellBack {
				t.Errorf("fellBack = %v, want %v", fellBack, tc.fellBack)
			}
			if _, ok := rec.iterates[next]; ok {
				t.Errorf("canceled solve still ran iterate %+v", next)
			}
			if len(res.X) != len(want.X) {
				t.Fatalf("len(X) = %d, want %d", len(res.X), len(want.X))
			}
			for i := range want.X {
				if math.Float64bits(res.X[i]) != math.Float64bits(want.X[i]) {
					t.Errorf("X[%d] = %v, want iterate %d's %v bit for bit", i, res.X[i], k, want.X[i])
				}
			}
			if math.Float64bits(res.Utility) != math.Float64bits(want.Utility) {
				t.Errorf("utility = %v, want iterate %d's %v", res.Utility, k, want.Utility)
			}
		})
	}
}
