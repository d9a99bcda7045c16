package catalog

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
)

// solverGoldenDigest is the SHA-256 of every solver output the catalog
// and the warm/cold properties depend on, recorded before the cold and
// warm solve loops were merged. A change to the solver that moves any
// pinned bit changes the digest; it must never be re-recorded to make a
// refactor pass.
const solverGoldenDigest = "0feea3a6753d87b91586dcda94163a2427fbe49ef44ca94b09c0a2ea71be7972"

// TestSolverGoldenDigest hashes, bit for bit, three groups of solver
// outputs into one digest:
//   - the catalog snapshot of the TestCatalogDeterminism scenario;
//   - every Result of the TestWarmResolveMatchesColdProperty instances
//     (the pre-drift cold solve, the warm re-solve with its fallback
//     flag, and the cold re-solve of the drifted problem);
//   - the warm and cold solves of the domain-overshoot instance.
func TestSolverGoldenDigest(t *testing.T) {
	h := sha256.New()
	snap, _ := runScenario(t, 1, 0)
	h.Write(snap)
	hashWarmColdInstances(t, h)
	hashOvershootInstance(t, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != solverGoldenDigest {
		t.Errorf("solver golden digest = %s, want %s", got, solverGoldenDigest)
	}
}

// hashResult folds one solve's Result and fallback flag into h.
func hashResult(h hash.Hash, res core.Result, fellBack bool) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(res.X)))
	for _, v := range res.X {
		word(math.Float64bits(v))
	}
	word(math.Float64bits(res.Utility))
	word(uint64(res.Iterations))
	word(uint64(res.Reason))
	if fellBack {
		word(1)
	} else {
		word(0)
	}
}

// hashWarmColdInstances replays the thousand randomized drift instances
// of TestWarmResolveMatchesColdProperty (same seed, same draws, same
// solver settings) and hashes every solve.
func hashWarmColdInstances(t *testing.T, h hash.Hash) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	warmScratch, coldScratch := core.NewScratch(), core.NewScratch()
	for inst := 0; inst < 1000; inst++ {
		n := 2 + rng.Intn(7)
		access := make([]float64, n)
		for i := range access {
			access[i] = 3 * rng.Float64()
		}
		mu := 1.2 + rng.Float64()
		k := 0.1 + 1.9*rng.Float64()
		model, err := costmodel.NewSingleFile(access, []float64{mu}, 1, k)
		if err != nil {
			t.Fatalf("instance %d: NewSingleFile: %v", inst, err)
		}
		alloc, err := core.NewAllocator(model,
			core.WithDynamicAlpha(0.5),
			core.WithEpsilon(1e-6),
			core.WithKKTCheck(),
			core.WithMaxIterations(100000))
		if err != nil {
			t.Fatalf("instance %d: NewAllocator: %v", inst, err)
		}
		warm, err := core.NewWarmSolver(alloc, core.WarmConfig{
			MaxSteps: 32,
			Certify: func(x []float64, q float64) error {
				return model.VerifyKKT(x, q, 1e-5)
			},
		})
		if err != nil {
			t.Fatalf("instance %d: NewWarmSolver: %v", inst, err)
		}
		uniform := make([]float64, n)
		for i := range uniform {
			uniform[i] = 1 / float64(n)
		}
		staleRes, err := alloc.Solve(ctx, uniform, coldScratch)
		if err != nil {
			t.Fatalf("instance %d: pre-drift solve: %v", inst, err)
		}
		hashResult(h, staleRes, false)
		stale := append([]float64(nil), staleRes.X...)

		drifted := make([]float64, n)
		for i := range drifted {
			drifted[i] = access[i] * (0.25 + 1.5*rng.Float64())
		}
		if err := model.SetAccessCosts(drifted); err != nil {
			t.Fatalf("instance %d: SetAccessCosts: %v", inst, err)
		}
		warmRes, fellBack, err := warm.SolveWarm(ctx, stale, warmScratch)
		if err != nil {
			t.Fatalf("instance %d: warm solve: %v", inst, err)
		}
		hashResult(h, warmRes, fellBack)
		coldRes, err := alloc.Solve(ctx, uniform, coldScratch)
		if err != nil {
			t.Fatalf("instance %d: cold re-solve: %v", inst, err)
		}
		hashResult(h, coldRes, false)
	}
}

// hashOvershootInstance hashes the warm and cold solves of the
// domain-overshoot instance (the one TestWarmSolveRecoversFromDomainOvershoot
// and TestColdSolveRecoversFromDomainOvershoot drive): a Theorem-2 step
// that lands past node 0's stability boundary and must be backtracked.
func hashOvershootInstance(t *testing.T, h hash.Hash) {
	t.Helper()
	model, err := costmodel.NewSingleFile(
		[]float64{0.1, 0.5, 2, 2, 2},
		[]float64{39.6, 39.6, 39.6, 39.6, 39.6}, 40, 1)
	if err != nil {
		t.Fatalf("NewSingleFile: %v", err)
	}
	alloc, err := core.NewAllocator(model,
		core.WithDynamicAlpha(0.9),
		core.WithEpsilon(1e-9),
		core.WithKKTCheck())
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	warm, err := core.NewWarmSolver(alloc, core.WarmConfig{MaxSteps: 32})
	if err != nil {
		t.Fatalf("NewWarmSolver: %v", err)
	}
	stale := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	warmRes, fellBack, err := warm.SolveWarm(context.Background(), stale, core.NewScratch())
	if err != nil {
		t.Fatalf("SolveWarm: %v", err)
	}
	hashResult(h, warmRes, fellBack)
	coldRes, err := alloc.Run(context.Background(), stale)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	hashResult(h, coldRes, false)
}
