package catalog

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"filealloc/internal/metrics"
	"filealloc/internal/sweep"
)

// testConfig is a small catalog exercising multiple shards, including a
// ragged final one.
func testConfig() Config {
	return Config{
		Objects:       80,
		Nodes:         6,
		ShardSize:     16,
		DriftFraction: 0.3,
		Seed:          3,
	}
}

func TestCatalogValidation(t *testing.T) {
	bad := []Config{
		{},                                    // no objects
		{Objects: -1},                         // negative objects
		{Objects: 4, Nodes: 1},                // degenerate cluster
		{Objects: 4, ShardSize: -1},           // bad shard size
		{Objects: 4, Mu: 1, Lambda: 2},        // unstable full placement
		{Objects: 4, DriftFraction: 1.5},      // fraction outside [0, 1]
		{Objects: 4, DriftFraction: -0.1},     // fraction outside [0, 1]
		{Objects: 4, DriftThreshold: 1},       // threshold outside [0, 1)
		{Objects: 4, Skew: math.NaN()},        // NaN skew
		{Objects: 4, EpochWindow: math.NaN()}, // NaN window
	}
	for i, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, ErrCatalog) {
			t.Errorf("config %d (%+v): err = %v, want ErrCatalog", i, cfg, err)
		}
	}

	c, err := New(Config{Objects: 10, ShardSize: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.NumShards() != 3 {
		t.Errorf("10 objects in shards of 4: NumShards = %d, want 3", c.NumShards())
	}
	if c.Objects() != 10 || c.Nodes() != 8 {
		t.Errorf("accessors: %d objects × %d nodes, want 10 × 8 (default)", c.Objects(), c.Nodes())
	}
}

func TestCatalogUsageOrder(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := c.Drift(ctx); !errors.Is(err, ErrCatalog) {
		t.Errorf("Drift before Sense: err = %v, want ErrCatalog", err)
	}
	if _, err := c.ReSolve(ctx); !errors.Is(err, ErrCatalog) {
		t.Errorf("ReSolve before Sense: err = %v, want ErrCatalog", err)
	}
}

// checkFeasible asserts every object's allocation is a valid point of
// the feasible region: entries in [0, 1] summing to 1.
func checkFeasible(t *testing.T, s Snapshot) {
	t.Helper()
	for id := 0; id < s.Objects; id++ {
		row := s.X[id*s.Nodes : (id+1)*s.Nodes]
		sum := 0.0
		for j, xi := range row {
			if xi < 0 || xi > 1 {
				t.Fatalf("object %d node %d: share %v outside [0, 1]", id, j, xi)
			}
			sum += xi
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("object %d: shares sum to %v, want 1", id, sum)
		}
	}
}

func TestCatalogLifecycle(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg := metrics.New()
	c.AttachMetrics(reg)
	ctx := context.Background()

	cold, err := c.SolveCold(ctx)
	if err != nil {
		t.Fatalf("SolveCold: %v", err)
	}
	if cold.Cold != 80 || cold.Warm != 0 || cold.Skipped != 0 {
		t.Errorf("cold fill stats = %+v, want 80 cold solves", cold)
	}
	if cold.Steps == 0 {
		t.Errorf("cold fill reported zero solver iterations")
	}
	checkFeasible(t, c.Snapshot())

	if err := c.Sense(ctx); err != nil {
		t.Fatalf("Sense: %v", err)
	}

	// No demand has moved yet: a re-solve pass must touch nothing.
	before := c.Snapshot()
	idle, err := c.ReSolve(ctx)
	if err != nil {
		t.Fatalf("ReSolve: %v", err)
	}
	if idle.Skipped != 80 || idle.Drifted != 0 || idle.Warm != 0 || idle.Fallback != 0 {
		t.Errorf("idle re-solve stats = %+v, want all 80 skipped", idle)
	}
	if !reflect.DeepEqual(before.X, c.Snapshot().X) {
		t.Errorf("idle re-solve modified allocations")
	}

	applied, err := c.Drift(ctx)
	if err != nil {
		t.Fatalf("Drift: %v", err)
	}
	if applied == 0 {
		t.Fatalf("drift fraction 0.3 over 80 objects applied no drift")
	}
	if c.Epoch() != 1 {
		t.Errorf("Epoch = %d, want 1", c.Epoch())
	}

	warm, err := c.ReSolve(ctx)
	if err != nil {
		t.Fatalf("ReSolve: %v", err)
	}
	if warm.Skipped+warm.Drifted != 80 {
		t.Errorf("re-solve covered %d objects, want 80 (%+v)", warm.Skipped+warm.Drifted, warm)
	}
	if warm.Warm+warm.Fallback != warm.Drifted {
		t.Errorf("warm %d + fallback %d ≠ drifted %d", warm.Warm, warm.Fallback, warm.Drifted)
	}
	// Only objects whose demand actually moved can be flagged (un-drifted
	// estimates are epoch-constant by construction), and the re-draws are
	// large, so nearly all moved objects should be flagged.
	if warm.Drifted > int64(applied) {
		t.Errorf("%d objects flagged, only %d drifted", warm.Drifted, applied)
	}
	if warm.Drifted < int64(applied)/2 {
		t.Errorf("only %d of %d drifted objects flagged", warm.Drifted, applied)
	}
	if warm.Warm == 0 {
		t.Errorf("no re-solve converged on the warm path: %+v", warm)
	}
	checkFeasible(t, c.Snapshot())

	// Cumulative stats and metrics agree.
	total := c.Stats()
	if total.Cold != cold.Cold || total.DriftApplied != int64(applied) {
		t.Errorf("cumulative stats = %+v", total)
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, cp := range snap.Counters {
		key := cp.Name
		for _, l := range cp.Labels {
			key += "|" + l.Key + "=" + l.Value
		}
		counters[key] = cp.Value
	}
	for key, want := range map[string]int64{
		"fap_catalog_solves_total|kind=cold":     total.Cold,
		"fap_catalog_solves_total|kind=warm":     total.Warm,
		"fap_catalog_solves_total|kind=fallback": total.Fallback,
		"fap_catalog_objects_skipped_total":      total.Skipped,
		"fap_catalog_objects_drifted_total":      total.Drifted,
		"fap_catalog_drift_applied_total":        total.DriftApplied,
		"fap_catalog_solve_steps_total":          total.Steps,
		"fap_catalog_epochs_total":               1,
	} {
		if counters[key] != want {
			t.Errorf("counter %s = %d, want %d", key, counters[key], want)
		}
	}
}

// TestCatalogZeroDriftSkipsEverything is the regression pinning the skip
// path: with demand frozen, every re-solve pass must skip every object
// and leave allocations bitwise untouched, epoch after epoch.
func TestCatalogZeroDriftSkipsEverything(t *testing.T) {
	cfg := testConfig()
	cfg.DriftFraction = 0
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := c.SolveCold(ctx); err != nil {
		t.Fatalf("SolveCold: %v", err)
	}
	if err := c.Sense(ctx); err != nil {
		t.Fatalf("Sense: %v", err)
	}
	baseline := c.Snapshot()
	for epoch := 1; epoch <= 3; epoch++ {
		applied, err := c.Drift(ctx)
		if err != nil {
			t.Fatalf("Drift %d: %v", epoch, err)
		}
		if applied != 0 {
			t.Fatalf("epoch %d: drift fraction 0 applied %d re-draws", epoch, applied)
		}
		st, err := c.ReSolve(ctx)
		if err != nil {
			t.Fatalf("ReSolve %d: %v", epoch, err)
		}
		if st.Skipped != int64(cfg.Objects) || st.Drifted != 0 || st.Warm != 0 || st.Fallback != 0 || st.Steps != 0 {
			t.Fatalf("epoch %d: re-solve stats = %+v, want %d skipped and nothing else", epoch, st, cfg.Objects)
		}
		if !reflect.DeepEqual(baseline.X, c.Snapshot().X) {
			t.Fatalf("epoch %d: zero-drift re-solve changed an allocation", epoch)
		}
	}
}

// TestCatalogCanceled: a canceled context stops the cold fill and the
// warm pass with an error wrapping context.Canceled, on the serial sweep
// path and across workers alike.
func TestCatalogCanceled(t *testing.T) {
	for _, workers := range []int{1, 2} {
		c, err := New(testConfig())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ctx := sweep.WithWorkers(context.Background(), workers)
		canceled, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := c.SolveCold(canceled); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: SolveCold err = %v, want context.Canceled", workers, err)
		}
		if _, err := c.SolveCold(ctx); err != nil {
			t.Fatalf("workers=%d: SolveCold: %v", workers, err)
		}
		if err := c.Sense(ctx); err != nil {
			t.Fatalf("workers=%d: Sense: %v", workers, err)
		}
		if _, err := c.ReSolve(canceled); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ReSolve err = %v, want context.Canceled", workers, err)
		}
	}
}
