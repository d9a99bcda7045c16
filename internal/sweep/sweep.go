// Package sweep runs embarrassingly parallel experiment sweeps — the
// paper's evaluation is dominated by them (figure 5 sweeps 70 stepsizes,
// figure 6 grid-searches ~30 stepsizes per network size) — on a bounded
// worker pool while keeping the results indistinguishable from a serial
// loop.
//
// The contract mirrors `for i := 0; i < n; i++ { fn(ctx, i) }`:
//
//   - Order preservation is structural: fn receives its item index and
//     writes into the caller's own slot, so result order never depends on
//     scheduling. Each item must own its state (its own allocator, its own
//     seeded RNG); items may share read-only inputs.
//   - The first error wins: Run cancels the context passed to the
//     remaining items and returns the error of the lowest-indexed item
//     that failed. When a single item is at fault — the common case of a
//     deterministic fn — that is exactly the error the serial loop would
//     have surfaced.
//   - workers == 1 executes the items in index order on the calling
//     goroutine — byte-identical to the serial loop it replaces.
//   - Run never returns before every started item has finished, so it
//     leaks no goroutines even when canceled mid-sweep.
//
// Scheduling is chunked: workers claim runs of contiguous indices with a
// single atomic operation instead of one index per atomic op, so the
// claiming overhead on the paper's short tasks (a figure-6 grid cell is
// tens of microseconds) is amortized over a whole chunk. The chunk size
// is derived from n/workers (see WithChunkSize) and is invisible in the
// results: items still execute in ascending order within each chunk and
// write into their own slots.
//
// RunWithScratch extends the core.PlanStepInto zero-allocation
// discipline across a whole sweep: each worker builds one scratch value
// and reuses it for every item it claims, so per-item setup (allocator
// buffers, rings, step scratch) is paid once per worker instead of once
// per item.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes fn(ctx, i) for every i in [0, n) on at most workers
// concurrent goroutines and returns the lowest-index error among the
// items that ran, if any. workers < 1 selects runtime.GOMAXPROCS(0). A
// canceled ctx stops the sweep promptly; items not yet started are
// skipped and ctx.Err() is returned unless a lower-indexed item already
// failed with its own error.
func Run(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if fn == nil {
		return fmt.Errorf("sweep: nil work function")
	}
	return RunWithScratch(ctx, n, workers,
		func() struct{} { return struct{}{} },
		func(ctx context.Context, i int, _ struct{}) error { return fn(ctx, i) })
}

// RunWithScratch is Run with a per-worker scratch value: newScratch runs
// at most once per worker that claims work (exactly once when workers is
// 1), and every item a worker executes receives that worker's scratch.
// Use it to hoist reusable buffers — a core.Scratch, a ring, a step
// planner — out of the per-item path so the sweep's steady state
// allocates nothing.
//
// fn must leave no item-observable state in the scratch: results must be
// identical whether a scratch served one item or fifty, or the
// workers=1-equals-serial contract breaks. Buffers whose contents are
// fully overwritten (or explicitly reset) per item are fine; accumulators
// are not.
func RunWithScratch[S any](ctx context.Context, n, workers int, newScratch func() S, fn func(ctx context.Context, i int, scratch S) error) error {
	if n < 0 {
		return fmt.Errorf("sweep: negative item count %d", n)
	}
	if fn == nil {
		return fmt.Errorf("sweep: nil work function")
	}
	if newScratch == nil {
		return fmt.Errorf("sweep: nil scratch constructor")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return ctx.Err()
	}
	// Metering is deterministic for sweeps that complete: item i records
	// queue depth n−i exactly once in every path — the depth is derived
	// from the item's index, never from scheduling — so the multiset of
	// observations, and with it the registry snapshot, is identical for
	// any worker count and any chunk size. Within a chunk items are
	// claimed in ascending index order; across workers the interleaving
	// varies, but counters and histograms are order-insensitive
	// aggregates. A canceled or failing sweep stops claiming at a
	// scheduling-dependent point, just as it stops computing; only
	// completed sweeps fall under the snapshot byte-identity contract.
	m := meterFrom(ctx)
	m.started()
	if workers == 1 {
		// The serial reference path: identical to the loop it replaces,
		// with one scratch serving every item in index order.
		scratch := newScratch()
		done := ctx.Done()
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			m.claimed(int64(n - i))
			if err := fn(ctx, i, scratch); err != nil {
				m.failed()
				return err
			}
		}
		return nil
	}

	chunk := ChunkSizeFrom(ctx)
	if chunk < 1 {
		chunk = defaultChunkSize(n, workers)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Workers poll cancellation through the shared Done channel with a
	// non-blocking receive, which takes no lock; cctx.Err() would make
	// every worker contend on the context's mutex once per item.
	done := cctx.Done()

	var (
		next     atomic.Int64 // next item index to claim (chunk base)
		mu       sync.Mutex
		firstIdx = n // lowest item index that errored
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The scratch is built lazily on the first claimed chunk:
			// when chunks outnumber workers every worker pays exactly one
			// newScratch, and a worker that never claims work (large
			// chunk sizes leave fewer chunks than workers) pays none.
			var scratch S
			made := false
			for {
				base := int(next.Add(int64(chunk))) - chunk
				if base >= n {
					return
				}
				end := base + chunk
				if end > n {
					end = n
				}
				if !made {
					scratch = newScratch()
					made = true
				}
				for i := base; i < end; i++ {
					select {
					case <-done:
						return
					default:
					}
					m.claimed(int64(n - i))
					if err := fn(cctx, i, scratch); err != nil {
						m.failed()
						fail(i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Items may have been skipped because the parent context died with
	// no item erroring first; the serial loop would have reported that.
	return ctx.Err()
}

// chunksPerWorker balances batching against load: claiming ~4 chunks per
// worker keeps the atomic-op count low while leaving enough chunks for
// workers that drew cheap items to steal more work — figure-6 grid cells
// vary severalfold in cost across (size, α).
const chunksPerWorker = 4

// defaultChunkSize derives the claiming stride from n/workers:
// ⌈n/(4·workers)⌉, at least 1. One atomic op then claims a whole run of
// items, and every worker still gets ~4 opportunities to rebalance.
func defaultChunkSize(n, workers int) int {
	c := (n + chunksPerWorker*workers - 1) / (chunksPerWorker * workers)
	if c < 1 {
		c = 1
	}
	return c
}

// workersKey carries the sweep parallelism through a context.
type workersKey struct{}

// WithWorkers returns a context that tells WorkersFrom to use the given
// parallelism for sweeps downstream. workers == 1 forces the serial
// reference path; workers < 1 restores the default (GOMAXPROCS at read
// time), shadowing any parallelism set further up the context chain. The
// value is normalized at store time: every workers < 1 is stored as the
// same canonical default marker, so WorkersFrom never observes a raw
// negative count.
func WithWorkers(ctx context.Context, workers int) context.Context {
	if workers < 1 {
		workers = 0 // canonical "use the default" marker
	}
	return context.WithValue(ctx, workersKey{}, workers)
}

// WorkersFrom returns the sweep parallelism carried by ctx, or
// runtime.GOMAXPROCS(0) when none was set (or the default was restored
// with WithWorkers(ctx, 0)).
func WorkersFrom(ctx context.Context) int {
	if w, ok := ctx.Value(workersKey{}).(int); ok && w >= 1 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// chunkKey carries the sweep chunk size through a context.
type chunkKey struct{}

// WithChunkSize returns a context that makes downstream parallel sweeps
// claim runs of size contiguous items per atomic operation. size < 1
// restores the automatic choice (⌈n/(4·workers)⌉), shadowing any size
// set further up the chain; size == 1 reproduces item-at-a-time
// claiming; size ≥ n makes the first worker claim the whole sweep.
// Results are identical for every chunk size — only claiming overhead
// and load balance change. The serial path (workers == 1) ignores the
// chunk size entirely.
func WithChunkSize(ctx context.Context, size int) context.Context {
	if size < 1 {
		size = 0 // canonical "automatic" marker
	}
	return context.WithValue(ctx, chunkKey{}, size)
}

// ChunkSizeFrom returns the chunk size carried by ctx, or 0 when none
// was set (meaning the automatic n/workers-derived choice).
func ChunkSizeFrom(ctx context.Context) int {
	if c, ok := ctx.Value(chunkKey{}).(int); ok && c >= 1 {
		return c
	}
	return 0
}
