// Package ctxfix exercises the ctxfirst analyzer.
package ctxfix

import "context"

// Good has the context first.
func Good(ctx context.Context, n int) {}

// BadSecond has the context after another parameter.
func BadSecond(n int, ctx context.Context) {} // want ctxfirst: first parameter

// holder stores a context in a struct outside internal/sweep.
type holder struct {
	ctx context.Context // want ctxfirst: stored in a struct
	n   int
}

// Ctx uses the stored field so the fixture compiles without vet noise.
func (h holder) Ctx() context.Context { return h.ctx }

// N returns the other field.
func (h holder) N() int { return h.n }

// dialer checks interface method signatures.
type dialer interface {
	Dial(addr string, ctx context.Context) error // want ctxfirst: first parameter
	Ping(ctx context.Context) error
}

// callback checks function-typed declarations.
type callback func(n int, ctx context.Context) // want ctxfirst: first parameter

// goodCallback is the clean function-typed case.
type goodCallback func(ctx context.Context, n int)

// pollErr polls cancellation through the context's mutex in a hot loop.
//
//fap:zeroalloc
func pollErr(ctx context.Context, n int) int {
	i := 0
	for ; i < n; i++ {
		if ctx.Err() != nil { // want ctxfirst: non-blocking select
			break
		}
	}
	return i
}

// pollDone is the lock-free poll the rule asks for.
//
//fap:zeroalloc
func pollDone(ctx context.Context, n int) int {
	done := ctx.Done()
	i := 0
	for ; i < n; i++ {
		select {
		case <-done:
			return i
		default:
		}
	}
	return i
}

// coldErr is not annotated, so Err stays allowed outside hot paths.
func coldErr(ctx context.Context) error { return ctx.Err() }

// Polls uses the unexported pollers so the fixture compiles without vet noise.
func Polls(ctx context.Context) (int, int, error) {
	return pollErr(ctx, 1), pollDone(ctx, 1), coldErr(ctx)
}
