// Package par provides the shared bounded worker pool and memoization
// primitives used across the pipeline (internal/core), the clusterer
// (internal/cluster) and the evaluation harness (internal/report).
//
// The pool primitives (ForEach, Map) fan work out over a fixed number of
// workers and leave result placement to the caller by index, so a parallel
// run reduces to exactly the same output as the serial one. Workers <= 1
// always takes a plain serial loop with no goroutines, which keeps the
// serial path trivially debuggable and byte-identical by construction.
//
// Both take a context for cooperative cancellation: workers stop claiming
// new indexes once it is cancelled, so a fan-out over heavyweight items
// (tables, entities) unwinds within one item's worth of work. They are the
// checkpoint substrate behind the public API's context threading
// (ltee.Engine.Ingest and friends).
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the default pool size: one worker per usable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Workers normalizes a requested worker count: values <= 0 select
// DefaultWorkers.
func Workers(n int) int {
	if n <= 0 {
		return DefaultWorkers()
	}
	return n
}

// ForEach invokes fn(i) for every i in [0, n), distributing the calls over
// at most workers goroutines, and returns when all calls have finished or
// the fan-out was cancelled. With workers <= 1 (or n <= 1) the calls run
// serially, in index order, on the calling goroutine.
//
// fn must confine its writes to index-distinct locations (slot i of a
// results slice); the caller then reduces the slots in index order, making
// the parallel and serial paths produce identical output.
//
// Cancellation is cooperative: every worker checks ctx before claiming the
// next index and stops claiming once it is cancelled. Indexes already
// claimed run to completion (fn is never interrupted mid-call), so the
// caller's per-slot writes stay well-formed; the slots of unclaimed indexes
// keep their zero values and the caller must discard the whole result set
// when an error is returned.
//
// The returned error is nil when all n calls ran, ctx.Err() otherwise. A
// nil ctx, or one that can never be cancelled (ctx.Done() == nil), adds no
// per-index overhead; callers with nothing to cancel pass nil.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if cancelled() {
				return ctx.Err()
			}
			fn(i)
		}
		return nil
	}
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if cancelled() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	// A cancellation arriving after the last call finished is not a failed
	// fan-out: every slot is filled, so the caller may use the results.
	if int(completed.Load()) == n {
		return nil
	}
	return ctx.Err()
}

// Map applies fn to every element of items on a pool of at most workers
// goroutines and returns the results in input order. Cancellation follows
// ForEach: on a non-nil error the returned slice is partial — slots whose
// index was never claimed hold zero values — and must be discarded.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(i int, item T) R) ([]R, error) {
	out := make([]R, len(items))
	err := ForEach(ctx, workers, len(items), func(i int) {
		out[i] = fn(i, items[i])
	})
	return out, err
}

// Cell is a lazily computed, memoized value: the first Get computes it
// exactly once and concurrent Gets block until that computation finishes
// and then share its result (singleflight semantics).
//
// The zero value is ready to use.
type Cell[T any] struct {
	once sync.Once
	val  T
}

// Get returns the memoized value, computing it with compute on first use.
func (c *Cell[T]) Get(compute func() T) T {
	c.once.Do(func() { c.val = compute() })
	return c.val
}

// Group memoizes one Cell per key: each key's value is computed exactly
// once, while distinct keys compute concurrently. The group mutex guards
// only the cell map, never a computation, so a slow key does not block the
// others.
//
// The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*Cell[V]
}

// Get returns the memoized value for key, computing it with compute on the
// key's first use.
func (g *Group[K, V]) Get(key K, compute func() V) V {
	g.mu.Lock()
	if g.cells == nil {
		g.cells = make(map[K]*Cell[V])
	}
	c := g.cells[key]
	if c == nil {
		c = &Cell[V]{}
		g.cells[key] = c
	}
	g.mu.Unlock()
	return c.Get(compute)
}

// ErrCell is a Cell for fallible (typically context-aware) computations: a
// successful result is memoized and shared by every caller, while a failed
// computation is returned only to the caller that ran it and is NOT
// memoized, so the next caller retries with its own compute closure. A
// first caller whose context is cancelled mid-computation therefore cannot
// poison the cell for everyone else.
//
// Like Cell, concurrent Gets for the same cell serialize (singleflight);
// compute must not re-enter the same cell. The zero value is ready to use.
type ErrCell[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
}

// Get returns the memoized value, computing it with compute on first use.
// A non-nil error from compute is returned without being memoized.
func (c *ErrCell[T]) Get(compute func() (T, error)) (T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		v, err := compute()
		if err != nil {
			var zero T
			return zero, err
		}
		c.val, c.done = v, true
	}
	return c.val, nil
}

// ErrGroup memoizes one ErrCell per key: each key's value is computed at
// most once per success, distinct keys compute concurrently, and failures
// are retried by later callers (see ErrCell).
//
// The zero value is ready to use.
type ErrGroup[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*ErrCell[V]
}

// Get returns the memoized value for key, computing it with compute on the
// key's first (or first successful) use.
func (g *ErrGroup[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.cells == nil {
		g.cells = make(map[K]*ErrCell[V])
	}
	c := g.cells[key]
	if c == nil {
		c = &ErrCell[V]{}
		g.cells[key] = c
	}
	g.mu.Unlock()
	return c.Get(compute)
}
