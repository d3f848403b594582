// Package par provides the bounded fan-out primitive the design pipeline
// uses to scale with cores: a parallel map over an index range with a
// fixed worker count, deterministic output ordering, first-error-wins
// semantics and context cancellation.
//
// The paper's §5 cost ("20 seconds to 2 minutes for all FSM predictors
// of a program") is an embarrassingly parallel batch — one independent
// design per branch — so every batch entry point (bpred.TrainCustom, the
// Figure 2/4/5 experiments) maps its work through this package.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Workers normalizes a requested worker count: values <= 0 mean
// GOMAXPROCS, and the count is clamped to n so a small batch never spawns
// idle goroutines.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(i) for every i in [0, n) using at most workers concurrent
// goroutines and returns the results indexed by i, so the output order is
// deterministic regardless of scheduling. With workers <= 0 it uses
// GOMAXPROCS; with workers == 1 (or n == 1) it runs inline on the calling
// goroutine, making the sequential path identical to a plain loop.
//
// Indices are claimed in ascending order: a worker that finishes takes
// the lowest index not yet claimed. Callers rely on this to schedule a
// batch of uneven tasks longest first — put the costliest at index 0 and
// the cheap ones fill the tail while it runs.
//
// The first error (by lowest index i) cancels the remaining work and is
// returned; indices whose fn never ran are left as zero values. A
// cancelled ctx stops new work and returns ctx.Err() unless some fn had
// already failed at a lower index.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers = Workers(workers, n)

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			v, err := fn(i)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
		next     int
	)
	fail := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				v, err := fn(i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// MapSlice is Map over the elements of a slice.
func MapSlice[S, T any](ctx context.Context, workers int, in []S, fn func(i int, v S) (T, error)) ([]T, error) {
	return Map(ctx, workers, len(in), func(i int) (T, error) {
		return fn(i, in[i])
	})
}
