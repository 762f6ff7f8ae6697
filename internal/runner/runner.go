// Package runner is the parallel run harness for the experiment suite:
// it fans independent simulation runs (trials, parameter-sweep points,
// protocol comparisons) across a pool of workers while keeping results
// bit-for-bit reproducible at any worker count.
//
// The reproducibility contract has three parts:
//
//   - Seed derivation is positional: run i of a harness invocation with
//     base seed s receives Seed = s XOR splitmix64(i). A run's stream
//     therefore depends only on (base, index), never on scheduling
//     order or on how many workers execute the batch.
//   - Each run must be self-contained: it builds its own Network and
//     Simulator (which the network package requires — a Network is
//     owned by one run) and draws randomness only from its Run.Seed or
//     from values passed in via its sweep point.
//   - Results are collected positionally into a slice indexed by run,
//     so aggregation code iterates them in run order regardless of
//     completion order.
//
// Panics inside a run are captured and returned as a *PanicError
// carrying the run identity and stack; the first failing run (by index)
// wins and the remaining undispatched runs are cancelled.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Run identifies one unit of parallel work.
type Run struct {
	// Index is the 0-based position of the run within its batch.
	Index int
	// Seed is the run's private PRNG seed, derived positionally from
	// the batch's base seed (see DeriveSeed).
	Seed uint64
}

// DeriveSeed maps a base seed and run index to the run's seed:
// base XOR splitmix64(index). splitmix64 scatters nearby indices to
// uncorrelated values, so consecutive runs get independent streams even
// for small bases, and the result depends only on (base, index).
func DeriveSeed(base uint64, index int) uint64 {
	z := uint64(index) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return base ^ (z ^ (z >> 31))
}

// Config controls one Map/Sweep invocation.
type Config struct {
	// Workers caps the number of runs executing concurrently. Zero or
	// negative means GOMAXPROCS.
	Workers int
}

// PanicError wraps a panic raised inside a run.
type PanicError struct {
	Run   Run
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: run %d (seed %#x) panicked: %v\n%s", e.Run.Index, e.Run.Seed, e.Value, e.Stack)
}

// Map executes fn for runs 0..n-1 on a pool of cfg.Workers workers and
// returns the n results in run order. Each run receives its positional
// identity and derived seed. The first error (smallest run index among
// failed runs) is returned alongside the partial results; runs not yet
// dispatched when an error occurs are skipped and leave zero values in
// the result slice.
func Map[T any](cfg Config, baseSeed uint64, n int, fn func(Run) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	errs := make([]error, n)

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Feed run indices; stop feeding once cancelled so a failure skips
	// the tail of the batch.
	indices := make(chan int)
	go func() {
		defer close(indices)
		for i := 0; i < n; i++ {
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				r := Run{Index: i, Seed: DeriveSeed(baseSeed, i)}
				results[i], errs[i] = protect(fn, r)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Sweep executes fn once per sweep point and returns the results in
// point order. It is Map with the batch defined by a slice of parameter
// points — the shape of a dimension sweep, a trial loop, or a protocol
// comparison.
func Sweep[P, T any](cfg Config, baseSeed uint64, points []P, fn func(Run, P) (T, error)) ([]T, error) {
	return Map(cfg, baseSeed, len(points), func(r Run) (T, error) {
		return fn(r, points[r.Index])
	})
}

// protect runs fn, converting a panic into a *PanicError.
func protect[T any](fn func(Run) (T, error), r Run) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Run: r, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(r)
}
