// Package parallel is the deterministic fan-out engine every
// sweep-shaped experiment runner is built on: a bounded worker pool
// with ordered fan-out/fan-in and per-task seeded RNG derivation.
//
// Determinism contract: Map runs fn(0..n-1) with results delivered in
// index order, and every task must depend only on its index (plus
// inputs captured at call time). Randomized tasks derive their RNG
// stream from DeriveSeed(base, index) instead of sharing one stream.
// Under that contract the output is bit-identical for any worker
// count — parallel execution is an invisible optimization, which is
// what lets the experiment suite assert byte-for-byte parity between
// its serial and parallel paths (see DESIGN.md).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the pool width used by Map. Guarded by mu; 1 means serial.
var (
	mu      sync.RWMutex
	workers = runtime.GOMAXPROCS(0)
)

// Workers returns the current pool width.
func Workers() int {
	mu.RLock()
	defer mu.RUnlock()
	return workers
}

// SetWorkers sets the pool width and returns the previous value.
// n <= 1 forces serial in-order execution (the parity baseline);
// n == 0 is treated as 1. The default is GOMAXPROCS.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	prev := workers
	workers = n
	return prev
}

// Map runs fn for every index in [0, n) on the worker pool and returns
// the results in index order. All tasks run to completion even when
// some fail; the returned error is the failing task with the lowest
// index, so the error too is independent of scheduling. With a pool
// width of 1 (or n <= 1) tasks run inline, in order, on the caller's
// goroutine.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapScratch(n, func() struct{} { return struct{}{} },
		func(i int, _ struct{}) (T, error) { return fn(i) })
}

// MapScratch is Map with per-worker scratch state: each worker
// goroutine calls newScratch once and hands the same value to every
// task it runs, so tasks can reuse allocation-heavy buffers (flow
// builders, simulator contexts) without any cross-task synchronization.
//
// The determinism contract extends to scratch: fn's result must be a
// pure function of its index — scratch may only carry buffers whose
// contents are fully overwritten (or explicitly reset) before use, never
// values that leak one task's data into another's result. Under that
// rule worker count and task-to-worker assignment remain invisible, and
// the serial path (one scratch for all tasks) is byte-identical to any
// parallel schedule.
func MapScratch[T, S any](n int, newScratch func() S, fn func(i int, scratch S) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		scratch := newScratch()
		var firstErr error
		for i := 0; i < n; i++ {
			r, err := fn(i, scratch)
			results[i] = r
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return results, firstErr
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			scratch := newScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i, scratch)
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

// DeriveSeed derives a statistically independent child seed from a base
// seed and a task index using the splitmix64 finalizer (the same mixer
// the routing layers use for ECMP hashing). Two properties matter:
// derivation is pure (parallel == serial), and nearby (base, index)
// pairs land far apart, so per-task rand streams do not overlap in
// practice the way base+index seeding would.
func DeriveSeed(base int64, index int) int64 {
	x := uint64(base)*0x9e3779b97f4a7c15 + uint64(index) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
