// Package workpool runs the jobs of an index range on a few goroutines
// under the one policy both parallel stages of a whole-list run (the
// prescreen's batches and the per-fault loop) share: see Run.
package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrPanic marks the error of a job that panicked; test for it with
// errors.Is.
var ErrPanic = errors.New("panic")

// PanicError is a panic recovered from a job. Its text is "panic: "
// followed by the value and the panicking goroutine's stack.
type PanicError struct {
	Job   int // index of the job that panicked
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("%v: %v\n%s", ErrPanic, e.Value, e.Stack) }

// Unwrap makes errors.Is(err, ErrPanic) hold.
func (e *PanicError) Unwrap() error { return ErrPanic }

// Size returns the number of workers Run starts for n jobs:
// min(workers, n), at least 1. Callers size their per-worker state by it.
func Size(n, workers int) int { return max(min(workers, n), 1) }

// Run calls job(w, i) for each i in [0, n) on Size(n, workers) workers,
// w being the worker's number; worker 0 runs on the calling goroutine.
// Workers claim indices in ascending order. No job starts once a job has
// returned an error or panicked, or ctx is done; a worker that finds ctx
// done returns ctx.Err(), and a panic is recovered into a *PanicError.
// done, when non-nil, is called once per worker after its last job, also
// after a panic; a panic in done itself is not recovered. Run returns when every worker has, with the error of
// the lowest-numbered worker that failed.
func Run(ctx context.Context, n, workers int, job func(w, i int) error, done func(w int)) error {
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	errs := make([]error, Size(n, workers))
	work := func(w int) {
		var i int
		if done != nil {
			defer done(w)
		}
		defer func() {
			if p := recover(); p != nil {
				errs[w] = &PanicError{Job: i, Value: p, Stack: debug.Stack()}
				stopped.Store(true)
			}
		}()
		for {
			i = int(next.Add(1) - 1)
			if i >= n || stopped.Load() {
				return
			}
			err := ctx.Err()
			if err == nil {
				err = job(w, i)
			}
			if err != nil {
				errs[w] = err
				stopped.Store(true)
				return
			}
		}
	}
	for w := 1; w < len(errs); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
