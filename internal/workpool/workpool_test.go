package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests are named *Parallel* so the Makefile's race pattern runs them.

// TestRunParallelEveryJobOnce runs every index exactly once at 1–4
// workers, each worker claiming its indices in ascending order, and
// calls done once per worker, also when there is no job at all.
func TestRunParallelEveryJobOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		for workers := 1; workers <= 4; workers++ {
			nw := Size(n, workers)
			runs := make([]atomic.Int32, n)
			last := make([]int, nw)
			dones := make([]int, nw)
			for w := range last {
				last[w] = -1
			}
			err := Run(context.Background(), n, workers, func(w, i int) error {
				runs[i].Add(1)
				if i <= last[w] {
					return fmt.Errorf("worker %d claimed %d after %d", w, i, last[w])
				}
				last[w] = i
				return nil
			}, func(w int) { dones[w]++ })
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: job %d ran %d times", n, workers, i, got)
				}
			}
			for w, d := range dones {
				if d != 1 {
					t.Errorf("n=%d workers=%d: done(%d) ran %d times", n, workers, w, d)
				}
			}
		}
	}
}

// TestRunParallelErrorStopsClaims fails one job while every other worker
// is inside a job of its own: the jobs already running finish, and no
// worker claims another.
func TestRunParallelErrorStopsClaims(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		var started atomic.Int32
		var once sync.Once
		failed := make([]bool, workers)
		release := make(chan struct{})
		boom := errors.New("boom")
		err := Run(context.Background(), 100, workers, func(w, i int) error {
			started.Add(1)
			if i > 0 {
				<-release
				return nil
			}
			for started.Load() < int32(workers) {
				runtime.Gosched()
			}
			failed[w] = true
			return boom
		}, func(w int) {
			// done runs after the failing worker has stopped the pool.
			if failed[w] {
				once.Do(func() { close(release) })
			}
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, boom)
		}
		if got := started.Load(); got != int32(workers) {
			t.Errorf("workers=%d: %d jobs started, want %d", workers, got, workers)
		}
	}
}

// TestRunParallelFirstWorkerErrorWins fails a job on every worker at
// once; Run returns worker 0's error.
func TestRunParallelFirstWorkerErrorWins(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		var started atomic.Int32
		err := Run(context.Background(), 100, workers, func(w, i int) error {
			started.Add(1)
			for started.Load() < int32(workers) {
				runtime.Gosched()
			}
			return fmt.Errorf("worker %d", w)
		}, nil)
		if err == nil || err.Error() != "worker 0" {
			t.Errorf("workers=%d: err = %v, want worker 0's", workers, err)
		}
	}
}

// TestRunParallelPanic recovers a panicking job into an error wrapping
// ErrPanic that carries the job index, the value and the stack; done
// still runs on every worker and no job starts afterwards on the
// panicking worker.
func TestRunParallelPanic(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		var dones, after atomic.Int32
		var panicked atomic.Bool
		err := Run(context.Background(), 50, workers, func(w, i int) error {
			if panicked.Load() {
				after.Add(1)
			}
			if i == 7 {
				panicked.Store(true)
				panic("injected")
			}
			return nil
		}, func(int) { dones.Add(1) })
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("workers=%d: err = %v, want ErrPanic", workers, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Job != 7 || pe.Value != "injected" {
			t.Fatalf("workers=%d: err = %#v, want job 7's panic", workers, err)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "panic: injected\n") || !strings.Contains(msg, "goroutine ") {
			t.Errorf("workers=%d: error carries no value and stack: %.200s", workers, msg)
		}
		if got := dones.Load(); got != int32(workers) {
			t.Errorf("workers=%d: done ran %d times", workers, got)
		}
		if workers == 1 && after.Load() != 0 {
			t.Errorf("a job started after the panic")
		}
	}
}

// TestRunParallelCanceled runs no job under a done context and returns
// its error.
func TestRunParallelCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for workers := 1; workers <= 4; workers++ {
		var jobs, dones atomic.Int32
		err := Run(ctx, 10, workers, func(int, int) error {
			jobs.Add(1)
			return nil
		}, func(int) { dones.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if jobs.Load() != 0 || dones.Load() != int32(workers) {
			t.Errorf("workers=%d: %d jobs ran, done ran %d times", workers, jobs.Load(), dones.Load())
		}
	}
}

// TestRunParallelNoGoroutineLeft checks that no worker outlives Run,
// whether the jobs succeed, fail or panic.
func TestRunParallelNoGoroutineLeft(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, job := range []func(w, i int) error{
		func(int, int) error { return nil },
		func(_, i int) error {
			if i == 3 {
				return errors.New("boom")
			}
			return nil
		},
		func(_, i int) error {
			if i == 3 {
				panic("boom")
			}
			return nil
		},
	} {
		for rep := 0; rep < 20; rep++ {
			_ = Run(context.Background(), 20, 4, job, nil)
		}
	}
	// Workers have returned from Run's point of view; give the runtime a
	// moment to retire their goroutines before counting.
	for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the runs, %d before", n, base)
	}
}
