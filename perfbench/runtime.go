package main

import (
	"bufio"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runtimeWindow measures the Go runtime over the traced half: garbage
// collections, their pauses, and the peak heap, polled on a goroutine
// that stop ends and waits for.
type runtimeWindow struct {
	before runtime.MemStats
	done   chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{done: make(chan struct{})}
	runtime.ReadMemStats(&w.before)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			if s[0].Value.Kind() == rtmetrics.KindUint64 {
				w.peak = max(w.peak, s[0].Value.Uint64())
			}
			select {
			case <-w.done:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the window and sets the runtime.* metrics in m.
func (w *runtimeWindow) stop(m map[string]float64) {
	close(w.done)
	w.wg.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m["runtime.gc_cycles"] = float64(after.NumGC - w.before.NumGC)
	m["runtime.gc_pause_s"] = float64(after.PauseTotalNs-w.before.PauseTotalNs) * 1e-9
	m["runtime.heap_peak_mb"] = float64(w.peak) / 1e6
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the
// memory the Go runtime obtained from the OS where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		if kb, ok := vmHWM(f); ok {
			return kb * 1024 / 1e6
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// vmHWM reads the VmHWM line of a /proc/PID/status file, in kB.
func vmHWM(r io.Reader) (float64, bool) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb, err == nil
		}
	}
	return 0, false
}
