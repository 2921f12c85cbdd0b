package serve

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cir"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

// runCache memoizes the expensive artifacts of run submission across
// the server's lifetime: compiled circuits (keyed by content hash of
// the inline netlist text, or by built-in name) and fault-free traces
// (keyed by the circuit identity plus the exact vector identity). Both
// entry kinds share one byte budget; least-recently-used entries are
// evicted when a new one would overflow it. A nil *runCache is the
// disabled cache: every lookup misses and every insert is a no-op, so
// the submission path needs no branching on configuration.
type runCache struct {
	store *cache.Store[string, any]
}

// circuitEntry pins a parsed circuit together with its compiled IR.
// Holding the *netlist.Circuit keeps the process-wide compile memo
// (cir.For, keyed by circuit pointer) hitting for as long as the entry
// lives; eviction calls cir.Drop so the two caches agree on residency.
type circuitEntry struct {
	c  *netlist.Circuit
	cc *cir.CC
}

// CacheInfo reports, per run, which memoized artifacts the submission
// reused. CircuitHit means parsing and compilation were skipped;
// TraceHit means the warm fault-free trace let the run skip its step-0
// good simulation entirely.
type CacheInfo struct {
	CircuitHit bool `json:"circuit_hit"`
	TraceHit   bool `json:"trace_hit"`
}

func newRunCache(budget int64) *runCache {
	rc := &runCache{}
	rc.store = cache.New[string, any](budget, func(_ string, v any) {
		if e, ok := v.(circuitEntry); ok {
			cir.Drop(e.c)
		}
	})
	return rc
}

// srcKey is the content identity of a request's circuit source:
// built-ins by name (the generators are deterministic), inline
// netlists by hash of their text.
func srcKey(req RunRequest) string {
	if req.Circuit != "" {
		return "name:" + req.Circuit
	}
	return cache.Key(req.Bench)
}

// vecKey is the content identity of a request's test sequence: inline
// vector text by hash, seeded random generation by (length, seed) of a
// request buildRun has filled in the defaults of.
func vecKey(req RunRequest) string {
	if req.Vectors != "" {
		return cache.Key(req.Vectors)
	}
	return fmt.Sprintf("r:%d:%d", req.Random, req.Seed)
}

// goodKey keys a fault-free trace: it is valid for exactly one
// (circuit text, vector set) pair and for any method/config, since the
// good simulation depends on nothing else.
func goodKey(req RunRequest) string {
	return "good:" + srcKey(req) + "|" + vecKey(req)
}

func (rc *runCache) circuit(src string) (circuitEntry, bool) {
	if rc == nil {
		return circuitEntry{}, false
	}
	v, ok := rc.store.Get("cc:" + src)
	if !ok {
		return circuitEntry{}, false
	}
	e, ok := v.(circuitEntry)
	return e, ok
}

// addCircuit caches a freshly compiled circuit. An entry too large for
// the whole budget is simply not cached — the run already holds its
// own reference, and cir.For's own memo is bounded independently.
func (rc *runCache) addCircuit(src string, e circuitEntry) {
	if rc == nil {
		return
	}
	rc.store.Add("cc:"+src, e, e.cc.MemSize())
}

func (rc *runCache) trace(key string) (*seqsim.Trace, bool) {
	if rc == nil {
		return nil, false
	}
	v, ok := rc.store.Get(key)
	if !ok {
		return nil, false
	}
	tr, ok := v.(*seqsim.Trace)
	return tr, ok
}

func (rc *runCache) addTrace(key string, tr *seqsim.Trace) {
	if rc == nil || tr == nil {
		return
	}
	rc.store.Add(key, tr, tr.MemSize())
}

// stats is nil-safe: a disabled cache reads as all-zero, so the metric
// callbacks register unconditionally.
func (rc *runCache) stats() cache.Stats {
	if rc == nil {
		return cache.Stats{}
	}
	return rc.store.Stats()
}
