package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/xtrace"
)

// The serve-mix workload drives an in-process motserve over loopback
// HTTP as a closed loop: motserve callers each wait for their result, so
// each of the clients sends its next POST /runs only after the previous
// run's terminal status event arrived on /runs/{id}/events.
const (
	clients       = 2
	serveRepeats  = 4 // each on a fresh server and cache
	servePatterns = 64
	// planRate sizes the request plan (and the registry cap) of a repeat
	// in requests per second of its window, well above what 2 clients
	// reach on small circuits.
	planRate = 400
)

// Warm repeats draw from these circuits, each with the fixed vector
// seeds 1..warmSeeds, all primed before timing. Fixed keys keep the
// warm share's work the same for every run seed.
var warmCircuits = []string{"sg208", "sg298", "sg344"}

const warmSeeds = 3

// Request classes and their shares of the mix.
const (
	classWarm      = "warm"       // 60%: circuit and trace both cached
	classTraceMiss = "trace_miss" // 25%: sg298 with a fresh vector seed
	classCold      = "cold"       // 15%: an inline sg298-shaped netlist
)

var classes = []string{classWarm, classTraceMiss, classCold}

// checkKey identifies a request's inputs for the direct check run.
type checkKey struct {
	circuit string // suite name, or
	bench   string // an inline netlist
	vecSeed int64
}

// source makes the circuit exactly as the server does: a suite circuit
// by name, an inline netlist by parsing the same text (the pair count
// depends on the node numbering parsing produces).
func (k checkKey) source() source {
	if k.bench != "" {
		return source{"bench.parse", func() (*netlist.Circuit, error) { return bench.ParseString("request.bench", k.bench) }}
	}
	return source{"circuits.generate", func() (*netlist.Circuit, error) { return circuits.ByName(k.circuit) }}
}

type request struct {
	class string
	body  []byte
	key   checkKey
}

func newRequest(class string, key checkKey) (request, error) {
	body, err := json.Marshal(serve.RunRequest{
		Circuit: key.circuit, Bench: key.bench, Random: servePatterns, Seed: key.vecSeed, Workers: 1,
	})
	return request{class: class, body: body, key: key}, err
}

// coldNetlist renders an sg298-shaped circuit from a fresh generator
// seed as .bench text.
func coldNetlist(seed int64) (string, error) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		return "", err
	}
	p := e.Params
	p.Name, p.Seed = fmt.Sprintf("cold%d", seed), seed
	c, err := circuits.Generate(p)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	err = bench.Write(&sb, c)
	return sb.String(), err
}

// mixPlan is the input of one repeat: the warm requests to prime and the
// timed requests in order, all drawn from rng.
type mixPlan struct {
	warm, timed []request
}

func newMixPlan(rng *rand.Rand, n int) (mixPlan, error) {
	var p mixPlan
	used := map[int64]bool{}
	fresh := func() int64 {
		for {
			if s := rng.Int63n(1<<40) + 1; !used[s] {
				used[s] = true
				return s
			}
		}
	}
	for _, c := range warmCircuits {
		for vs := int64(1); vs <= warmSeeds; vs++ {
			used[vs] = true
			r, err := newRequest(classWarm, checkKey{circuit: c, vecSeed: vs})
			if err != nil {
				return p, err
			}
			p.warm = append(p.warm, r)
		}
	}
	for len(p.timed) < n {
		var r request
		var err error
		switch u := rng.Float64(); {
		case u < 0.60:
			r = p.warm[rng.Intn(len(p.warm))]
		case u < 0.85:
			r, err = newRequest(classTraceMiss, checkKey{circuit: "sg298", vecSeed: fresh()})
		default:
			var text string
			if text, err = coldNetlist(fresh()); err == nil {
				r, err = newRequest(classCold, checkKey{bench: text, vecSeed: fresh()})
			}
		}
		if err != nil {
			return p, err
		}
		p.timed = append(p.timed, r)
	}
	return p, nil
}

// liveServer is a serve.Server listening on loopback, with the client
// the workload drives it through.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startServer(maxRuns int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		MaxConcurrent: 2,
		// The registry never evicts, so the cap must cover every request.
		MaxRuns: maxRuns,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
			// Far above any run here; bounds a stalled request.
			Timeout: time.Minute,
		},
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close stops the HTTP server and the run registry and waits for both.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	ls.client.CloseIdleConnections()
	return errors.Join(err, ls.srv.Close(ctx))
}

// record is one request's round trip as the client saw it.
type record struct {
	idx             int
	req             *request
	id              string
	t0, tPost, tEnd time.Time
	status          string // terminal status, when one arrived
	refused         bool   // 503
	err             error
}

// do submits one run and follows its event stream to the terminal
// status.
func (ls *liveServer) do(idx int, rq *request) record {
	rec := record{idx: idx, req: rq, t0: time.Now()}
	resp, err := ls.client.Post(ls.base+"/runs", "application/json", bytes.NewReader(rq.body))
	if err != nil {
		rec.err = err
		return rec
	}
	var created struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.tPost = time.Now()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		rec.refused = true
		return rec
	case resp.StatusCode != http.StatusAccepted:
		rec.err = fmt.Errorf("POST /runs: %s %s", resp.Status, created.Error)
		return rec
	case err != nil:
		rec.err = fmt.Errorf("POST /runs: %w", err)
		return rec
	}
	rec.id = created.ID
	rec.status, rec.tEnd, rec.err = ls.waitTerminal(rec.id)
	return rec
}

// waitTerminal reads /runs/{id}/events until the terminal status event
// and returns it with the time it was seen.
func (ls *liveServer) waitTerminal(id string) (string, time.Time, error) {
	resp, err := ls.client.Get(ls.base + "/runs/" + id + "/events")
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	// Drained to the end, so the connection is reused.
	defer io.Copy(io.Discard, resp.Body)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "status" {
			continue
		}
		var st struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return "", time.Time{}, err
		}
		switch st.Status {
		case serve.StatusDone, serve.StatusFailed, serve.StatusCanceled:
			return st.Status, time.Now(), nil
		}
	}
	return "", time.Time{}, fmt.Errorf("events of %s ended without a terminal status (%v)", id, sc.Err())
}

// statuses fetches the final view of every registered run, by ID.
func (ls *liveServer) statuses() (map[string]serve.RunStatus, error) {
	resp, err := ls.client.Get(ls.base + "/runs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /runs: %s", resp.Status)
	}
	var list struct {
		Runs []serve.RunStatus `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("GET /runs: %w", err)
	}
	byID := make(map[string]serve.RunStatus, len(list.Runs))
	for _, st := range list.Runs {
		byID[st.ID] = st
	}
	return byID, nil
}

// evictions scrapes the cache eviction counter from /metrics.
func (ls *liveServer) evictions() (float64, error) {
	resp, err := ls.client.Get(ls.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "motserve_cache_evictions_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("no motserve_cache_evictions_total in /metrics (%v)", sc.Err())
}

// load runs the closed loop over plan until window has passed, and
// returns the records in plan order and the time until the last client
// finished.
func (ls *liveServer) load(plan []request, window time.Duration) ([]record, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		recs []record
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				rec := ls.do(i, &plan[i])
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })
	return recs, elapsed
}

// checked is a record after its run's final status was fetched and its
// counts compared with a direct run.
type checked struct {
	record
	st serve.RunStatus
	ok bool
}

// checker computes the expected counts of each distinct input once, by
// driving core directly, outside every timed window and under spans
// when tr is set.
type checker struct {
	memo map[checkKey]checkResult
	tr   *xtrace.Tracer
	n    int // checks run so far, the span key of the next
}

type checkResult struct {
	c   counts
	err error
}

// prepare computes the keys not yet known, on `clients` goroutines.
func (ck *checker) prepare(recs []record) {
	var todo []checkKey
	for _, r := range recs {
		if _, ok := ck.memo[r.req.key]; !ok && r.status == serve.StatusDone {
			ck.memo[r.req.key] = checkResult{}
			todo = append(todo, r.req.key)
		}
	}
	results := make([]checkResult, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := ck.tr.NewTrack("check")
			defer buf.Flush()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(todo) {
					return
				}
				results[i] = check(todo[i], buf, uint64(ck.n+i))
			}
		}()
	}
	wg.Wait()
	for i, k := range todo {
		ck.memo[k] = results[i]
	}
	ck.n += len(todo)
}

// check runs one direct simulation of k's inputs.
func check(k checkKey, buf *xtrace.Buffer, key uint64) checkResult {
	root := buf.Begin("bench.check", 0, key)
	defer buf.End(root)
	buf.AttrInt(root, "req", int64(key))
	rootID := buf.ID(root)
	in, err := build(k.source(), servePatterns, k.vecSeed, true, buf, rootID)
	if err != nil {
		return checkResult{err: err}
	}
	defer in.release()
	c, err := layered(in, buf, rootID)
	return checkResult{c, err}
}

// verify fetches each record's final status and checks it: a transport
// error, a refusal, a run that did not finish done, or counts that differ
// from the direct run each count as one failure.
func verify(recs []record, statuses map[string]serve.RunStatus, ck *checker, res *outcome, out io.Writer) []checked {
	ck.prepare(recs)
	var cs []checked
	for _, r := range recs {
		res.attempted++
		c := checked{record: r}
		switch {
		case r.err != nil:
			res.fail(out, 1, "request %d: %v", r.idx, r.err)
		case r.refused:
			res.fail(out, 1, "request %d refused (503)", r.idx)
		case r.status != serve.StatusDone:
			res.fail(out, 1, "run %s ended %s", r.id, r.status)
		default:
			st := statuses[r.id]
			var err error
			if st.Report == nil {
				err = fmt.Errorf("run %s has no report", r.id)
			}
			want := ck.memo[r.req.key]
			if err == nil {
				err = want.err
			}
			switch {
			case err != nil:
				res.fail(out, 1, "run %s: %v", r.id, err)
			case countsOf(st.Report) != want.c:
				res.fail(out, 1, "run %s (%s) counts %+v, direct run %+v", r.id, r.req.class, countsOf(st.Report), want.c)
			default:
				c.st, c.ok = st, true
			}
		}
		cs = append(cs, c)
	}
	return cs
}

// repeatResult is one repeat on a fresh server.
type repeatResult struct {
	setup, elapsed time.Duration
	alloc          uint64
	recs           []checked
	evictions      float64
}

// runRepeat starts a fresh server, primes the warm keys (both timed as
// set-up), runs the closed loop for window, then checks every run.
func runRepeat(plan mixPlan, window time.Duration, ck *checker, res *outcome, out io.Writer) (repeatResult, error) {
	var rr repeatResult
	runtime.GC()
	start := time.Now()
	ls, err := startServer(len(plan.warm) + len(plan.timed))
	if err != nil {
		return rr, err
	}
	var prime []record
	for i := range plan.warm {
		prime = append(prime, ls.do(-1-i, &plan.warm[i]))
	}
	rr.setup = time.Since(start)
	before := totalAlloc()
	recs, elapsed := ls.load(plan.timed, window)
	rr.alloc, rr.elapsed = totalAlloc()-before, elapsed
	statuses, err := ls.statuses()
	if err != nil {
		return rr, errors.Join(err, ls.close())
	}
	verify(prime, statuses, ck, res, out)
	rr.recs = verify(recs, statuses, ck, res, out)
	rr.evictions, err = ls.evictions()
	return rr, errors.Join(err, ls.close())
}

// runServeMix measures serve-mix: serveRepeats repeats, each on a fresh
// server; with --trace 1 the second half of them is traced.
func runServeMix(o opts) (*outcome, error) {
	res := &outcome{metrics: map[string]float64{}}
	rng := rand.New(rand.NewSource(o.seed))
	window := time.Duration(o.seconds / serveRepeats * float64(time.Second))
	ck := &checker{memo: map[checkKey]checkResult{}}
	var tr *xtrace.Tracer
	var rt *runtimeWindow
	var untraced, traced []repeatResult
	for r := 0; r < serveRepeats; r++ {
		if o.traced && r == serveRepeats/2 {
			tr = xtrace.New(xtrace.Options{MaxSpans: 1 << 21})
			ck.tr = tr
			rt = startRuntimeWindow()
		}
		plan, err := newMixPlan(rng, int(planRate*window.Seconds())+1)
		if err != nil {
			return nil, err
		}
		rr, err := runRepeat(plan, window, ck, res, o.out)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.out, "repeat %d: setup %.4f s, %d requests in %.3f s, %.1f MB allocated, %g evictions\n",
			r, rr.setup.Seconds(), len(rr.recs), rr.elapsed.Seconds(), float64(rr.alloc)/1e6, rr.evictions)
		if tr != nil {
			traced = append(traced, rr)
		} else {
			untraced = append(untraced, rr)
		}
	}
	e2e := serveEndToEnd(untraced, o.out)
	if !o.traced {
		res.metrics = e2e
		return res, nil
	}
	m := res.metrics
	rt.stop(m)
	tracedE2E := serveEndToEnd(traced, o.out)
	m["trace.overhead_faults_per_s"] = e2e["faults_per_s"] - tracedE2E["faults_per_s"]
	m["trace.overhead_latency_p50_ms"] = tracedE2E["latency_p50_ms"] - e2e["latency_p50_ms"]
	serveLayers(traced, tr, m, o.out)
	spans, tracks := tr.Snapshot()
	return res, finishSpans(o, spans, tracks)
}

// serveEndToEnd pools the checked runs of the repeats into the
// end-to-end metrics.
func serveEndToEnd(rrs []repeatResult, out io.Writer) map[string]float64 {
	var setup, latMS []float64
	var elapsed, faults float64
	var alloc uint64
	requests := 0
	for _, rr := range rrs {
		setup = append(setup, rr.setup.Seconds())
		elapsed += rr.elapsed.Seconds()
		alloc += rr.alloc
		requests += len(rr.recs)
		for _, c := range rr.recs {
			if c.ok {
				latMS = append(latMS, float64(c.tEnd.Sub(c.t0))/1e6)
				faults += float64(c.st.Faults)
			}
		}
	}
	lat := summarize(latMS)
	fmt.Fprintf(out, "latency ms: %s\n", lat)
	return map[string]float64{
		"faults_per_s":   faults / elapsed,
		"setup_s":        median(setup),
		"runs_per_s":     float64(lat.N) / elapsed,
		"latency_p50_ms": lat.P50,
		"latency_p95_ms": lat.P95,
		"alloc_mb":       float64(alloc) / float64(max(requests, 1)) / 1e6,
		"peak_rss_mb":    peakRSSMB(),
	}
}

// serveLayers sets the serve, cache and core per-layer metrics from the
// traced repeats, and records each request's spans: the POST round trip,
// and the event wait with the server-side queue and execution intervals
// inside it, all keyed by the request index and labelled with the run ID.
func serveLayers(rrs []repeatResult, tr *xtrace.Tracer, m map[string]float64, out io.Writer) {
	submit, exec := map[string][]float64{}, map[string][]float64{}
	var queue, notify []float64
	var reps []*report.RunReport
	var circuitHit, traceHit, requests, refused, evictions float64
	epoch := time.Now().Add(-time.Duration(tr.Now()))
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }
	for ri, rr := range rrs {
		evictions += rr.evictions
		for _, c := range rr.recs {
			requests++
			if c.refused {
				refused++
			}
			if !c.ok {
				continue
			}
			st := c.st
			submit[c.req.class] = append(submit[c.req.class], ms(c.t0, c.tPost))
			queue = append(queue, ms(st.CreatedAt, *st.StartedAt))
			exec[c.req.class] = append(exec[c.req.class], ms(*st.StartedAt, *st.FinishedAt))
			notify = append(notify, ms(*st.FinishedAt, c.tEnd))
			reps = append(reps, st.Report)
			if st.Cache != nil && st.Cache.CircuitHit {
				circuitHit++
			}
			if st.Cache != nil && st.Cache.TraceHit {
				traceHit++
			}
			key := uint64(ri)<<32 | uint64(c.idx)
			attrs := []xtrace.Attr{{Key: "req", Val: st.ID}, {Key: "class", Val: c.req.class}}
			root := recordSpan(tr, epoch, "serve.request", 0, key, c.t0, c.tEnd, attrs)
			recordSpan(tr, epoch, "serve.submit", root, key, c.t0, c.tPost, attrs)
			wait := recordSpan(tr, epoch, "serve.events", root, key, c.tPost, c.tEnd, attrs)
			recordSpan(tr, epoch, "serve.queue", wait, key, st.CreatedAt, *st.StartedAt, attrs)
			recordSpan(tr, epoch, "serve.exec", wait, key, *st.StartedAt, *st.FinishedAt, attrs)
		}
	}
	for _, class := range classes {
		m["serve.submit_ms."+class] = median(submit[class])
		m["serve.exec_ms."+class] = median(exec[class])
		fmt.Fprintf(out, "%s: %d runs\n", class, len(exec[class]))
	}
	m["serve.queue_ms"] = median(queue)
	m["serve.notify_ms"] = median(notify)
	m["serve.refused"] = refused
	m["serve.latency_samples"] = float64(len(queue))
	hits := []struct {
		name string
		r    ratio
	}{
		{"cache.circuit_hit_ratio", ratio{circuitHit, requests}},
		{"cache.trace_hit_ratio", ratio{traceHit, requests}},
	}
	for _, h := range hits {
		m[h.name] = h.r.value()
		fmt.Fprintf(out, "%s %s\n", h.name, h.r)
	}
	m["cache.evictions"] = evictions
	stageLayers(reps, m)
	spans, _ := tr.Snapshot()
	spanLayers(spans, m, out)
}

// recordSpan records a finished span over [from, to] and returns its ID.
func recordSpan(tr *xtrace.Tracer, epoch time.Time, name string, parent xtrace.SpanID, key uint64, from, to time.Time, attrs []xtrace.Attr) xtrace.SpanID {
	id := xtrace.DeriveID(parent, name, key)
	tr.Record(xtrace.Span{ID: id, Parent: parent, Name: name, Start: int64(from.Sub(epoch)), Dur: int64(to.Sub(from)), Attrs: attrs})
	return id
}
