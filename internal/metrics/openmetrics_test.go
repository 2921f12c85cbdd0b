package metrics

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram(10, 100)
	if h.Exemplars() != nil {
		t.Fatal("fresh histogram should have nil exemplars")
	}
	h.Observe(50)
	h.SetExemplar(50, Label{Key: "fault", Val: "g17/saf0"})
	h.Observe(500)
	h.SetExemplar(500, Label{Key: "span", Val: "00000000deadbeef"})
	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("exemplar slots = %d, want 3 (one per bucket incl. overflow)", len(ex))
	}
	if ex[0] != nil {
		t.Errorf("bucket le=10 has exemplar %+v, want none", ex[0])
	}
	if ex[1] == nil || ex[1].Value != 50 || ex[1].Labels[0].Val != "g17/saf0" {
		t.Errorf("bucket le=100 exemplar = %+v, want value 50 fault g17/saf0", ex[1])
	}
	if ex[2] == nil || ex[2].Value != 500 {
		t.Errorf("overflow bucket exemplar = %+v, want value 500", ex[2])
	}
	// A newer observation in the same bucket replaces the exemplar.
	h.SetExemplar(60, Label{Key: "fault", Val: "g9/saf1"})
	if ex := h.Exemplars(); ex[1].Value != 60 {
		t.Errorf("exemplar not replaced: %+v", ex[1])
	}
}

// TestExemplarsLeavePrometheusOutputUnchanged is the byte-identity
// guard: recording exemplars must not alter the default Prometheus
// text exposition in any way.
func TestExemplarsLeavePrometheusOutputUnchanged(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "Latency.", 10, 100)
	h.Observe(50)
	var before strings.Builder
	if err := r.WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	h.SetExemplar(50, Label{Key: "fault", Val: "g17/saf0"})
	var after strings.Builder
	if err := r.WritePrometheus(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatalf("Prometheus output changed after SetExemplar:\nbefore:\n%s\nafter:\n%s", before.String(), after.String())
	}
}

func TestWriteOpenMetricsGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("reqs_total", "Total requests.")
	reqs.Add(2)
	r.GaugeFunc("depth", "Queue depth.", func() float64 { return 4 })
	h := r.Histogram("lat_ns", "Latency.", 10, 100)
	h.Observe(5)
	h.Observe(50)
	h.SetExemplar(50, Label{Key: "fault", Val: "g17/saf0"})
	h.Observe(500)
	h.SetExemplar(500, Label{Key: "span", Val: "00000000deadbeef"})

	var sb strings.Builder
	if err := r.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP reqs Total requests.
# TYPE reqs counter
reqs_total 2
# HELP depth Queue depth.
# TYPE depth gauge
depth 4
# HELP lat_ns Latency.
# TYPE lat_ns histogram
lat_ns_bucket{le="10"} 1
lat_ns_bucket{le="100"} 2 # {fault="g17/saf0"} 50
lat_ns_bucket{le="+Inf"} 3 # {span="00000000deadbeef"} 500
lat_ns_sum 555
lat_ns_count 3
# EOF
`
	if got := sb.String(); got != want {
		t.Errorf("OpenMetrics exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestFormatExemplarEscaping(t *testing.T) {
	got := formatExemplar(&Exemplar{
		Value:  1500000000,
		Labels: []Label{{Key: "run", Val: `a"b\c` + "\n"}},
	}, 1e-9)
	want := ` # {run="a\"b\\c\n"} 1.5`
	if got != want {
		t.Errorf("formatExemplar = %q, want %q", got, want)
	}
}

func TestHandlerContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "Total requests.").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(accept string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("Content-Type"), string(body)
	}

	ct, body := get("")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("default Content-Type = %q", ct)
	}
	if strings.Contains(body, "# EOF") {
		t.Errorf("default exposition must not carry the OpenMetrics terminator:\n%s", body)
	}

	// The exact header Prometheus sends when it prefers OpenMetrics.
	ct, body = get("application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	if ct != openMetricsContentType {
		t.Errorf("negotiated Content-Type = %q, want %q", ct, openMetricsContentType)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("OpenMetrics exposition must end with # EOF:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE reqs counter\n") || !strings.Contains(body, "reqs_total 1\n") {
		t.Errorf("OpenMetrics counter family/sample naming wrong:\n%s", body)
	}

	if acceptsOpenMetrics("text/plain, */*") {
		t.Error("wildcard Accept must not switch formats")
	}
}

// TestHistogramParallelExemplarCrossCheck races exemplar writers
// against readers and the lazy slot-set creation; every loaded exemplar
// must be internally consistent (value matches its labels). Runs under
// -race via the Makefile pattern (Exemplar).
func TestHistogramParallelExemplarCrossCheck(t *testing.T) {
	h := NewHistogram(ExpBounds(1, 2, 10)...)
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 5000; i++ {
				v := int64(i % 700)
				h.Observe(v)
				h.SetExemplar(v, Label{Key: "i", Val: itoa(v)})
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			for _, ex := range h.Exemplars() {
				if ex == nil {
					continue
				}
				if len(ex.Labels) != 1 || ex.Labels[0].Val != itoa(ex.Value) {
					t.Errorf("torn exemplar: value %d labels %+v", ex.Value, ex.Labels)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestFormatFloatSpecials(t *testing.T) {
	for v, want := range map[float64]string{
		math.NaN():     "NaN",
		math.Inf(+1):   "+Inf",
		math.Inf(-1):   "-Inf",
		1.5:            "1.5",
		0:              "0",
		-2:             "-2",
		1e21:           "1e+21",
		0.000001234375: "1.234375e-06",
	} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestDuplicateRegistrationNamesMetric(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		msg, ok := recover().(string)
		if !ok {
			t.Fatal("duplicate registration did not panic with a message")
		}
		if !strings.Contains(msg, `"dup_total"`) {
			t.Errorf("duplicate panic %q does not name the colliding metric", msg)
		}
	}()
	r.Counter("dup_total", "second")
}
