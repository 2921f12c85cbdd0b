package serve

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestLiveCountersCoverAllFields guards the exposition: RegisterLiveCounters
// must expose every LiveSnapshot field exactly once — no field
// unexposed, no field scraped under two names — with the nanosecond
// fields in seconds.
func TestLiveCountersCoverAllFields(t *testing.T) {
	s := syntheticSnapshot()
	field := make(map[int64]string) // distinct value -> field name
	v := reflect.ValueOf(s)
	for _, f := range reflect.VisibleFields(v.Type()) {
		if !f.Anonymous {
			field[v.FieldByIndex(f.Index).Int()] = f.Name
		}
	}
	reg := metrics.NewRegistry()
	RegisterLiveCounters(reg, "x", func() core.LiveSnapshot { return s })
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string) // field name -> family
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if strings.HasSuffix(name, "_seconds_total") {
			x *= 1e9
		}
		f, ok := field[int64(math.Round(x))]
		if !ok {
			t.Errorf("%s reads %s, the value of no field", name, val)
			continue
		}
		if prev, dup := seen[f]; dup {
			t.Errorf("field %s exposed as both %s and %s", f, prev, name)
		}
		seen[f] = name
	}
	for _, f := range field {
		if _, ok := seen[f]; !ok {
			t.Errorf("field %s has no counter", f)
		}
	}
}
