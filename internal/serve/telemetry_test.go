package serve

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// sentinelSnapshot builds a LiveSnapshot whose i-th field holds the
// distinct value i+1, so any field a consumer drops or double-counts is
// detectable by value.
func sentinelSnapshot(t *testing.T) core.LiveSnapshot {
	t.Helper()
	var s core.LiveSnapshot
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int64 {
			t.Fatalf("LiveSnapshot field %s is %s; the sentinel scheme assumes int64 — extend this test",
				v.Type().Field(i).Name, f.Kind())
		}
		f.SetInt(int64(i + 1))
	}
	return s
}

// TestLiveCountersCoverAllFields guards the exposition table: every
// LiveSnapshot field must be read by exactly one liveCounters entry —
// no field unexposed, no field scraped under two names.
func TestLiveCountersCoverAllFields(t *testing.T) {
	numFields := reflect.TypeOf(core.LiveSnapshot{}).NumField()
	if len(liveCounters) != numFields {
		t.Fatalf("liveCounters has %d entries, LiveSnapshot has %d fields", len(liveCounters), numFields)
	}
	s := sentinelSnapshot(t)
	seen := make(map[int64]string, numFields)
	for _, m := range liveCounters {
		got := m.get(s)
		if got < 1 || got > int64(numFields) {
			t.Errorf("counter %s reads %d, not a sentinel value", m.name, got)
			continue
		}
		field := reflect.TypeOf(s).Field(int(got - 1)).Name
		if prev, dup := seen[got]; dup {
			t.Errorf("field %s read by both %s and %s", field, prev, m.name)
		}
		seen[got] = m.name
	}
	if len(seen) != numFields {
		for i := 0; i < numFields; i++ {
			if _, ok := seen[int64(i+1)]; !ok {
				t.Errorf("field %s has no counter", reflect.TypeOf(s).Field(i).Name)
			}
		}
	}
}
