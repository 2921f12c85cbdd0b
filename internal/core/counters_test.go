package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestRunCounterTable checks the counter table against LiveSnapshot:
// every int64 field has exactly one row, keyed by the field's JSON key
// and in nanoseconds exactly when that key ends in _ns; keys and
// families are unique; and Add of a snapshot with every field set to 1
// doubles every field, as Work.Add does for Work's.
func TestRunCounterTable(t *testing.T) {
	counters := RunCounters()
	keys, families := make(map[string]bool), make(map[string]bool)
	for _, c := range counters {
		if keys[c.Key] {
			t.Errorf("key %q has two rows", c.Key)
		}
		if families[c.Family] {
			t.Errorf("family %q has two rows", c.Family)
		}
		keys[c.Key], families[c.Family] = true, true
	}

	typ := reflect.TypeOf(LiveSnapshot{})
	nfields := 0
	for _, f := range reflect.VisibleFields(typ) {
		if f.Anonymous {
			continue
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("LiveSnapshot field %s is %s, not int64", f.Name, f.Type)
			continue
		}
		nfields++
		var s LiveSnapshot
		reflect.ValueOf(&s).Elem().FieldByIndex(f.Index).SetInt(1)
		var rows []RunCounter
		for _, c := range counters {
			if c.Value(&s) != 0 {
				rows = append(rows, c)
			}
		}
		if len(rows) != 1 {
			t.Errorf("field %s has %d table rows, want 1", f.Name, len(rows))
			continue
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if rows[0].Key != key {
			t.Errorf("field %s (JSON key %q) has the row keyed %q", f.Name, key, rows[0].Key)
		}
		if ns := strings.HasSuffix(key, "_ns"); ns != (rows[0].Unit == Nanoseconds) {
			t.Errorf("field %s: key %q with unit %d", f.Name, key, rows[0].Unit)
		}
	}
	if len(counters) != nfields {
		t.Errorf("%d table rows for %d LiveSnapshot fields", len(counters), nfields)
	}

	var ones LiveSnapshot
	fields, names := snapshotFields(&ones)
	for _, f := range fields {
		f.SetInt(1)
	}
	ones.Add(ones)
	for i, f := range fields {
		if f.Int() != 2 {
			t.Errorf("Add of all-ones left %s = %d, want 2", names[i], f.Int())
		}
	}
	ones.Work.Add(ones.Work)
	w := reflect.ValueOf(ones.Work)
	for i := 0; i < w.NumField(); i++ {
		if w.Field(i).Int() != 4 {
			t.Errorf("Work.Add of all-twos left %s = %d, want 4", w.Type().Field(i).Name, w.Field(i).Int())
		}
	}
}
