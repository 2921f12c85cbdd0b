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
	// A count's family is its key with the counter suffix (faults_total
	// has it already); a duration's is a stage's seconds.
	for _, c := range counters {
		switch {
		case c.Unit == Nanoseconds:
			if !strings.HasPrefix(c.Family, "stage_") || !strings.HasSuffix(c.Family, "_seconds_total") {
				t.Errorf("nanosecond row %q has family %q", c.Key, c.Family)
			}
		case c.Family != c.Key+"_total" && c.Key != "faults_total":
			t.Errorf("row %q has family %q", c.Key, c.Family)
		}
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

// TestTallyCount classifies one outcome of every class and checks each
// count: conventional detections, the Table 3 sums over the MOT
// detections only (identified or expanded), (C) pruning, the pipeline
// faults and the per-fault sums over every outcome.
func TestTallyCount(t *testing.T) {
	outcomes := []struct {
		o        FaultOutcome
		pipeline bool
	}{
		{FaultOutcome{Outcome: DetectedConventional}, false},
		{FaultOutcome{Outcome: DetectedConventional, Pairs: 1}, true},
		{FaultOutcome{FailedConditionC: true}, false},
		{FaultOutcome{FailedConditionC: true, Pairs: 2}, true},
		{FaultOutcome{Outcome: DetectedMOT, ByIdentification: true, Pairs: 3, Sequences: 1,
			Counters: Counters{Det: 1, Conf: 2, Extra: 3}}, true},
		{FaultOutcome{Outcome: DetectedMOT, Pairs: 5, Expansions: 2, Sequences: 4,
			Counters: Counters{Det: 10, Conf: 20, Extra: 30}}, true},
		{FaultOutcome{Pairs: 7, Expansions: 3, Sequences: 8,
			Counters: Counters{Det: 100, Conf: 200, Extra: 300}}, true},
	}
	var got Tally
	for i := range outcomes {
		got.count(&outcomes[i].o, outcomes[i].pipeline)
	}
	want := Tally{
		FaultsDone: 7, Conv: 2, MOT: 2, PrunedConditionC: 2, Identified: 1, MOTFaults: 5,
		Pairs: 18, Expansions: 5, Sequences: 13, CtrDet: 11, CtrConf: 22, CtrExtra: 33,
	}
	if got != want {
		t.Errorf("tally\n  got  %+v\n  want %+v", got, want)
	}
	if got.Detected() != 4 || got.Undetected() != 3 {
		t.Errorf("Detected() = %d, Undetected() = %d, want 4 and 3", got.Detected(), got.Undetected())
	}
}
