package serve

import (
	"bufio"
	"net/http"
	"os"
	"strings"
	"testing"
)

// family is one exposed metric family's metadata.
type family struct{ typ, help string }

// catalogue reads the metric rows of METRICS.md: `| `name` | type |
// help | since |`. A <route> placeholder in a row stands for every
// route label, in its name and (in backquotes) its help alike.
func catalogue(t *testing.T) map[string]family {
	t.Helper()
	data, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]family)
	for _, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`motserve_") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		f := family{strings.TrimSpace(cells[2]), strings.TrimSpace(cells[3])}
		add := func(name string, f family) {
			if _, dup := rows[name]; dup {
				t.Errorf("METRICS.md lists %s twice", name)
			}
			rows[name] = f
		}
		if !strings.Contains(name, "<route>") {
			add(name, f)
			continue
		}
		for _, route := range routeNames {
			add(strings.ReplaceAll(name, "<route>", route),
				family{f.typ, strings.ReplaceAll(f.help, "`<route>`", route)})
		}
	}
	return rows
}

// scrapeFamilies fetches /metrics with the given Accept header and
// returns its families' metadata by name, counters under their sample
// name (the OpenMetrics metadata drops the _total suffix).
func scrapeFamilies(t *testing.T, url, accept string) map[string]family {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	help := make(map[string]string)
	fams := make(map[string]family)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		kind, rest, ok := strings.Cut(sc.Text(), " ")
		if !ok || (kind != "#" && kind != "") {
			continue
		}
		what, rest, _ := strings.Cut(rest, " ")
		name, text, _ := strings.Cut(rest, " ")
		switch what {
		case "HELP":
			help[name] = text
		case "TYPE":
			if text == "counter" && !strings.HasSuffix(name, "_total") {
				fams[name+"_total"] = family{text, help[name]}
			} else {
				fams[name] = family{text, help[name]}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

// TestServerMetricsCatalogue scrapes a server after one run, in both
// exposition formats, and checks METRICS.md against it: every exposed
// family has a row with its name, type and HELP text, and every row
// names an exposed family.
func TestServerMetricsCatalogue(t *testing.T) {
	_, ts := newTestServer(t)
	st := postRun(t, ts, RunRequest{Circuit: "s27", Random: 16, Workers: 1})
	if fin := waitDone(t, ts, st.ID); fin.Status != StatusDone {
		t.Fatalf("run status = %q (%s)", fin.Status, fin.Error)
	}
	rows := catalogue(t)
	for _, accept := range []string{"", "application/openmetrics-text"} {
		fams := scrapeFamilies(t, ts.URL, accept)
		if len(fams) == 0 {
			t.Fatalf("Accept %q: no families exposed", accept)
		}
		for name, got := range fams {
			want, ok := rows[name]
			switch {
			case !ok:
				t.Errorf("Accept %q: %s (%s, %q) has no METRICS.md row", accept, name, got.typ, got.help)
			case got != want:
				t.Errorf("Accept %q: %s is exposed as %s %q, METRICS.md says %s %q",
					accept, name, got.typ, got.help, want.typ, want.help)
			}
		}
		for name := range rows {
			if _, ok := fams[name]; !ok {
				t.Errorf("Accept %q: METRICS.md row %s names no exposed family", accept, name)
			}
		}
	}
}
