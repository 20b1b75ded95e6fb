package bench

import (
	"strings"
	"testing"
	"time"
)

// The harness itself must be trustworthy: run every experiment at a tiny
// scale and sanity-check the table shapes and the relationships the
// reproduction depends on.

func TestE1StorageShape(t *testing.T) {
	tbl, err := RunE1([]int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 { // 3 encodings + dewey_text
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	byEnc := map[string]string{}
	for _, r := range tbl.Rows {
		byEnc[r[2]] = r[4] // bytes
	}
	if byEnc["dewey_text"] <= byEnc["dewey"] && len(byEnc["dewey_text"]) <= len(byEnc["dewey"]) {
		t.Errorf("string dewey not larger: %v", byEnc)
	}
}

func TestE3QueriesRun(t *testing.T) {
	tbl, err := RunE3(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9*3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Every encoding must report the same result count per query.
	counts := map[string]string{}
	for _, r := range tbl.Rows {
		q, enc, n := r[0], r[2], r[3]
		if prev, ok := counts[q]; ok && prev != n {
			t.Errorf("%s: %s returned %s results, others %s", q, enc, n, prev)
		}
		counts[q] = n
	}
}

func TestE4E5UpdateShapes(t *testing.T) {
	tbl, err := RunE4(8)
	if err != nil {
		t.Fatal(err)
	}
	renum := map[string]map[string]string{}
	for _, r := range tbl.Rows {
		pos, enc := r[0], r[1]
		if renum[pos] == nil {
			renum[pos] = map[string]string{}
		}
		renum[pos][enc] = r[3]
	}
	// At "begin", local renumbers fewer rows than global.
	if renum["begin"]["local"] >= renum["begin"]["global"] &&
		len(renum["begin"]["local"]) >= len(renum["begin"]["global"]) {
		t.Errorf("local did not beat global at begin: %v", renum["begin"])
	}
	// "end" (after last item of first region) renumbers nothing for local.
	if renum["end"]["local"] != "0" {
		t.Errorf("local end insert renumbered %s", renum["end"]["local"])
	}
	if _, err := RunE5([]int{5}); err != nil {
		t.Fatal(err)
	}
}

func TestE6GapsReduceEvents(t *testing.T) {
	tbl, err := RunE6(6, 12, []uint32{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	// For each encoding, gap 16 must produce fewer renumber events than
	// gap 1.
	events := map[string]map[string]string{}
	for _, r := range tbl.Rows {
		enc, gap := r[0], r[1]
		if events[enc] == nil {
			events[enc] = map[string]string{}
		}
		events[enc][gap] = r[2]
	}
	for enc, m := range events {
		if m["16"] >= m["1"] && len(m["16"]) >= len(m["1"]) {
			t.Errorf("%s: gap 16 events %s, gap 1 events %s", enc, m["16"], m["1"])
		}
	}
}

func TestE7E8Run(t *testing.T) {
	tbl, err := RunE7(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("E7 rows = %d", len(tbl.Rows))
	}
	// Dewey reads a subtree with one statement after the root's row, and the
	// items' values with one after the query's.
	for _, row := range tbl.Rows {
		if row[1] == "dewey" && row[0] != "document" && row[4] != "2" {
			t.Errorf("E7 %s on dewey ran %s statements, want 2", row[0], row[4])
		}
	}
	tbl, err = RunE8(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("E8 rows = %d", len(tbl.Rows))
	}
}

func TestE2Runs(t *testing.T) {
	if _, err := RunE2([]int{5}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col", "longer_column"},
		Rows:   [][]string{{"value_that_is_long", "x"}},
	}
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "a note") {
		t.Errorf("rendering:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("line count = %d", len(lines))
	}
}

func TestQuerySuiteParametrization(t *testing.T) {
	qs := QuerySuite(1)
	if len(qs) != 9 {
		t.Fatalf("suite size = %d", len(qs))
	}
	if !strings.Contains(qs[1].XPath, "[1]") {
		t.Errorf("mid clamped wrong: %s", qs[1].XPath)
	}
}

func TestE9Runs(t *testing.T) {
	tbl, err := RunE9([]int{6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3*3 {
		t.Fatalf("E9 rows = %d", len(tbl.Rows))
	}
}

func TestConcurrencyBenchRuns(t *testing.T) {
	rep, err := RunConcurrency(10, []int{1, 2}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Results); got != 6 { // 3 encodings × 2 levels
		t.Fatalf("got %d results, want 6", got)
	}
	for _, r := range rep.Results {
		if r.Queries <= 0 || r.QPS <= 0 {
			t.Errorf("%s n=%d: no progress (queries=%d qps=%.1f)", r.Encoding, r.Goroutines, r.Queries, r.QPS)
		}
		if r.Goroutines == 1 && r.Speedup != 1 {
			t.Errorf("%s baseline speedup = %v, want 1", r.Encoding, r.Speedup)
		}
		if r.P50US <= 0 || r.P99US < r.P50US {
			t.Errorf("%s n=%d: bad quantiles p50=%v p99=%v", r.Encoding, r.Goroutines, r.P50US, r.P99US)
		}
	}
	tbl := ConcurrencyTable(rep)
	if len(tbl.Rows) != 6 || !strings.Contains(tbl.String(), "speedup") {
		t.Errorf("table rendering off:\n%s", tbl.String())
	}
}
