package ordxml

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// explainDoc is a small deterministic catalog slice: enough items for the
// E3-representative queries (position predicate, range, following-sibling,
// descendant) to exercise index scans, positional post-processing and the
// per-encoding descendant plans. namerica is a last child, so Global's
// interval bound has to climb past it.
const explainDoc = `<site><regions><namerica>` +
	`<item id="i1"><name>a</name><quantity>1</quantity></item>` +
	`<item id="i2"><name>b</name><quantity>2</quantity><description>x <keyword>k1</keyword></description></item>` +
	`<item id="i3"><name>c</name><quantity>3</quantity></item>` +
	`<item id="i4"><name>d</name><quantity>4</quantity><description><keyword>k2</keyword> y</description></item>` +
	`<item id="i5"><name>e</name><quantity>5</quantity></item>` +
	`</namerica></regions></site>`

// explainPeopleDoc adds people to a region of items: the person counter-cases
// run on it, where the predicate tags (`name`, the `id` attribute) outnumber
// the step tag, so the step must keep driving the join.
const explainPeopleDoc = `<site><regions><namerica>` +
	`<item id="i1"><name>a</name></item><item id="i2"><name>b</name></item>` +
	`<item id="i3"><name>c</name></item><item id="i4"><name>d</name></item>` +
	`</namerica></regions><people>` +
	`<person id="p1"><name>ann</name></person>` +
	`</people></site>`

type goldenQuery struct {
	id    string
	xpath string
}

// goldenDocs are the documents of the golden files, each with the
// representative E3 shapes run on it. On explainDoc the value predicates of
// Q7 and Q8 are rarer than items and drive the join; on explainPeopleDoc
// they are commoner than persons and the person step drives.
var goldenDocs = []struct {
	xml     string
	queries []goldenQuery
}{
	{explainDoc, []goldenQuery{
		{"Q2-position", "/site/regions/namerica/item[3]"},
		{"Q3-range", "/site/regions/namerica/item[position() <= 2]"},
		{"Q4-following-sibling", "/site/regions/namerica/item[2]/following-sibling::item"},
		{"Q6-descendant", "//keyword"},
		{"Q7-attribute-value", "//item[@id = 'i3']"},
		{"Q8-child-value", "//item[quantity = '5']"},
		{"Q9-mid-path-descendant", "/site/regions/namerica//keyword"},
	}},
	{explainPeopleDoc, []goldenQuery{
		{"person-child-value", "//person[name = 'ann']"},
		{"person-attribute-value", "//person[@id = 'p1']"},
	}},
}

// volatileTime matches the wall-time field of EXPLAIN ANALYZE annotations
// and the total line; plans are otherwise deterministic.
var volatileTime = regexp.MustCompile(`time=[0-9][^ )\n]*`)

func normalizeAnalyze(s string) string {
	return volatileTime.ReplaceAllString(s, "time=<T>")
}

// TestExplainGolden locks the EXPLAIN and EXPLAIN ANALYZE output for the
// representative ordered queries under every encoding. Each golden records,
// per query: the generated SQL statements, the physical plan of each, and —
// for the parameter-free statements — the instrumented EXPLAIN ANALYZE tree
// with times normalized. Regenerate with `go test -run TestExplainGolden
// -update`.
func TestExplainGolden(t *testing.T) {
	for _, enc := range []Encoding{Global, Local, Dewey} {
		t.Run(enc.String(), func(t *testing.T) {
			var out strings.Builder
			for _, gd := range goldenDocs {
				store, doc := loadedStore(t, Options{Encoding: enc}, "mem", gd.xml)
				for _, q := range gd.queries {
					fmt.Fprintf(&out, "== %s %s ==\n", q.id, q.xpath)
					sqls, err := store.ExplainQuery(doc, q.xpath)
					if err != nil {
						t.Fatalf("%s: %v", q.id, err)
					}
					for i, sql := range sqls {
						fmt.Fprintf(&out, "-- statement %d\n%s\n", i+1, sql)
						plan, err := store.ExplainSQL(sql)
						if err != nil {
							t.Fatalf("%s explain stmt %d: %v", q.id, i+1, err)
						}
						out.WriteString(plan)
						if !strings.Contains(sql, "?") {
							analyzed, err := store.ExplainAnalyzeSQL(sql)
							if err != nil {
								t.Fatalf("%s analyze stmt %d: %v", q.id, i+1, err)
							}
							out.WriteString("-- analyze\n")
							out.WriteString(normalizeAnalyze(analyzed))
						}
					}
					out.WriteByte('\n')
				}
			}
			got := out.String()

			path := filepath.Join("testdata", "explain_"+enc.String()+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s\n--- got ---\n%s\n--- want ---\n%s", enc, got, want)
			}
		})
	}
}

// TestExplainAnalyzeActualRows verifies the acceptance path end to end: an
// ordered E3 query's generated SQL runs under EXPLAIN ANALYZE in all three
// encodings and reports per-operator actual rows.
func TestExplainAnalyzeActualRows(t *testing.T) {
	for _, enc := range []Encoding{Global, Local, Dewey} {
		store, doc := loadedStore(t, Options{Encoding: enc}, "mem", explainDoc)
		sqls, err := store.ExplainQuery(doc, "/site/regions/namerica/item[3]")
		if err != nil {
			t.Fatal(err)
		}
		analyzed, err := store.ExplainAnalyzeSQL(sqls[0])
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		if !strings.Contains(analyzed, "actual rows=") || !strings.Contains(analyzed, "loops=1") {
			t.Errorf("%s: missing actuals:\n%s", enc, analyzed)
		}
		if !strings.Contains(analyzed, "Total: rows=") {
			t.Errorf("%s: missing total line:\n%s", enc, analyzed)
		}
	}
}

// TestQueryTraceSpans checks that a traced query's span tree covers the
// XPath pipeline. A Local mid-path descendant query with a positional
// predicate runs every stage: the path parse, segment translation, one span
// per segment and per SQL statement, the ancestry test against the chain
// table, the positional filter and the final sort. The always-on query
// metrics move whether or not the tracer is on.
func TestQueryTraceSpans(t *testing.T) {
	store, doc := loadedStore(t, Options{Encoding: Local}, "mem", explainDoc)
	store.Tracer().SetEnabled(true)
	nodes, err := store.Query(doc, "/site/regions/namerica//name[position() <= 5]")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 5 {
		t.Fatalf("matches = %d, want 5", len(nodes))
	}
	recs := store.Tracer().Snapshot()
	root := recs[len(recs)-1] // a root ends, and so records, after its children
	if root.Name != "xpath.query" || root.Parent != 0 {
		t.Fatalf("last record = %+v, want the xpath.query root", root)
	}
	seen := map[string]int{}
	for _, r := range recs {
		if r.Trace == root.Trace {
			seen[r.Name]++
		}
	}
	for _, want := range []string{"parse", "translate", "segment", "sql.query", "ancestry", "positional", "sort"} {
		if seen[want] == 0 {
			t.Errorf("span %q missing from the query's trace %v", want, seen)
		}
	}
	m := store.Metrics()
	if m.Counters["xpath.queries"] != 1 {
		t.Errorf("xpath.queries = %d, want 1", m.Counters["xpath.queries"])
	}
	if m.Histograms["xpath.query.latency"].Count != 1 {
		t.Errorf("xpath.query.latency count = %d, want 1", m.Histograms["xpath.query.latency"].Count)
	}
}
