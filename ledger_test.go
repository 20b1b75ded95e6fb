package ordxml

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ordxml/internal/core/xpath"
	"ordxml/internal/vfs/vfstest"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// The work ledger. The paper's findings are about work, not wall time, so
// TestWorkLedger pins one row of work counts per case × encoding × storage
// × document size in testdata/work.golden: a change's diff to it is its
// before/after work table. Every column is exact but allocated bytes, which
// stay within ±10 % of the golden (-update rewrites an allocation cell only
// when it leaves that band). The paper's E3–E5 shape and the engine's work
// bounds are named invariants over the same rows.

const ledgerPath = "testdata/work.golden"

var ledgerColumns = ledgerKey("case", "enc", "store", "items") + fmt.Sprintf(strings.Repeat(" %8s", 10),
	"stmts", "examined", "nodes", "pages", "ixwrites", "renum", "wal_B", "fsyncs", "sorts", "alloc_B")

const ledgerHeader = `# Work ledger, one row per case × encoding × storage × items per region (xmlgen.Catalog, seed 42).
# Regenerate with go test -run TestWorkLedger -update (or make golden). stmts: sqldb.queries + execs;
# examined: storage.index_probes + rows_scanned; nodes / pages: B+tree node and heap page reads;
# renum: rows renumbered; wal_B / fsyncs: durable rows only; sorts: Sort operators in the plans of
# the query's statements; alloc_B: bytes allocated (±10 %). "-": the column does not apply.`

// ledgerRow is one run's work; renum, walBytes, fsyncs and sorts are -1
// where they do not apply.
type ledgerRow struct {
	key                                                                            string
	stmts, examined, nodes, pages, ixWrites, renum, walBytes, fsyncs, sorts, alloc int64
}

func ledgerKey(name, enc, store string, items any) string {
	return fmt.Sprintf("%-13s %-10s %-7s %5v", name, enc, store, items)
}

// line renders the row with the allocation cell alloc.
func (r ledgerRow) line(alloc int64) string {
	line := r.key
	for _, v := range []int64{r.stmts, r.examined, r.nodes, r.pages, r.ixWrites, r.renum, r.walBytes, r.fsyncs, r.sorts, alloc} {
		cell := "-"
		if v >= 0 {
			cell = strconv.FormatInt(v, 10)
		}
		line += fmt.Sprintf(" %8s", cell)
	}
	return line
}

// ledgerCase is one measured call: kind names the Store method, xpath
// selects its argument (or its first match's id), and an insert goes to
// pos, a move to dest's first match. A query's match count must be its
// oracle's, the in-memory XPath evaluator's answer.
type ledgerCase struct {
	name, kind, xpath, dest string
	pos                     Position
	oracle                  []*xmltree.Node
}

// ledgerCases are, on a catalog of items per region: the paper's E3 suite
// (Q1–Q9), wide context sets on every axis (W1–W6), the person
// counter-cases whose predicate tags outnumber the person step (P1, P2),
// QueryValues and Serialize of the suite, SerializeDocument, and then, in
// this order on one store, inserts before the first and the middle item of a
// region, as its last child and as the root's (the append), a text rewrite,
// a move of an item to its region's end, and a delete.
func ledgerCases(tree *xmltree.Node, items int) []ledgerCase {
	person := tree.Children[1].Children[0]
	id, _ := person.GetAttr("id")
	const region = "/site/regions/namerica"
	mid := fmt.Sprintf("%s/item[%d]", region, items/2)
	var cases []ledgerCase
	for _, q := range [][2]string{
		{"Q1", region + "/item"}, {"Q2", mid}, {"Q3", region + "/item[position() <= 10]"},
		{"Q4", region + "/item[3]/following-sibling::item"}, {"Q5", mid + "/preceding-sibling::item"},
		{"Q6", "//keyword"}, {"Q7", fmt.Sprintf("//item[@id = 'item%d']", items/2)},
		{"Q8", "//item[quantity = '5']"}, {"Q9", region + "//keyword"},
		{"W1", "//item//keyword"}, {"W2", "//item/name/.."}, {"W3", "//item/following-sibling::item[1]"},
		{"W4", "//keyword/ancestor::item"}, {"W5", "//item//keyword[1]"}, {"W6", "//description//text()"},
		{"P1", "//person[@id = '" + id + "']"}, {"P2", "//person[name = '" + person.Children[0].TextContent() + "']"},
	} {
		cases = append(cases, ledgerCase{name: q[0], kind: "query", xpath: q[1]})
	}
	for _, q := range cases[:9] {
		cases = append(cases, ledgerCase{name: "values:" + q.name, kind: "values", xpath: q.xpath},
			ledgerCase{name: "serialize:" + q.name, kind: "serialize", xpath: q.xpath})
	}
	return append(cases,
		ledgerCase{name: "serialize:doc", kind: "document"},
		ledgerCase{name: "ins_begin", kind: "insert", xpath: region + "/item[1]", pos: Before},
		ledgerCase{name: "ins_mid", kind: "insert", xpath: mid, pos: Before},
		ledgerCase{name: "ins_end", kind: "insert", xpath: region, pos: LastChild},
		ledgerCase{name: "append", kind: "insert", xpath: "/site", pos: LastChild},
		ledgerCase{name: "setvalue", kind: "setvalue", xpath: region + "/item[1]/name/text()"},
		ledgerCase{name: "move", kind: "move", xpath: region + "/item[2]", dest: region},
		ledgerCase{name: "delete", kind: "delete", xpath: region + "/item[1]"})
}

// measure runs c once on s, its lookups outside the measurement.
func measure(t *testing.T, s *Store, doc DocID, c ledgerCase, key string) ledgerRow {
	first := func(query string) NodeID {
		hits, err := s.Query(doc, query)
		if err != nil || len(hits) == 0 {
			t.Fatalf("%s: %q: %d matches, %v", key, query, len(hits), err)
		}
		return hits[0].ID
	}
	var id, dest NodeID
	if c.xpath != "" && c.kind != "query" && c.kind != "values" {
		id = first(c.xpath)
	}
	if c.dest != "" {
		dest = first(c.dest)
	}
	var hits []Node
	r := work(t, s, key, func() (rep UpdateReport, err error) {
		rep.RowsRenumbered = -1 // unless the call reports renumbering
		switch c.kind {
		case "query":
			hits, err = s.Query(doc, c.xpath)
		case "values":
			_, err = s.QueryValues(doc, c.xpath)
		case "serialize":
			_, err = s.Serialize(doc, id)
		case "document":
			_, err = s.SerializeDocument(doc)
		case "insert":
			rep, err = s.Insert(doc, id, c.pos, "<item><name>new</name></item>")
		case "setvalue":
			err = s.SetValue(doc, id, "renamed")
		case "move":
			rep, err = s.Move(doc, id, dest, LastChild)
		case "delete":
			rep, err = s.Delete(doc, id)
		}
		return rep, err
	})
	if len(hits) != len(c.oracle) {
		t.Fatalf("%s: %d matches, the oracle %d", key, len(hits), len(c.oracle))
	}
	if c.kind == "query" {
		r.sorts = 0
		for _, sql := range s.evaluator.LastSQL() {
			plan, err := s.ExplainSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			r.sorts += int64(strings.Count(plan, "Sort $"))
		}
	}
	return r
}

// work runs call once on s and counts what it did.
func work(t *testing.T, s *Store, key string, call func() (UpdateReport, error)) ledgerRow {
	var m0, m1 runtime.MemStats
	before := s.Metrics()
	runtime.ReadMemStats(&m0)
	rep, err := call()
	runtime.ReadMemStats(&m1)
	after := s.Metrics()
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	d := func(names ...string) int64 { return after.Delta(before, names...) }
	r := ledgerRow{key: key, stmts: d("sqldb.queries", "sqldb.execs"), examined: d("storage.index_probes", "storage.rows_scanned"),
		nodes: d("storage.btree.node_reads"), pages: d("storage.heap.page_reads"), ixWrites: d("storage.index_writes"),
		renum: rep.RowsRenumbered, walBytes: -1, fsyncs: -1, sorts: -1, alloc: int64(m1.TotalAlloc - m0.TotalAlloc)}
	if s.Durable() {
		r.walBytes, r.fsyncs = d("wal.append.bytes"), d("wal.fsyncs")
	}
	return r
}

// ledgerEncodings are the three encodings and string Dewey, which runs the
// mutations only.
var ledgerEncodings = []string{"global", "local", "dewey", "dewey_text"}

// catalogDoc is the benchmark's catalog at items per region.
func catalogDoc(items int) *xmltree.Node {
	return xmlgen.Catalog(xmlgen.CatalogConfig{Regions: 3, ItemsPerRegion: items, KeywordsPerItem: 2, DescriptionWords: 8, Seed: 42})
}

// ledgerOptions are the store options of a ledger encoding.
func ledgerOptions(enc string) Options {
	kind, _ := ParseEncoding(strings.TrimSuffix(enc, "_text"))
	return Options{Encoding: kind, DeweyAsText: enc == "dewey_text"}
}

// loadedStore loads xml into a fresh store: in memory, or durable on a
// simulated disk with an 8-frame pool and checkpointed after the load. The
// caller closes a durable store.
func loadedStore(t *testing.T, opts Options, store, xml string) (*Store, DocID) {
	t.Helper()
	s, doc, _ := measuredLoad(t, opts, store, xml, "")
	return s, doc
}

// measuredLoad is loadedStore that also counts the load's work in a row
// keyed key.
func measuredLoad(t *testing.T, opts Options, store, xml, key string) (*Store, DocID, ledgerRow) {
	t.Helper()
	var s *Store
	var err error
	if store == "mem" {
		s, err = Open(opts)
	} else {
		opts.BufferPoolFrames = 8
		s, err = openDurable(vfstest.New(), "/store", opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	s.SetSlowQueryThreshold(0) // a slow-query record would make allocation depend on timing
	var doc DocID
	r := work(t, s, key, func() (UpdateReport, error) {
		var err error
		doc, err = s.LoadString("doc", xml)
		return UpdateReport{RowsRenumbered: -1}, err
	})
	if s.Durable() {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	return s, doc, r
}

// TestWorkLedger runs the load into a fresh store and every case at 20 and
// 200 items per region and, unless -short, Q7, Q8, P1 and P2 in memory at
// 800, cold and then warm (/warm).
func TestWorkLedger(t *testing.T) {
	if *updateGolden && (testing.Short() || raceEnabled) {
		t.Fatal("-update needs every row and its allocation: run it without -short and -race")
	}
	// On one P the goroutine cannot move to a P whose per-P pools (fmt's
	// printers) are empty, which would allocate anew and move the row; the
	// collector then marks on that P too, so it runs less often.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	var rows []ledgerRow
	for _, items := range []int{20, 200, 800} {
		tree := catalogDoc(items)
		xml, cases := tree.String(), ledgerCases(tree, items)
		if items == 800 {
			cases = slices.DeleteFunc(cases, func(c ledgerCase) bool { return !slices.Contains([]string{"Q7", "Q8", "P1", "P2"}, c.name) })
		}
		for i, c := range cases {
			if c.kind == "query" {
				cases[i].oracle, _ = xpath.EvalString(tree, c.xpath)
			}
		}
		for _, enc := range ledgerEncodings {
			for _, store := range []string{"mem", "durable"} {
				if items == 800 && (testing.Short() || store == "durable" || enc == "dewey_text") {
					continue
				}
				s, doc, load := measuredLoad(t, ledgerOptions(enc), store, xml, ledgerKey("load", enc, store, items))
				if items != 800 {
					rows = append(rows, load)
				}
				for _, c := range cases {
					if enc == "dewey_text" && slices.Contains([]string{"query", "values", "serialize"}, c.kind) {
						continue
					}
					rows = append(rows, measure(t, s, doc, c, ledgerKey(c.name, enc, store, items)))
					if items == 800 {
						rows = append(rows, measure(t, s, doc, c, ledgerKey(c.name+"/warm", enc, store, items)))
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	b, err := os.ReadFile(ledgerPath)
	if err != nil && !*updateGolden {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	golden, keyLen := map[string]string{}, len(ledgerKey("", "", "", ""))
	for _, line := range strings.Split(string(b), "\n") {
		if len(line) > keyLen && line[0] != '#' && line != ledgerColumns {
			golden[line[:keyLen]] = line
		}
	}
	out, diff := []string{ledgerHeader, ledgerColumns}, []string{}
	for _, r := range rows {
		want := golden[r.key]
		got := r.line(r.alloc)
		// Within ±10 % the golden's allocation stands; a race-detector build
		// allocates differently and is not compared.
		if old, err := strconv.ParseInt(want[strings.LastIndex(want, " ")+1:], 10, 64); err == nil && (raceEnabled || 10*max(r.alloc-old, old-r.alloc) <= old) {
			got = r.line(old)
		}
		if got != want {
			diff = append(diff, "- "+want, "+ "+got)
		}
		delete(golden, r.key)
		out = append(out, got)
	}
	for key, line := range golden {
		if !testing.Short() || !strings.HasSuffix(key, " 800") {
			diff = append(diff, "- "+line)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(ledgerPath, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(diff) > 0 {
		t.Errorf("%s differs (regenerate with -update and explain every row that moved):\n  %s\n%s",
			ledgerPath, ledgerColumns, strings.Join(diff, "\n"))
	}
	checkLedgerInvariants(t, rows)
}

// checkLedgerInvariants asserts the engine's work bounds and the paper's
// E3–E5 conclusions as inequalities over the ledger's rows. A failure names
// the invariant and prints the rows it compared.
func checkLedgerInvariants(t *testing.T, rows []ledgerRow) {
	at := map[string]ledgerRow{}
	for _, r := range rows {
		at[r.key] = r
	}
	get := func(name, enc, store string, items int) ledgerRow { return at[ledgerKey(name, enc, store, items)] }
	holds := func(invariant string, ok bool, rows ...ledgerRow) {
		if !ok {
			lines := []string{"invariant " + invariant + " fails over:", "  " + ledgerColumns}
			for _, r := range rows {
				lines = append(lines, "  "+r.line(r.alloc))
			}
			t.Error(strings.Join(lines, "\n"))
		}
	}
	for _, r := range rows {
		if r.sorts >= 0 {
			holds("(a) a query runs at most 12 statements", r.stmts <= 12, r)
		}
	}
	perRow := map[string]int64{"global": 3, "local": 1, "dewey": 3} // the index keys that hold the order key
	for _, store := range []string{"mem", "durable"} {
		for _, items := range []int{20, 200} {
			tree := catalogDoc(items)
			suite := map[string]int64{}
			for _, enc := range ledgerEncodings[:3] {
				var values int64
				for i, c := range ledgerCases(tree, items)[:9] {
					q, v, ser := get(c.name, enc, store, items), get("values:"+c.name, enc, store, items), get("serialize:"+c.name, enc, store, items)
					if i < 3 && enc != "local" {
						holds("(b) a root-anchored Q1–Q3 chain plans no Sort on Global and Dewey", q.sorts == 0, q)
					}
					levels := int64(1) // subtree reads: one per tree level under the matches, one on Dewey
					matches, _ := xpath.EvalString(tree, c.xpath)
					for _, n := range matches {
						if enc != "dewey" {
							levels = max(levels, int64(xmltree.ComputeStats(n).MaxDepth))
						}
					}
					holds(fmt.Sprintf("(c) QueryValues runs at most the query's statements + %d", levels), v.stmts <= q.stmts+levels, q, v)
					holds(fmt.Sprintf("(c) Serialize runs at most %d statements", 1+levels), ser.stmts <= 1+levels, ser)
					values += v.stmts
					suite[enc] += q.stmts
				}
				holds(fmt.Sprintf("(c) the suite's QueryValues runs at most 80 statements: %d on %s %s %d", values, enc, store, items), values <= 80)
				b := get("ins_begin", enc, store, items)
				holds(fmt.Sprintf("(e) index writes per renumbered row are %d", perRow[enc]), b.renum > 0 && b.ixWrites == perRow[enc]*b.renum, b)
			}
			g, d, l := get("ins_begin", "global", store, items), get("ins_begin", "dewey", store, items), get("ins_begin", "local", store, items)
			holds("(h) E4/E5: a begin insert renumbers Global > Dewey > Local", g.renum > d.renum && d.renum > l.renum, g, d, l)
			holds("(h) E4/E5: Local's begin insert renumbers the region's items", l.renum == int64(items), l)
			holds(fmt.Sprintf("(i) E3: Local's suite runs more statements than Global's and Dewey's: %v on %s %d", suite, store, items), suite["local"] > max(suite["global"], suite["dewey"]))
		}
		for _, enc := range ledgerEncodings {
			small, large := get("ins_begin", enc, store, 20), get("ins_begin", enc, store, 200)
			holds("(d, h) a begin insert renumbers more but runs as many statements with 200 siblings as with 20",
				small.renum > 0 && large.renum > small.renum && small.stmts == large.stmts, small, large)
			for _, name := range []string{"append", "ins_end"} { // Global's ins_end renumbers what follows the region
				if small, large := get(name, enc, store, 20), get(name, enc, store, 200); name == "append" || enc != "global" {
					holds("(f) an append renumbers nothing and examines as many rows (±2) in the larger document",
						small.renum == 0 && large.renum == 0 && max(small.examined-large.examined, large.examined-small.examined) <= 2, small, large)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, enc := range ledgerEncodings[:3] {
		for q, limit := range map[string]int64{"Q7": 3_000, "Q8": 6_000, "P1": 200, "P2": 200} {
			cold, warm := get(q, enc, "mem", 800), get(q+"/warm", enc, "mem", 800)
			holds(fmt.Sprintf("(g) %s examines at most %d rows, cold and warm alike", q, limit), cold.examined <= limit && warm.examined == cold.examined, cold, warm)
		}
	}
}
