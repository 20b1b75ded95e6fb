package translate

import (
	"strings"
	"testing"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/shred"
	"ordxml/internal/sqldb"
	"ordxml/internal/xmltree"
)

// These tests pin the shape of the generated SQL per encoding — the
// reproduction's analogue of the paper's translation examples.

func evalFor(t *testing.T, opts encoding.Options) (*Evaluator, int64) {
	t.Helper()
	db := sqldb.Open()
	if err := encoding.Install(db, opts); err != nil {
		t.Fatal(err)
	}
	sh, err := shred.New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := xmltree.ParseString(
		`<site><regions><namerica><item id="i1"><name>x</name><keyword>k</keyword></item></namerica></regions></site>`)
	doc, err := sh.LoadTree("d", tree)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ev, doc
}

func sqlFor(t *testing.T, opts encoding.Options, query string) []string {
	t.Helper()
	ev, doc := evalFor(t, opts)
	if _, err := ev.Query(doc, query); err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return ev.LastSQL()
}

func TestChainSQLChildPath(t *testing.T) {
	// A pure child chain is one self-join statement under every encoding;
	// Local adds the chain-table statement its document-order sort reads.
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local}, {Kind: encoding.Dewey},
	} {
		sqls := sqlFor(t, opts, "/site/regions/namerica/item")
		want := 1
		if opts.Kind == encoding.Local {
			want = 2
		}
		if len(sqls) != want {
			t.Fatalf("%s: %d statements, want %d: %v", opts.Kind, len(sqls), want, sqls)
		}
		sql := sqls[0]
		if got := strings.Count(sql, opts.NodesTable()+" n"); got != 4 {
			t.Errorf("%s: %d aliases, want 4:\n%s", opts.Kind, got, sql)
		}
		if !strings.Contains(sql, "n1.parent IS NULL") {
			t.Errorf("%s: root anchor missing:\n%s", opts.Kind, sql)
		}
		if !strings.Contains(sql, "n4.parent = n3.id") {
			t.Errorf("%s: parent join missing:\n%s", opts.Kind, sql)
		}
		if opts.Kind == encoding.Local && strings.Contains(sql, "ORDER BY") {
			t.Errorf("local must not ORDER BY lorder globally:\n%s", sql)
		}
		ord := opts.OrderColumn()
		chain := "ORDER BY n1." + ord + ", n2." + ord + ", n3." + ord + ", n4." + ord
		if opts.Kind != encoding.Local && !strings.HasSuffix(sql, chain) {
			t.Errorf("%s: want %s:\n%s", opts.Kind, chain, sql)
		}
	}
}

// TestChainSQLOrderBy pins which statements order and by what: only the
// final one, by every step's key on a chain from the root of child steps
// (and a last Dewey descendant step), by the final step's key otherwise.
func TestChainSQLOrderBy(t *testing.T) {
	for _, c := range []struct {
		kind  encoding.Kind
		query string
		want  []string // per statement: the ORDER BY clause, "" for none
	}{
		{encoding.Dewey, "/site/regions//keyword", []string{" ORDER BY n1.path, n2.path, n3.path"}},
		{encoding.Dewey, "/site//item/name", []string{" ORDER BY n3.path"}},
		{encoding.Dewey, "//item/name", []string{" ORDER BY n2.path"}},
		{encoding.Dewey, "/site/regions/namerica/item[1]/following-sibling::item",
			[]string{"", " ORDER BY n1.path"}},
		{encoding.Global, "/site/regions/namerica/item/@id", []string{" ORDER BY n1.gorder, n2.gorder, n3.gorder, n4.gorder, n5.gorder"}},
		{encoding.Global, "/site/regions/namerica/item[1]/following-sibling::item",
			[]string{"", " ORDER BY n1.gorder"}},
	} {
		sqls := sqlFor(t, encoding.Options{Kind: c.kind}, c.query)
		if len(sqls) != len(c.want) {
			t.Fatalf("%s %s: %d statements, want %d: %v", c.kind, c.query, len(sqls), len(c.want), sqls)
		}
		for i, sql := range sqls {
			_, got, _ := strings.Cut(sql, " ORDER BY ")
			if got != "" {
				got = " ORDER BY " + got
			}
			if got != c.want[i] {
				t.Errorf("%s %s statement %d: ORDER BY %q, want %q:\n%s", c.kind, c.query, i+1, got, c.want[i], sql)
			}
		}
	}
}

// TestNestedMatchesKeepDocumentOrder runs chains whose step matches nest on
// a document where ordering by the step keys in turn is not document order
// (the inner a's c precedes the outer a's c): they must order by the final
// step's key, and every encoding must return the oracle's sequence.
func TestNestedMatchesKeepDocumentOrder(t *testing.T) {
	tree, err := xmltree.ParseString(`<r><a><a><c>1</c></a><c>2</c></a><a><c>3</c><b><c>4</c></b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range allOptions() {
		ld := load(t, o, tree)
		for _, q := range []string{"/r//a/c", "/r//a/c[1]", "/r//a/c[last()]", "//a/c", "/r/a//c", "/r/a//c[last()]", "/r//a//c", "//a//c[1]"} {
			ld.check(t, q)
		}
	}
}

func TestChainSQLDeweyDescendant(t *testing.T) {
	// Mid-path // under Dewey is a PREFIX_SUCC range join in one statement.
	sqls := sqlFor(t, encoding.Options{Kind: encoding.Dewey}, "/site/regions//keyword")
	if len(sqls) != 1 {
		t.Fatalf("%d statements: %v", len(sqls), sqls)
	}
	if !strings.Contains(sqls[0], "n3.path > n2.path") ||
		!strings.Contains(sqls[0], "n3.path < PREFIX_SUCC(n2.path)") {
		t.Errorf("dewey descendant join missing:\n%s", sqls[0])
	}
	// Under Global the same path splits: prefix chain, then a range scan of
	// one gorder interval per context node. The interval's upper bound takes
	// the later-siblings statement and — regions being a last child — the
	// chain-table statement to climb past it.
	sqls = sqlFor(t, encoding.Options{Kind: encoding.Global}, "/site/regions//keyword")
	if len(sqls) != 4 {
		t.Fatalf("global statements = %d: %v", len(sqls), sqls)
	}
	if !strings.Contains(sqls[1], "n.parent = c.id AND n.gorder > c.ord") {
		t.Errorf("global later-siblings statement:\n%s", sqls[1])
	}
	if !strings.Contains(sqls[2], "FROM ? c (id), xg_nodes n") || !strings.Contains(sqls[2], "n.id = c.id") {
		t.Errorf("chain-table statement:\n%s", sqls[2])
	}
	last := sqls[3]
	if !strings.Contains(last, "FROM ? c (id, ord, hi), xg_nodes n1") || !strings.Contains(last, "n1.tag = 'keyword'") ||
		!strings.Contains(last, "n1.gorder > c.ord AND n1.gorder < c.hi") {
		t.Errorf("global descendant segment should be an interval join:\n%s", last)
	}
	// Under Local it is a tag scan whose results are kept when the chain
	// table shows a context ancestor.
	sqls = sqlFor(t, encoding.Options{Kind: encoding.Local}, "/site/regions//keyword")
	if len(sqls) != 3 {
		t.Fatalf("local statements = %d: %v", len(sqls), sqls)
	}
	if !strings.Contains(sqls[1], "n1.tag = 'keyword'") || strings.Contains(sqls[1], "?") {
		t.Errorf("local descendant segment should be an unanchored tag scan:\n%s", sqls[1])
	}
}

func TestChainSQLSiblingAnchor(t *testing.T) {
	// A sibling step after a positional break joins the context relation on
	// parent and order key.
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Dewey},
	} {
		sqls := sqlFor(t, opts, "/site/regions/namerica/item[1]/following-sibling::item")
		last := sqls[len(sqls)-1]
		ord := opts.OrderColumn()
		if !strings.Contains(last, "FROM ? c (id, parent, ord), ") ||
			!strings.Contains(last, "n1.parent = c.parent") || !strings.Contains(last, "n1."+ord+" > c.ord") {
			t.Errorf("%s: sibling anchor missing:\n%s", opts.Kind, last)
		}
	}
}

func TestChainSQLValuePredicate(t *testing.T) {
	// [name = 'x'] joins the name element and its text child.
	sqls := sqlFor(t, encoding.Options{Kind: encoding.Dewey}, "//item[name = 'x']")
	sql := sqls[0]
	for _, want := range []string{
		"n2.tag = 'name'", "n2.parent = n1.id",
		"n3.kind = 'text'", "n3.parent = n2.id", "n3.value = 'x'",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("value predicate fragment %q missing:\n%s", want, sql)
		}
	}
	// Attribute predicates compare the attr node's value directly.
	sqls = sqlFor(t, encoding.Options{Kind: encoding.Dewey}, "//item[@id = 'i1']")
	if !strings.Contains(sqls[0], "n2.kind = 'attr'") || !strings.Contains(sqls[0], "n2.value = 'i1'") {
		t.Errorf("attribute predicate:\n%s", sqls[0])
	}
}

func TestChainSQLLiteralEscaping(t *testing.T) {
	// XPath uses the other quote kind for embedded quotes; the SQL literal
	// must escape them (no injection through predicate values).
	sqls := sqlFor(t, encoding.Options{Kind: encoding.Dewey}, `//item[name = "o'brien"]`)
	if !strings.Contains(sqls[0], "'o''brien'") {
		t.Errorf("quote escaping:\n%s", sqls[0])
	}
	ev, doc := evalFor(t, encoding.Options{Kind: encoding.Dewey})
	if _, err := ev.Query(doc, `//item[name = "'; DROP TABLE xd_nodes --"]`); err != nil {
		t.Fatalf("quoted literal broke the statement: %v", err)
	}
}
