package translate

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/shred"
	"ordxml/internal/core/update"
	"ordxml/internal/core/xpath"
	"ordxml/internal/govern"
	"ordxml/internal/sqldb"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// allOptions are the encoding configurations cross-validated against the
// oracle.
func allOptions() []encoding.Options {
	return []encoding.Options{
		{Kind: encoding.Global},
		{Kind: encoding.Local},
		{Kind: encoding.Dewey},
		{Kind: encoding.Global, Gap: 8},
		{Kind: encoding.Local, Gap: 8},
		{Kind: encoding.Dewey, Gap: 8},
		{Kind: encoding.Dewey, DeweyAsText: true},
	}
}

func optName(o encoding.Options) string {
	n := o.Kind.String()
	if o.Gap > 1 {
		n += "_gap"
	}
	if o.DeweyAsText {
		n += "_text"
	}
	return n
}

// loadedDoc couples an in-memory tree with its shredded form and the
// tree-node -> surrogate-id mapping (both sides number nodes in the same
// pre-order walk).
type loadedDoc struct {
	tree  *xmltree.Node
	docID int64
	ids   map[*xmltree.Node]int64
	eval  *Evaluator
	db    *sqldb.DB
	mgr   *update.Manager
}

func load(t testing.TB, opts encoding.Options, tree *xmltree.Node) *loadedDoc {
	t.Helper()
	db := sqldb.Open()
	if err := encoding.Install(db, opts); err != nil {
		t.Fatal(err)
	}
	s, err := shred.New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	docID, err := s.LoadTree("doc", tree)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := update.New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	ld := &loadedDoc{tree: tree, docID: docID, ids: map[*xmltree.Node]int64{}, eval: ev, db: db, mgr: mgr}
	ld.number(tree, 1)
	return ld
}

// number records the ids of a subtree whose root got id base: the shredder
// and the update manager both number a subtree in one pre-order walk.
func (ld *loadedDoc) number(sub *xmltree.Node, base int64) {
	sub.Walk(func(n *xmltree.Node) bool {
		ld.ids[n] = base
		base++
		return true
	})
}

// check runs one query against both the oracle and the relational
// evaluator and compares the ordered id sequences.
func (ld *loadedDoc) check(t testing.TB, query string) {
	t.Helper()
	oracle, err := xpath.EvalString(ld.tree, query)
	if err != nil {
		t.Fatalf("oracle %q: %v", query, err)
	}
	want := make([]int64, len(oracle))
	for i, n := range oracle {
		want[i] = ld.ids[n]
	}
	got, err := ld.eval.Query(ld.docID, query)
	if err != nil {
		t.Fatalf("%s: translate %q: %v", optName(ld.eval.opts), query, err)
	}
	gotIDs := make([]int64, len(got))
	for i, r := range got {
		gotIDs[i] = r.ID
	}
	if len(gotIDs) != len(want) {
		t.Fatalf("%s: %q: got %v, want %v\nSQL: %v",
			optName(ld.eval.opts), query, gotIDs, want, ld.eval.LastSQL())
	}
	for i := range want {
		if gotIDs[i] != want[i] {
			t.Fatalf("%s: %q: got %v, want %v\nSQL: %v",
				optName(ld.eval.opts), query, gotIDs, want, ld.eval.LastSQL())
		}
	}
}

const fixtureDoc = `<site>
  <regions>
    <namerica>
      <item id="i1" featured="yes"><name>widget</name><price>10</price></item>
      <item id="i2"><name>gadget</name><price>20</price>
        <description>nice <keyword>rare</keyword> and <keyword>vintage</keyword> thing</description>
      </item>
      <item id="i3"><name>gizmo</name><price>10</price></item>
      <item id="i4"><name>widget</name><price>30</price></item>
    </namerica>
    <europe>
      <item id="e1"><name>widget</name><price>30</price></item>
      <item id="e2"><name>doohickey</name><price>5</price>
        <description><keyword>rare</keyword></description>
      </item>
    </europe>
  </regions>
  <people>
    <person id="p1"><name>ann</name></person>
    <person id="p2"><name>bob</name></person>
  </people>
</site>`

// fixtureQueries is the hand-written battery covering every axis and
// predicate class (the E3 query suite shapes are among them).
var fixtureQueries = []string{
	"/site",
	"/site/regions/namerica/item",
	"/site/regions/namerica/item/name",
	"/site/regions/*",
	"/site/regions/namerica/item/@id",
	"/site/regions/namerica/item[2]",
	"/site/regions/namerica/item[4]",
	"/site/regions/namerica/item[99]",
	"/site/regions/namerica/item[last()]",
	"/site/regions/namerica/item[position() <= 2]",
	"/site/regions/namerica/item[position() > 1]",
	"/site/regions/namerica/item[position() != 2]",
	"/site/regions/namerica/item[2]/following-sibling::item",
	"/site/regions/namerica/item[3]/preceding-sibling::item",
	"/site/regions/namerica/item[3]/preceding-sibling::item[1]",
	"/site/regions/namerica/item[1]/following-sibling::item[2]",
	"/site/regions/namerica/item[2]/following-sibling::item[last()]",
	"/site/regions/namerica/item/following-sibling::*",
	"//keyword",
	"//item",
	"//item/@id",
	"//item[2]",
	"//description/keyword",
	"//description//keyword",
	"//namerica//keyword",
	"//regions//item/name",
	"//item[@id = 'i2']",
	"//item[@id = 'i2']/name",
	"//item[price = '10']",
	"//item[price = '10']/@id",
	"//item[price != '10']",
	"//item[name = 'widget'][2]",
	"//item[description]",
	"//item[description/keyword = 'rare']",
	"//item[description/keyword = 'rare'][1]",
	"//name[. = 'gizmo']",
	"//keyword/parent::description",
	"//keyword/..",
	"//item/parent::*",
	"//description/text()",
	"/site/people/person[@id = 'p2']/name",
	"/site/regions/europe/item[1]/name",
	"//europe/item[price = '30']/following-sibling::item",
	"/site/regions/namerica/item[price = '10'][2]",
	"//item[price = '10']/following-sibling::item[1]",
	// Mixed-content and text positions.
	"//description/text()[1]",
	"//description/text()[2]",
	"//description/text()[last()]",
	"//item/name/text()",
	// Attribute positional (attributes occupy leading sibling ordinals).
	"/site/regions/namerica/item[1]/@id",
	"/site/regions/namerica/item[1]/@featured",
	"//item[@featured = 'yes']",
	"//item[@featured != 'yes']",
	// Wildcards at various depths.
	"/*",
	"/*/*",
	"/site/*/namerica/item/name",
	"//*[@id = 'e2']",
	"/site/regions/*/item[1]",
	// Multi-predicate steps.
	"//item[price = '10'][name = 'widget']",
	"//item[name = 'widget'][price = '10']",
	"//item[@id = 'i1'][1]",
	"//item[keyword]",
	"//item[description][price = '20']",
	"/site/regions/namerica/item[position() >= 2][position() <= 2]",
	// Predicates with deeper relative paths.
	"//regions[namerica/item/name = 'gizmo']",
	"/site[regions/namerica/item]/people/person",
	"//item[description/keyword]",
	// Chained sibling hops.
	"/site/regions/namerica/item[1]/following-sibling::item[1]/following-sibling::item",
	"/site/regions/namerica/item[2]/preceding-sibling::item/following-sibling::item",
	"/site/regions/namerica/item[2]/following-sibling::*[last()]",
	// Parent/ancestor compositions.
	"//keyword/../..",
	"//keyword/parent::*/parent::item/name",
	"//name/ancestor::*[2]",
	"//keyword/ancestor::item/following-sibling::item",
	// Descendant compositions.
	"//regions//keyword",
	"/site//europe//keyword",
	"//item//text()",
	"/site//item[2]",
	"//description//keyword[2]",
	// Descendant with explicit spelling.
	"/site/descendant::keyword",
	"/site/regions/descendant::item[position() <= 3]",
	// Misses mixed with hits.
	"//item[price = '999']",
	"//item[@id = 'i1']/keyword",
	"/site/people/person/following-sibling::person[2]",
	"//keyword/ancestor::item",
	"//keyword/ancestor::*",
	"//keyword/ancestor::item/@id",
	"//keyword/ancestor::*[1]",
	"//keyword/ancestor::*[2]",
	"//keyword/ancestor::*[last()]",
	"//name/ancestor::item/price",
	"/site/regions/namerica/item[2]/name/ancestor::item",
	"//item/ancestor::regions",
	"/nothere",
	"/site/nothere/item",
	"//nothere",
}

func TestFixtureQueriesAllEncodings(t *testing.T) {
	tree, err := xmltree.ParseString(fixtureDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range allOptions() {
		t.Run(optName(opts), func(t *testing.T) {
			ld := load(t, opts, tree)
			for _, q := range fixtureQueries {
				ld.check(t, q)
			}
		})
	}
}

// randQuery builds a random query from the tags and attribute names that
// actually occur in the generated documents, plus misses.
func randQuery(r *rand.Rand) string {
	tags := []string{"a", "b", "c", "d", "zz"}
	attrs := []string{"quick", "brown", "fox", "none"}
	steps := 1 + r.Intn(3)
	q := ""
	for i := 0; i < steps; i++ {
		if r.Intn(4) == 0 {
			q += "//"
		} else {
			q += "/"
		}
		switch r.Intn(10) {
		case 0:
			q += "*"
		case 1:
			if i > 0 {
				q += "text()"
				return q
			}
			q += tags[r.Intn(len(tags))]
		default:
			q += tags[r.Intn(len(tags))]
		}
		// Predicates.
		for p := r.Intn(3); p > 0; p-- {
			switch r.Intn(6) {
			case 0:
				q += fmt.Sprintf("[%d]", 1+r.Intn(3))
			case 1:
				q += fmt.Sprintf("[position() %s %d]",
					[]string{"<=", ">=", "<", ">", "="}[r.Intn(5)], 1+r.Intn(3))
			case 2:
				q += "[last()]"
			case 3:
				q += fmt.Sprintf("[@%s = 'x']", attrs[r.Intn(len(attrs))])
			case 4:
				q += fmt.Sprintf("[%s]", tags[r.Intn(len(tags))])
			default:
				q += fmt.Sprintf("[@%s != 'x']", attrs[r.Intn(len(attrs))])
			}
		}
		if r.Intn(5) == 0 && i == steps-1 {
			ax := []string{"/following-sibling::", "/preceding-sibling::", "/parent::", "/ancestor::"}[r.Intn(4)]
			q += ax + tags[r.Intn(len(tags))]
		}
	}
	// Descendant steps below a context set that nests: positional groups per
	// context node, a context reached through parents, a sibling hop after.
	tag := func() string { return tags[r.Intn(len(tags))] }
	switch r.Intn(8) {
	case 0:
		q = fmt.Sprintf("//%s//%s[%d]", tag(), tag(), 1+r.Intn(3))
	case 1:
		q = fmt.Sprintf("//%s/..//%s", tag(), tag())
	case 2:
		q = fmt.Sprintf("//%s//%s/following-sibling::%s", tag(), tag(), tag())
	}
	return q
}

// randValueQuery builds a value predicate on a `//` step — a join whose
// driver the planner picks from the data — with a literal that occurs in the
// tree: an attribute compared with = or !=, a child's text, or the text of a
// two-step child path. Read through text() the SQL's text-child comparison
// is exactly XPath's, on mixed content and after mutations too. Half the
// steps name the compared node's actual ancestor; the rest are any tag, more
// or less common than the predicate's.
func randValueQuery(r *rand.Rand, tree *xmltree.Node) string {
	tags := []string{"a", "b", "c", "d", "zz"}
	var attrs, texts []*xmltree.Node
	tree.Walk(func(n *xmltree.Node) bool {
		switch {
		case n.Kind == xmltree.Attr:
			attrs = append(attrs, n)
		case n.Kind == xmltree.Text && n.Parent.Parent != nil:
			texts = append(texts, n)
		}
		return true
	})
	op := "="
	if r.Intn(3) == 0 {
		op = "!="
	}
	step := func(owner *xmltree.Node) string {
		if owner != nil && r.Intn(2) == 0 {
			return owner.Tag
		}
		return tags[r.Intn(len(tags))]
	}
	if r.Intn(3) == 0 && len(attrs) > 0 {
		a := attrs[r.Intn(len(attrs))]
		return fmt.Sprintf("//%s[@%s %s '%s']", step(a.Parent), a.Tag, op, a.Value)
	}
	if len(texts) == 0 {
		return "//a[b/text() = 'none']"
	}
	tx := texts[r.Intn(len(texts))]
	child, elem := tx.Parent.Tag, tx.Parent.Parent
	if r.Intn(2) == 0 && elem.Parent != nil {
		return fmt.Sprintf("//%s[%s/%s/text() %s '%s']", step(elem.Parent), elem.Tag, child, op, tx.Value)
	}
	return fmt.Sprintf("//%s[%s/text() %s '%s']", step(elem), child, op, tx.Value)
}

// mutate applies ops random inserts, deletes and moves to the tree and, in
// lock-step, to every loaded form of it, so that the queries that follow read
// order keys after renumbering, holes and gap inserts, and parent links after
// moves.
func mutate(t *testing.T, r *rand.Rand, tree *xmltree.Node, lds []*loadedDoc, ops int) {
	t.Helper()
	detach := func(n *xmltree.Node) {
		p, i := n.Parent, n.ChildIndex()
		p.Children = append(p.Children[:i:i], p.Children[i+1:]...)
		n.Parent = nil
	}
	attach := func(n, target *xmltree.Node, mode update.Mode) {
		p, i := target.Parent, 0
		switch mode {
		case update.FirstChild:
			p = target
		case update.LastChild:
			p, i = target, len(target.Children)
		case update.Before:
			i = target.ChildIndex()
		case update.After:
			i = target.ChildIndex() + 1
		}
		n.Parent = p
		p.Children = append(p.Children[:i:i], append([]*xmltree.Node{n}, p.Children[i:]...)...)
	}
	insert := func(n, target *xmltree.Node, mode update.Mode) {
		for _, ld := range lds {
			st, err := ld.mgr.InsertTree(ld.docID, ld.ids[target], mode, n)
			if err != nil {
				t.Fatalf("%s: insert %s: %v", optName(ld.eval.opts), mode, err)
			}
			ld.number(n, st.NewID)
		}
		attach(n, target, mode)
	}
	for op := 0; op < ops; op++ {
		var elems []*xmltree.Node
		tree.Walk(func(n *xmltree.Node) bool {
			if n.Kind == xmltree.Element {
				elems = append(elems, n)
			}
			return true
		})
		n := elems[r.Intn(len(elems))]
		mode := update.Mode(r.Intn(4))
		if n == tree && mode >= update.Before {
			mode = update.LastChild
		}
		switch kind := r.Intn(4); {
		case kind == 0 && n != tree && len(elems) > 12: // delete
			for _, ld := range lds {
				if _, err := ld.mgr.Delete(ld.docID, ld.ids[n]); err != nil {
					t.Fatalf("%s: delete: %v", optName(ld.eval.opts), err)
				}
			}
			detach(n)
		case kind == 1 && n != tree: // move n next to or under an element outside its subtree
			inside := map[*xmltree.Node]bool{}
			n.Walk(func(d *xmltree.Node) bool { inside[d] = true; return true })
			target := elems[r.Intn(len(elems))]
			if inside[target] || (target == tree && mode >= update.Before) {
				continue
			}
			for _, ld := range lds {
				if _, err := ld.mgr.Delete(ld.docID, ld.ids[n]); err != nil {
					t.Fatalf("%s: move: %v", optName(ld.eval.opts), err)
				}
			}
			detach(n)
			insert(n, target, mode)
		default:
			frag, err := xmltree.ParseString(fmt.Sprintf(`<%s quick="x"><b><c>t%d</c></b><%s/></%s>`,
				"abcd"[op%4:op%4+1], op, "dcba"[op%4:op%4+1], "abcd"[op%4:op%4+1]))
			if err != nil {
				t.Fatal(err)
			}
			insert(frag, n, mode)
		}
	}
}

// TestRandomQueriesAgainstOracle is the main correctness property: random
// documents x random queries x every encoding must equal the oracle — on the
// freshly loaded document, and again after a random update session at the
// dense gap and at a sparse one.
func TestRandomQueriesAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation sweep is slow")
	}
	sweep := func(t *testing.T, r *rand.Rand, tree *xmltree.Node, lds []*loadedDoc, queries int) {
		for qi := 0; qi < queries; qi++ {
			q := randQuery(r)
			if qi%3 == 0 {
				q = randValueQuery(r, tree)
			}
			if _, err := xpath.Parse(q); err != nil {
				continue
			}
			for _, ld := range lds {
				ld.check(t, q)
			}
		}
	}
	for docSeed := int64(0); docSeed < 10; docSeed++ {
		tree := xmlgen.Random(xmlgen.DefaultRandom(docSeed))
		var lds []*loadedDoc
		for _, o := range allOptions() {
			lds = append(lds, load(t, o, tree))
		}
		sweep(t, rand.New(rand.NewSource(docSeed*977)), tree, lds, 90)
	}
	for _, gap := range []uint32{1, 16} {
		for docSeed := int64(0); docSeed < 6; docSeed++ {
			tree := xmlgen.Random(xmlgen.DefaultRandom(docSeed + 40))
			var lds []*loadedDoc
			for _, k := range []encoding.Kind{encoding.Global, encoding.Local, encoding.Dewey} {
				lds = append(lds, load(t, encoding.Options{Kind: k, Gap: gap}, tree))
			}
			r := rand.New(rand.NewSource(docSeed*31 + int64(gap)))
			for round := 0; round < 3; round++ {
				mutate(t, r, tree, lds, 12)
				sweep(t, r, tree, lds, 40)
			}
		}
	}
}

// valueSeeds are value predicates on `//` steps over fixtureDoc, with
// predicate tags rarer than the step tag (one `featured` item, one `keyword`
// path) and commoner (`name`, `id` against two persons).
var valueSeeds = []string{
	"//item[@featured = 'yes']",
	"//item[@id != 'i2']",
	"//item[name = 'gizmo']",
	"//item[name != 'widget']",
	"//item[description/keyword = 'vintage']",
	"//person[name = 'bob']",
	"//person[@id = 'p1']",
	"//person[name != 'ann']",
	"//*[name = 'widget']",
}

// FuzzTranslateOracle checks translate(xpath) against xpath.Eval for any
// path the fragment's parser accepts, on all three encodings. A path either
// fails to translate on every encoding (outside the supported fragment) or
// returns the oracle's node sequence on each.
func FuzzTranslateOracle(f *testing.F) {
	for _, q := range append(fixtureQueries, valueSeeds...) {
		f.Add(q)
	}
	tree, err := xmltree.ParseString(fixtureDoc)
	if err != nil {
		f.Fatal(err)
	}
	var lds []*loadedDoc
	for _, k := range []encoding.Kind{encoding.Global, encoding.Local, encoding.Dewey} {
		lds = append(lds, load(f, encoding.Options{Kind: k}, tree))
	}
	f.Fuzz(func(t *testing.T, q string) {
		if _, err := xpath.EvalString(tree, q); err != nil {
			return
		}
		if _, err := lds[0].eval.Query(lds[0].docID, q); err != nil {
			for _, ld := range lds[1:] {
				if _, err := ld.eval.Query(ld.docID, q); err == nil {
					t.Fatalf("%q: fails on %s (%v) but not on %s", q, optName(lds[0].eval.opts), err, optName(ld.eval.opts))
				}
			}
			return
		}
		for _, ld := range lds {
			ld.check(t, q)
		}
	})
}

// e3Suite is the paper's ordered query suite (EXPERIMENTS.md E3) for a
// catalog with the given items per region.
func e3Suite(items int) []string {
	mid := items / 2
	return []string{
		"/site/regions/namerica/item",
		fmt.Sprintf("/site/regions/namerica/item[%d]", mid),
		"/site/regions/namerica/item[position() <= 10]",
		"/site/regions/namerica/item[3]/following-sibling::item",
		fmt.Sprintf("/site/regions/namerica/item[%d]/preceding-sibling::item", mid),
		"//keyword",
		fmt.Sprintf("//item[@id = 'item%d']", mid),
		"//item[quantity = '5']",
		"/site/regions/namerica//keyword",
	}
}

func sqlQueries(db *sqldb.DB) int64 { return db.Metrics().Counters["sqldb.queries"] }

// TestStatementsPerQuery guards set-at-a-time evaluation: a query runs one
// statement per segment plus at most a few per tree level, whatever the size
// of its context sets. A per-context-node loop would run hundreds here. It
// also guards the order the planner delivers on a real catalog, where join
// order can differ from the golden fixture's: under Global and Dewey no
// root-anchored chain statement may plan a Sort.
func TestStatementsPerQuery(t *testing.T) {
	const items = 200
	tree := xmlgen.Catalog(xmlgen.CatalogConfig{Regions: 3, ItemsPerRegion: items, KeywordsPerItem: 2, DescriptionWords: 8, Seed: 1})
	// Wide context sets on every axis, beyond the suite's mostly single-node ones.
	queries := append(e3Suite(items), "//item//keyword", "//item/name/..", "//item/following-sibling::item[1]",
		"//keyword/ancestor::item", "//item//keyword[1]", "//description//text()")
	for _, k := range []encoding.Kind{encoding.Global, encoding.Local, encoding.Dewey} {
		ld := load(t, encoding.Options{Kind: k}, tree)
		rooted := 0
		for _, q := range queries {
			before := sqlQueries(ld.db)
			ld.check(t, q)
			if n := sqlQueries(ld.db) - before; n > 12 {
				t.Errorf("%s: %q ran %d statements, want <= 12\nSQL: %v", k, q, n, ld.eval.LastSQL())
			}
			for _, sql := range ld.eval.LastSQL() {
				if k == encoding.Local || !strings.Contains(sql, "n1.parent IS NULL") || !strings.Contains(sql, " ORDER BY ") {
					continue
				}
				plan, err := ld.db.Explain(sql)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(plan, "Sort") {
					t.Errorf("%s: %q: root-anchored chain plans a Sort:\n%s\n%s", k, q, sql, plan)
				}
				rooted++
			}
		}
		if k != encoding.Local && rooted < 3 {
			t.Errorf("%s: %d root-anchored chain statements checked, want Q1–Q3 at least", k, rooted)
		}
	}
}

// TestCancelWideContext cancels //a//b while its 10^5-node context set is in
// flight: the statements poll inside the executor and the node-set loops
// between them poll too, so the query must return ErrCanceled promptly
// wherever the cancellation lands.
func TestCancelWideContext(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^5-element context set")
	}
	root := xmltree.NewElement("r")
	for i := 0; i < 100_000; i++ {
		root.AddChild(xmltree.NewElement("a")).AddChild(xmltree.NewElement("b"))
	}
	for _, k := range []encoding.Kind{encoding.Global, encoding.Local} {
		ld := load(t, encoding.Options{Kind: k}, root)
		var full time.Duration
		for i := 0; i < 2; i++ { // the second, warm run sets the time scale
			start := time.Now()
			refs, err := ld.eval.Query(ld.docID, "//a//b")
			full = time.Since(start)
			if err != nil || len(refs) != 100_000 {
				t.Fatalf("%s: %d results, %v", k, len(refs), err)
			}
		}
		for _, frac := range []time.Duration{16, 8, 4, 2} { // cancel this far into the query
			// A stretch without a poll point delays every cancellation that
			// lands in it; a collector cycle or a descheduled goroutine delays
			// one. Three attempts tell them apart.
			best := time.Hour
			for attempt := 0; attempt < 3 && best > cancelLag; attempt++ {
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() {
					_, err := ld.eval.QueryAtCtx(ctx, nil, ld.docID, "//a//b")
					done <- err
				}()
				time.Sleep(full / frac)
				cancel()
				canceled := time.Now()
				err := <-done
				lag := time.Since(canceled)
				if err == nil {
					t.Logf("%s: finished before the cancellation at 1/%d of %v", k, frac, full)
					best = 0
				} else if !errors.Is(err, govern.ErrCanceled) {
					t.Fatalf("%s: canceled at 1/%d of %v: err = %v", k, frac, full, err)
				}
				best = min(best, lag)
			}
			if best > cancelLag {
				t.Errorf("%s: canceled at 1/%d of %v: returned %v later at best, want <= %v", k, frac, full, best, cancelLag)
			}
		}
	}
}

// TestDistinctLiteralsStayBounded runs 10 000 queries that differ only in a
// predicate literal, each a distinct SQL text: the evaluator keeps no
// statement of its own and the engine's plan cache stays within its LRU
// bound, so the heap does not grow with the number of distinct queries.
func TestDistinctLiteralsStayBounded(t *testing.T) {
	tree, err := xmltree.ParseString(fixtureDoc)
	if err != nil {
		t.Fatal(err)
	}
	ld := load(t, encoding.Options{Kind: encoding.Global}, tree)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	round := func(from int) {
		for i := from; i < from+5000; i++ {
			if _, err := ld.eval.Query(ld.docID, fmt.Sprintf("//item[@id = 'item%d']", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	round(0) // fills the plan cache to its bound
	entries := ld.db.Metrics().Gauges["sqldb.plancache.entries"]
	before := heap()
	round(5000)
	after := heap()
	if got := ld.db.Metrics().Gauges["sqldb.plancache.entries"]; got != entries || got > 512 {
		t.Errorf("plan cache entries %d after 5000 queries, %d after 10000: want equal and <= 512", entries, got)
	}
	if after > before+1<<20 {
		t.Errorf("live heap grew from %d to %d bytes over 5000 more distinct queries", before, after)
	}
}

func TestEvaluatorErrors(t *testing.T) {
	tree, _ := xmltree.ParseString("<a><b/></a>")
	ld := load(t, encoding.Options{Kind: encoding.Dewey}, tree)
	if _, err := ld.eval.Query(ld.docID, "not a path ("); err == nil {
		t.Error("bad path accepted")
	}
	if _, err := ld.eval.Query(ld.docID, "/a/b[following-sibling::c]"); err == nil {
		t.Error("unsupported predicate axis accepted")
	}
	// Missing document: no rows, no error.
	refs, err := ld.eval.Query(999, "/a")
	if err != nil || len(refs) != 0 {
		t.Errorf("missing doc: %v, %v", refs, err)
	}
}

func TestLastSQLExposed(t *testing.T) {
	tree, _ := xmltree.ParseString("<a><b><c/></b></a>")
	ld := load(t, encoding.Options{Kind: encoding.Dewey}, tree)
	if _, err := ld.eval.Query(ld.docID, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	sqls := ld.eval.LastSQL()
	if len(sqls) != 1 {
		t.Fatalf("LastSQL = %v", sqls)
	}
	if got := sqls[0]; !contains(got, "xd_nodes n3") || !contains(got, "ORDER BY n1.path, n2.path, n3.path") {
		t.Errorf("generated SQL unexpected: %s", got)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
