package update

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ordxml/internal/core/dewey"
	"ordxml/internal/core/encoding"
	"ordxml/internal/core/publish"
	"ordxml/internal/core/shred"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

func allOptions() []encoding.Options {
	return []encoding.Options{
		{Kind: encoding.Global},
		{Kind: encoding.Local},
		{Kind: encoding.Dewey},
		{Kind: encoding.Global, Gap: 16},
		{Kind: encoding.Local, Gap: 16},
		{Kind: encoding.Dewey, Gap: 16},
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

// store is one encoding instance under test, with the oracle-node -> db-id
// mapping maintained across edits.
type store struct {
	opts encoding.Options
	db   *sqldb.DB
	mgr  *Manager
	pub  *publish.Publisher
	doc  int64
	ids  map[*xmltree.Node]int64
}

func newStore(t *testing.T, opts encoding.Options, tree *xmltree.Node) *store {
	t.Helper()
	db := sqldb.Open()
	if err := encoding.Install(db, opts); err != nil {
		t.Fatal(err)
	}
	sh, err := shred.New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sh.LoadTree("d", tree)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := publish.New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := &store{opts: opts, db: db, mgr: mgr, pub: pub, doc: doc,
		ids: map[*xmltree.Node]int64{}}
	next := int64(1)
	tree.Walk(func(n *xmltree.Node) bool {
		s.ids[n] = next
		next++
		return true
	})
	return s
}

// mapFragment extends the id mapping for an inserted fragment, mirroring
// flattenFragment's walk order.
func (s *store) mapFragment(frag *xmltree.Node, base int64) {
	next := base
	frag.Walk(func(n *xmltree.Node) bool {
		s.ids[n] = next
		next++
		return true
	})
}

// oracleInsert applies the same insertion to the in-memory tree.
func oracleInsert(target *xmltree.Node, mode Mode, frag *xmltree.Node) {
	switch mode {
	case FirstChild:
		frag.Parent = target
		target.Children = append([]*xmltree.Node{frag}, target.Children...)
	case LastChild:
		target.AddChild(frag)
	case Before, After:
		p := target.Parent
		idx := target.ChildIndex()
		if mode == After {
			idx++
		}
		frag.Parent = p
		p.Children = append(p.Children, nil)
		copy(p.Children[idx+1:], p.Children[idx:])
		p.Children[idx] = frag
	}
}

// oracleDelete removes the node from the in-memory tree.
func oracleDelete(target *xmltree.Node) {
	p := target.Parent
	idx := target.ChildIndex()
	p.Children = append(p.Children[:idx], p.Children[idx+1:]...)
}

func (s *store) verify(t *testing.T, oracle *xmltree.Node) {
	t.Helper()
	got, err := s.pub.Document(s.doc)
	if err != nil {
		t.Fatalf("%s: publish: %v", optName(s.opts), err)
	}
	if !xmltree.Equal(oracle, got) {
		t.Fatalf("%s: document diverged\nwant: %s\ngot:  %s",
			optName(s.opts), clip(oracle.String()), clip(got.String()))
	}
}

func clip(s string) string {
	if len(s) > 500 {
		return s[:500] + "..."
	}
	return s
}

func TestInsertModes(t *testing.T) {
	const base = `<r><a/><b><x/><y/></b><c/></r>`
	cases := []struct {
		name   string
		target func(root *xmltree.Node) *xmltree.Node
		mode   Mode
		want   string
	}{
		{"before_first", func(r *xmltree.Node) *xmltree.Node { return r.Children[0] }, Before,
			`<r><new/><a/><b><x/><y/></b><c/></r>`},
		{"after_first", func(r *xmltree.Node) *xmltree.Node { return r.Children[0] }, After,
			`<r><a/><new/><b><x/><y/></b><c/></r>`},
		{"before_mid", func(r *xmltree.Node) *xmltree.Node { return r.Children[1] }, Before,
			`<r><a/><new/><b><x/><y/></b><c/></r>`},
		{"after_last", func(r *xmltree.Node) *xmltree.Node { return r.Children[2] }, After,
			`<r><a/><b><x/><y/></b><c/><new/></r>`},
		{"first_child_root", func(r *xmltree.Node) *xmltree.Node { return r }, FirstChild,
			`<r><new/><a/><b><x/><y/></b><c/></r>`},
		{"last_child_root", func(r *xmltree.Node) *xmltree.Node { return r }, LastChild,
			`<r><a/><b><x/><y/></b><c/><new/></r>`},
		{"first_child_nested", func(r *xmltree.Node) *xmltree.Node { return r.Children[1] }, FirstChild,
			`<r><a/><b><new/><x/><y/></b><c/></r>`},
		{"last_child_leaf", func(r *xmltree.Node) *xmltree.Node { return r.Children[2] }, LastChild,
			`<r><a/><b><x/><y/></b><c><new/></c></r>`},
		{"after_inner", func(r *xmltree.Node) *xmltree.Node { return r.Children[1].Children[0] }, After,
			`<r><a/><b><x/><new/><y/></b><c/></r>`},
	}
	for _, opts := range allOptions() {
		for _, c := range cases {
			t.Run(optName(opts)+"/"+c.name, func(t *testing.T) {
				tree, err := xmltree.ParseString(base)
				if err != nil {
					t.Fatal(err)
				}
				s := newStore(t, opts, tree)
				target := c.target(tree)
				stats, err := s.mgr.InsertXML(s.doc, s.ids[target], c.mode, "<new/>")
				if err != nil {
					t.Fatal(err)
				}
				if stats.RowsInserted != 1 {
					t.Errorf("RowsInserted = %d", stats.RowsInserted)
				}
				got, err := s.pub.Document(s.doc)
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != c.want {
					t.Errorf("document = %s, want %s", got.String(), c.want)
				}
			})
		}
	}
}

func TestInsertSubtreeWithStructure(t *testing.T) {
	frag := `<section title="s"><para>one</para><para>two <b>bold</b></para></section>`
	for _, opts := range allOptions() {
		tree, _ := xmltree.ParseString(`<doc><chapter/><chapter/></doc>`)
		s := newStore(t, opts, tree)
		target := tree.Children[0]
		stats, err := s.mgr.InsertXML(s.doc, s.ids[target], LastChild, frag)
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if stats.RowsInserted != 8 { // section+title attr+2 para+3 texts+b
			t.Errorf("%s: RowsInserted = %d", optName(opts), stats.RowsInserted)
		}
		got, _ := s.pub.Document(s.doc)
		want := `<doc><chapter>` + frag + `</chapter><chapter/></doc>`
		if got.String() != want {
			t.Errorf("%s: %s", optName(opts), got.String())
		}
	}
}

func TestRenumberingCosts(t *testing.T) {
	// 20 sibling leaves, dense encodings: inserting before the first child
	// must renumber per the paper's cost model.
	mk := func() *xmltree.Node {
		r := xmltree.NewElement("r")
		for i := 0; i < 20; i++ {
			c := r.AddChild(xmltree.NewElement("c"))
			c.AddChild(xmltree.NewText(fmt.Sprintf("t%d", i)))
		}
		return r
	}
	// Expected renumber counts for insert-before-first-child:
	//   global: every following node (root excluded): 40 rows
	//   local:  the 20 following siblings
	//   dewey:  the 20 siblings plus their text children = 40
	expect := map[string]int64{"global": 40, "local": 20, "dewey": 40, "dewey_text": 40}
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local}, {Kind: encoding.Dewey},
		{Kind: encoding.Dewey, DeweyAsText: true},
	} {
		tree := mk()
		s := newStore(t, opts, tree)
		first := tree.Children[0]
		stats, err := s.mgr.InsertXML(s.doc, s.ids[first], Before, "<new/>")
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if want := expect[optName(opts)]; stats.RowsRenumbered != want {
			t.Errorf("%s: RowsRenumbered = %d, want %d", optName(opts), stats.RowsRenumbered, want)
		}
	}
	// Appending at the end renumbers nothing under any encoding.
	for _, opts := range allOptions() {
		tree := mk()
		s := newStore(t, opts, tree)
		stats, err := s.mgr.InsertXML(s.doc, s.ids[tree], LastChild, "<new/>")
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if stats.RowsRenumbered != 0 {
			t.Errorf("%s: append renumbered %d rows", optName(opts), stats.RowsRenumbered)
		}
	}
	// Gap encodings absorb the first midpoint insert without renumbering.
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global, Gap: 16},
		{Kind: encoding.Local, Gap: 16},
		{Kind: encoding.Dewey, Gap: 16},
	} {
		tree := mk()
		s := newStore(t, opts, tree)
		first := tree.Children[0]
		stats, err := s.mgr.InsertXML(s.doc, s.ids[first], Before, "<new/>")
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if stats.RowsRenumbered != 0 {
			t.Errorf("%s gap: renumbered %d rows", optName(opts), stats.RowsRenumbered)
		}
	}
}

// TestRenumberingStatementsConstant: renumbering is one UPDATE whatever it
// touches, under every encoding, so an insert before the first of 20 or of
// 200 siblings issues the same number of statements, reads and writes alike.
func TestRenumberingStatementsConstant(t *testing.T) {
	statements := func(opts encoding.Options, siblings int) (stmts, renumbered int64) {
		r := xmltree.NewElement("r")
		for i := 0; i < siblings; i++ {
			r.AddChild(xmltree.NewElement("c")).AddChild(xmltree.NewText(fmt.Sprintf("t%d", i)))
		}
		s := newStore(t, opts, r)
		count := func() int64 {
			c := s.db.Metrics().Counters
			return c["sqldb.queries"] + c["sqldb.execs"]
		}
		before := count()
		stats, err := s.mgr.InsertXML(s.doc, s.ids[r.Children[0]], Before, "<new/>")
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		return count() - before, stats.RowsRenumbered
	}
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local}, {Kind: encoding.Dewey},
		{Kind: encoding.Dewey, DeweyAsText: true},
	} {
		small, smallRows := statements(opts, 20)
		large, largeRows := statements(opts, 200)
		if smallRows == 0 || largeRows <= smallRows {
			t.Fatalf("%s: renumbered %d then %d rows; the test needs both to renumber", optName(opts), smallRows, largeRows)
		}
		if small != large {
			t.Errorf("%s: %d statements renumbering %d rows, %d renumbering %d", optName(opts), small, smallRows, large, largeRows)
		}
	}
}

// TestUpdateWritesOnlyChangedIndexEntries: a renumbered row rewrites only
// the index entries whose keys hold its order key, one write each. Global
// and Dewey keep the order key in three of their four indexes, (doc, id)
// being the fourth; Local keeps it only in (doc, parent, ord), not in
// (doc, id) or (doc, tag). The fragment's rows arrive through the bulk
// loader, which the counter leaves out, and the document's size bump leaves
// the docs key as it was: the shift's writes are all that is counted.
func TestUpdateWritesOnlyChangedIndexEntries(t *testing.T) {
	for _, c := range []struct {
		opts   encoding.Options
		perRow int64
	}{
		{encoding.Options{Kind: encoding.Global}, 3},
		{encoding.Options{Kind: encoding.Local}, 1},
		{encoding.Options{Kind: encoding.Dewey}, 3},
	} {
		r := xmltree.NewElement("r")
		for i := 0; i < 50; i++ {
			r.AddChild(xmltree.NewElement("c"))
		}
		s := newStore(t, c.opts, r)
		before := s.db.Metrics()
		stats, err := s.mgr.InsertXML(s.doc, s.ids[r.Children[0]], Before, "<new/>")
		if err != nil {
			t.Fatalf("%s: %v", optName(c.opts), err)
		}
		if stats.RowsRenumbered < 50 {
			t.Fatalf("%s: renumbered %d rows; the test needs the shift", optName(c.opts), stats.RowsRenumbered)
		}
		got := s.db.Metrics().Delta(before, "storage.index_writes")
		if want := c.perRow * stats.RowsRenumbered; got != want {
			t.Errorf("%s: renumbering %d rows wrote %d index entries, want %d (%d per row)",
				optName(c.opts), stats.RowsRenumbered, got, want, c.perRow)
		}
	}
}

// TestDeweyShiftPlansAsRangeScan: the sibling shift reads its rows with one
// range scan of the (doc, path) order index, never a pass over the table.
func TestDeweyShiftPlansAsRangeScan(t *testing.T) {
	for _, opts := range []encoding.Options{{Kind: encoding.Dewey}, {Kind: encoding.Dewey, DeweyAsText: true}} {
		tree, _ := xmltree.ParseString(`<r><a/><b/></r>`)
		s := newStore(t, opts, tree)
		out, err := s.db.Explain(s.mgr.deweyShiftSQL())
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		want := fmt.Sprintf("IndexScan %s using %s_order doc=? path>=? path<?", opts.NodesTable(), opts.NodesTable())
		if !strings.Contains(out, want) {
			t.Errorf("%s: shift plans as\n%s\nwant %q", optName(opts), out, want)
		}
	}
}

// TestDeweyShiftFunction: DEWEY_SHIFT agrees with the Path reference under
// both codecs, and rejects what it cannot shift.
func TestDeweyShiftFunction(t *testing.T) {
	call := func(args ...sqltypes.Value) (sqltypes.Value, error) {
		lits := make([]expr.Expr, len(args))
		for i, a := range args {
			lits[i] = &expr.Literal{Val: a}
		}
		return expr.Eval(&expr.Call{Name: "DEWEY_SHIFT", Args: lits}, &expr.Env{})
	}
	r := rand.New(rand.NewSource(7))
	for n := 0; n < 2000; n++ {
		p := make(dewey.Path, 1+r.Intn(6))
		for i := range p {
			p[i] = 1 + uint32(r.Intn(1<<[]int{6, 13, 20, 26}[r.Intn(4)]))
		}
		depth := r.Intn(len(p))
		delta := int64(r.Intn(1<<[]int{4, 12, 24, 27}[r.Intn(4)])) - int64(r.Intn(int(p[depth])))
		want := p.Clone()
		want[depth] = uint32(int64(want[depth]) + delta)

		got, err := call(sqldb.B(p.Bytes()), sqldb.I(int64(depth)), sqldb.I(delta))
		if err != nil || got.Type() != sqltypes.Blob || !bytes.Equal(got.Blob(), want.Bytes()) {
			t.Fatalf("DEWEY_SHIFT(%v, %d, %d) = %v, %v; want %v", p, depth, delta, got, err, want)
		}
		got, err = call(sqldb.S(p.PaddedString()), sqldb.I(int64(depth)), sqldb.I(delta))
		if want[depth] > dewey.MaxPaddedComponent {
			if !errors.Is(err, dewey.ErrRange) {
				t.Fatalf("padded DEWEY_SHIFT(%v, %d, %d) = %v, %v; want a range error", p, depth, delta, got, err)
			}
		} else if err != nil || got.Type() != sqltypes.Text || got.Text() != want.PaddedString() {
			t.Fatalf("padded DEWEY_SHIFT(%v, %d, %d) = %v, %v; want %v", p, depth, delta, got, err, want)
		}
	}

	path := sqldb.B(dewey.Path{1, 2, 3}.Bytes())
	bad := map[string][]sqltypes.Value{
		"depth past the path":  {path, sqldb.I(3), sqldb.I(1)},
		"negative depth":       {path, sqldb.I(-1), sqldb.I(1)},
		"shift to zero":        {path, sqldb.I(1), sqldb.I(-2)},
		"past MaxComponent":    {sqldb.B(dewey.Path{1, dewey.MaxComponent}.Bytes()), sqldb.I(1), sqldb.I(1)},
		"NULL path":            {sqldb.Null(), sqldb.I(0), sqldb.I(1)},
		"NULL depth":           {path, sqldb.Null(), sqldb.I(1)},
		"NULL delta":           {path, sqldb.I(0), sqldb.Null()},
		"INT path":             {sqldb.I(5), sqldb.I(0), sqldb.I(1)},
		"TEXT depth":           {path, sqldb.S("0"), sqldb.I(1)},
		"corrupt blob":         {sqldb.B([]byte{0xFF}), sqldb.I(0), sqldb.I(1)},
		"unpadded text":        {sqldb.S("1.2"), sqldb.I(1), sqldb.I(1)},
		"two arguments":        {path, sqldb.I(0)},
		"four arguments":       {path, sqldb.I(0), sqldb.I(1), sqldb.I(1)},
		"padded past 10^8 - 1": {sqldb.S(dewey.Path{1, dewey.MaxPaddedComponent}.PaddedString()), sqldb.I(1), sqldb.I(1)},
	}
	for name, args := range bad {
		if got, err := call(args...); err == nil {
			t.Errorf("%s: DEWEY_SHIFT = %v, want an error", name, got)
		}
	}
}

// TestInsertWorkIndependentOfDocumentSize: an append that renumbers nothing
// costs the same rows examined in a 50-item and a 400-item document. Its
// reads — the target, the anchor, the largest order key and the largest id —
// are each one index descent, never a pass over the document or the
// sibling list.
func TestInsertWorkIndependentOfDocumentSize(t *testing.T) {
	examined := func(opts encoding.Options, items int, region bool) int64 {
		tree := xmlgen.Catalog(xmlgen.CatalogConfig{Regions: 1, ItemsPerRegion: items, KeywordsPerItem: 2, DescriptionWords: 4, Seed: 1})
		target := tree
		if region {
			target = tree.Children[0].Children[0]
		}
		s := newStore(t, opts, tree)
		before := s.db.Metrics()
		stats, err := s.mgr.InsertXML(s.doc, s.ids[target], LastChild, "<item><name>new</name></item>")
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if stats.RowsRenumbered != 0 {
			t.Fatalf("%s: the append renumbered %d rows", optName(opts), stats.RowsRenumbered)
		}
		return s.db.Metrics().Delta(before, "storage.index_probes", "storage.rows_scanned")
	}
	for _, opts := range allOptions() {
		// Appending under the root renumbers nothing under any encoding;
		// appending after the last of the region's items renumbers nothing
		// where order keys are sibling-local (under Global it shifts the
		// nodes that follow the region).
		targets := []bool{false}
		if opts.Kind != encoding.Global {
			targets = append(targets, true)
		}
		for _, region := range targets {
			small, large := examined(opts, 50, region), examined(opts, 400, region)
			if large-small > 2 || small-large > 2 {
				t.Errorf("%s (region target %v): append examined %d rows in a 50-item document, %d in a 400-item one",
					optName(opts), region, small, large)
			}
		}
	}
}

func TestDeleteSubtree(t *testing.T) {
	for _, opts := range allOptions() {
		tree, _ := xmltree.ParseString(`<r><a><x/><y>t</y></a><b/><c/></r>`)
		s := newStore(t, opts, tree)
		target := tree.Children[0] // <a> subtree: a,x,y,text = 4 rows
		stats, err := s.mgr.Delete(s.doc, s.ids[target])
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if stats.RowsDeleted != 4 {
			t.Errorf("%s: RowsDeleted = %d", optName(opts), stats.RowsDeleted)
		}
		got, _ := s.pub.Document(s.doc)
		if got.String() != `<r><b/><c/></r>` {
			t.Errorf("%s: %s", optName(opts), got.String())
		}
		// Deleting the last child then reinserting keeps order sane.
		if _, err := s.mgr.Delete(s.doc, s.ids[tree.Children[2]]); err != nil {
			t.Fatal(err)
		}
		got, _ = s.pub.Document(s.doc)
		if got.String() != `<r><b/></r>` {
			t.Errorf("%s after second delete: %s", optName(opts), got.String())
		}
	}
}

func TestUpdateErrors(t *testing.T) {
	tree, _ := xmltree.ParseString(`<r a="1"><b>text</b></r>`)
	s := newStore(t, encoding.Options{Kind: encoding.Dewey}, tree)
	rootID := s.ids[tree]
	attrID := s.ids[tree.Attrs[0]]
	textID := s.ids[tree.Children[0].Children[0]]
	if _, err := s.mgr.InsertXML(s.doc, rootID, Before, "<x/>"); err == nil {
		t.Error("sibling of root accepted")
	}
	if _, err := s.mgr.InsertXML(s.doc, attrID, After, "<x/>"); err == nil {
		t.Error("insert relative to attribute accepted")
	}
	if _, err := s.mgr.InsertXML(s.doc, textID, FirstChild, "<x/>"); err == nil {
		t.Error("child of text node accepted")
	}
	if _, err := s.mgr.InsertXML(s.doc, 9999, After, "<x/>"); err == nil {
		t.Error("missing target accepted")
	}
	if _, err := s.mgr.InsertXML(s.doc, rootID, LastChild, "<bad"); err == nil {
		t.Error("malformed fragment accepted")
	}
	if _, err := s.mgr.Delete(s.doc, 9999); err == nil {
		t.Error("delete of missing node accepted")
	}
}

// TestRandomEditScripts is the cross-encoding equivalence property: a random
// sequence of inserts and deletes applied to every encoding and to the
// in-memory oracle must leave identical documents.
func TestRandomEditScripts(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		oracle := xmlgen.Random(xmlgen.DefaultRandom(seed + 100))
		var stores []*store
		for _, opts := range allOptions() {
			stores = append(stores, newStore(t, opts, oracle))
		}
		for op := 0; op < 25; op++ {
			// Collect current element nodes as insertion targets.
			var elems []*xmltree.Node
			oracle.Walk(func(n *xmltree.Node) bool {
				if n.Kind == xmltree.Element {
					elems = append(elems, n)
				}
				return true
			})
			target := elems[r.Intn(len(elems))]
			isRoot := target.Parent == nil
			switch {
			case r.Intn(4) == 0 && !isRoot && len(elems) > 3:
				// Delete.
				for _, s := range stores {
					if _, err := s.mgr.Delete(s.doc, s.ids[target]); err != nil {
						t.Fatalf("seed %d op %d %s: delete: %v", seed, op, optName(s.opts), err)
					}
				}
				oracleDelete(target)
			default:
				mode := Mode(r.Intn(4))
				if isRoot && (mode == Before || mode == After) {
					mode = LastChild
				}
				fragXML := fmt.Sprintf(`<ins n="%d"><leaf>v%d</leaf></ins>`, op, op)
				oracleFrag, _ := xmltree.ParseString(fragXML)
				for _, s := range stores {
					frag, _ := xmltree.ParseString(fragXML)
					stats, err := s.mgr.InsertTree(s.doc, s.ids[target], mode, frag)
					if err != nil {
						t.Fatalf("seed %d op %d %s: insert %s: %v", seed, op, optName(s.opts), mode, err)
					}
					s.mapFragment(oracleFrag, stats.NewID)
				}
				oracleInsert(target, mode, oracleFrag)
			}
		}
		for _, s := range stores {
			s.verify(t, oracle)
		}
	}
}

// TestGapExhaustion drives repeated inserts at the same point until gaps run
// out, checking the document stays correct and renumbering eventually kicks
// in.
func TestGapExhaustion(t *testing.T) {
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global, Gap: 8},
		{Kind: encoding.Local, Gap: 8},
		{Kind: encoding.Dewey, Gap: 8},
	} {
		tree, _ := xmltree.ParseString(`<r><a/><b/></r>`)
		s := newStore(t, opts, tree)
		oracle := tree
		bID := s.ids[oracle.Children[1]]
		renumberEvents := 0
		for i := 0; i < 12; i++ {
			stats, err := s.mgr.InsertXML(s.doc, bID, Before, "<n/>")
			if err != nil {
				t.Fatalf("%s insert %d: %v", optName(s.opts), i, err)
			}
			if stats.RowsRenumbered > 0 {
				renumberEvents++
			}
		}
		if renumberEvents == 0 {
			t.Errorf("%s: gap never exhausted in 12 inserts", optName(s.opts))
		}
		got, err := s.pub.Document(s.doc)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, c := range got.Children {
			if c.Tag == "n" {
				count++
			}
		}
		if count != 12 || got.Children[0].Tag != "a" || got.Children[len(got.Children)-1].Tag != "b" {
			t.Errorf("%s: document wrong after gap exhaustion: %s", optName(s.opts), got.String())
		}
	}
}

func TestSetValueAndRename(t *testing.T) {
	for _, opts := range allOptions() {
		tree, _ := xmltree.ParseString(`<r a="old"><b>text</b></r>`)
		s := newStore(t, opts, tree)
		attrID := s.ids[tree.Attrs[0]]
		textID := s.ids[tree.Children[0].Children[0]]
		elemID := s.ids[tree.Children[0]]
		if err := s.mgr.SetValue(s.doc, attrID, "new"); err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if err := s.mgr.SetValue(s.doc, textID, "edited"); err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if err := s.mgr.SetValue(s.doc, elemID, "x"); err == nil {
			t.Errorf("%s: SetValue on element accepted", optName(opts))
		}
		if err := s.mgr.Rename(s.doc, elemID, "c"); err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if err := s.mgr.Rename(s.doc, textID, "x"); err == nil {
			t.Errorf("%s: Rename on text accepted", optName(opts))
		}
		if err := s.mgr.SetValue(s.doc, 999, "x"); err == nil {
			t.Errorf("%s: SetValue on missing node accepted", optName(opts))
		}
		got, _ := s.pub.Document(s.doc)
		want := `<r a="new"><c>edited</c></r>`
		if got.String() != want {
			t.Errorf("%s: %s, want %s", optName(opts), got.String(), want)
		}
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{FirstChild, LastChild, Before, After} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, bad := range []string{"", "first", "FIRST-CHILD", "sibling"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) accepted", bad)
		}
	}
}
