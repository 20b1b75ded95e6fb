package shred

import (
	"strings"
	"testing"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/publish"
	"ordxml/internal/sqldb"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// allOptions is every encoding configuration exercised by the round-trip
// suites: the three encodings, gap variants, and string Dewey.
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

func newStore(t *testing.T, opts encoding.Options) (*sqldb.DB, *Shredder, *publish.Publisher) {
	t.Helper()
	db := sqldb.Open()
	if err := encoding.Install(db, opts); err != nil {
		t.Fatal(err)
	}
	s, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := publish.New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, s, p
}

func TestRoundTripAllEncodings(t *testing.T) {
	doc := xmlgen.Catalog(xmlgen.CatalogConfig{
		Regions: 2, ItemsPerRegion: 5, KeywordsPerItem: 2, DescriptionWords: 4, Seed: 3})
	for _, opts := range allOptions() {
		t.Run(optName(opts), func(t *testing.T) {
			db, s, p := newStore(t, opts)
			id, err := s.LoadTree("cat", doc)
			if err != nil {
				t.Fatal(err)
			}
			if id != 1 {
				t.Errorf("first doc id = %d", id)
			}
			back, err := p.Document(id)
			if err != nil {
				t.Fatal(err)
			}
			if !xmltree.Equal(doc, back) {
				t.Fatalf("round trip mismatch:\nwant %s\ngot  %s",
					trunc(doc.String()), trunc(back.String()))
			}
			// Row count matches tree size.
			res, err := db.Query("SELECT nodes FROM docs WHERE doc = ?", sqldb.I(id))
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].Int(); got != int64(doc.Size()) {
				t.Errorf("docs.nodes = %d, tree size = %d", got, doc.Size())
			}
		})
	}
}

func optName(o encoding.Options) string {
	name := o.Kind.String()
	if o.Gap > 1 {
		name += "_gap"
	}
	if o.DeweyAsText {
		name += "_text"
	}
	return name
}

func trunc(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return s
}

func TestRoundTripRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		doc := xmlgen.Random(xmlgen.DefaultRandom(seed))
		for _, opts := range allOptions() {
			_, s, p := newStore(t, opts)
			id, err := s.LoadTree("r", doc)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, optName(opts), err)
			}
			back, err := p.Document(id)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, optName(opts), err)
			}
			if !xmltree.Equal(doc, back) {
				t.Fatalf("seed %d %s: round trip mismatch", seed, optName(opts))
			}
		}
	}
}

func TestSubtreePublish(t *testing.T) {
	doc := xmlgen.Play(xmlgen.PlayConfig{Acts: 2, ScenesPerAct: 2, SpeechesPerScene: 2, LinesPerSpeech: 2, Seed: 1})
	for _, opts := range allOptions() {
		t.Run(optName(opts), func(t *testing.T) {
			db, s, p := newStore(t, opts)
			id, err := s.LoadTree("play", doc)
			if err != nil {
				t.Fatal(err)
			}
			// Find the id of the first ACT via SQL.
			res, err := db.Query(
				"SELECT id FROM "+opts.NodesTable()+" WHERE doc = ? AND tag = 'ACT' ORDER BY id LIMIT 1",
				sqldb.I(id))
			if err != nil {
				t.Fatal(err)
			}
			actID := res.Rows[0][0].Int()
			sub, err := p.Subtree(id, actID)
			if err != nil {
				t.Fatal(err)
			}
			// First ACT subtree equals the corresponding in-memory subtree.
			var wantAct *xmltree.Node
			for _, c := range doc.Children {
				if c.Tag == "ACT" {
					wantAct = c
					break
				}
			}
			if !xmltree.Equal(wantAct, sub) {
				t.Fatalf("subtree mismatch:\nwant %s\ngot  %s", trunc(wantAct.String()), trunc(sub.String()))
			}
			// Whole document as subtree of the root.
			whole, err := p.Subtree(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !xmltree.Equal(doc, whole) {
				t.Fatal("root subtree differs from document")
			}
		})
	}
}

func TestMultipleDocuments(t *testing.T) {
	opts := encoding.Options{Kind: encoding.Dewey}
	_, s, p := newStore(t, opts)
	d1 := xmlgen.Random(xmlgen.DefaultRandom(1))
	d2 := xmlgen.Random(xmlgen.DefaultRandom(2))
	id1, err := s.LoadTree("one", d1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.LoadTree("two", d2)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("duplicate doc ids")
	}
	b1, err := p.Document(id1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.Document(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(d1, b1) || !xmltree.Equal(d2, b2) {
		t.Fatal("documents interfered")
	}
	docs, err := Documents(s.db)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0].Name != "one" || docs[1].Name != "two" {
		t.Fatalf("Documents = %+v", docs)
	}
}

func TestDropDocument(t *testing.T) {
	opts := encoding.Options{Kind: encoding.Global}
	db, s, _ := newStore(t, opts)
	id, err := s.LoadTree("d", xmlgen.Random(xmlgen.DefaultRandom(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DropDocument(id); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*) FROM xg_nodes WHERE doc = ?", sqldb.I(id))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Error("rows remain after drop")
	}
	if err := s.DropDocument(id); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestLoadFromReader(t *testing.T) {
	opts := encoding.Options{Kind: encoding.Local}
	_, s, p := newStore(t, opts)
	id, err := s.Load("r", strings.NewReader(`<a x="1"><b>hi</b><c/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.Document(id)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != `<a x="1"><b>hi</b><c/></a>` {
		t.Errorf("round trip = %s", back.String())
	}
	if _, err := s.Load("bad", strings.NewReader("<a>")); err == nil {
		t.Error("malformed XML loaded")
	}
}

func TestShredderErrors(t *testing.T) {
	db := sqldb.Open()
	if _, err := New(db, encoding.Options{Kind: encoding.Dewey}); err == nil {
		t.Error("shredder created without installed schema")
	}
	if _, err := New(db, encoding.Options{Kind: 99}); err == nil {
		t.Error("invalid options accepted")
	}
	if _, err := publish.New(db, encoding.Options{Kind: encoding.Dewey}); err == nil {
		t.Error("publisher created without installed schema")
	}
}

func TestGapValuesStored(t *testing.T) {
	opts := encoding.Options{Kind: encoding.Local, Gap: 10}
	db, s, _ := newStore(t, opts)
	id, err := s.Load("g", strings.NewReader(`<a><b/><c/><d/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT lorder FROM xl_nodes WHERE doc = ? AND parent = 1 ORDER BY lorder", sqldb.I(id))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 20, 30}
	for i, r := range res.Rows {
		if r[0].Int() != want[i] {
			t.Errorf("lorder[%d] = %d, want %d", i, r[0].Int(), want[i])
		}
	}
}

func TestEdgeDocuments(t *testing.T) {
	cases := []string{
		`<only/>`,
		`<a x="1" y="2" z="3"/>`, // attribute-only
		`<a>just text</a>`,       // text-only child
		`<a><b><c><d><e><f><g>deep</g></f></e></d></c></b></a>`, // narrow and deep
	}
	for _, xml := range cases {
		for _, opts := range allOptions() {
			_, s, p := newStore(t, opts)
			id, err := s.Load("e", strings.NewReader(xml))
			if err != nil {
				t.Fatalf("%s %q: %v", optName(opts), xml, err)
			}
			back, err := p.Document(id)
			if err != nil {
				t.Fatalf("%s %q: %v", optName(opts), xml, err)
			}
			if back.String() != xml {
				t.Errorf("%s: %q -> %q", optName(opts), xml, back.String())
			}
		}
	}
}

func TestVeryDeepNesting(t *testing.T) {
	// 300 levels deep: exercises long Dewey paths (multi-byte keys) and deep
	// recursion in local/global reconstruction.
	depth := 300
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<n>")
	}
	sb.WriteString("bottom")
	for i := 0; i < depth; i++ {
		sb.WriteString("</n>")
	}
	xml := sb.String()
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local},
		{Kind: encoding.Dewey}, {Kind: encoding.Dewey, Gap: 64},
		{Kind: encoding.Dewey, DeweyAsText: true},
	} {
		_, s, p := newStore(t, opts)
		id, err := s.Load("deep", strings.NewReader(xml))
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		back, err := p.Document(id)
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if back.String() != xml {
			t.Errorf("%s: deep round trip mismatch", optName(opts))
		}
	}
}

func TestWideFanout(t *testing.T) {
	// 5000 siblings: exercises multi-byte Dewey components (ordinals beyond
	// the 1-byte range) and big sibling groups.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 5000; i++ {
		sb.WriteString("<c/>")
	}
	sb.WriteString("</r>")
	xml := sb.String()
	for _, opts := range []encoding.Options{
		{Kind: encoding.Dewey}, {Kind: encoding.Dewey, Gap: 64}, {Kind: encoding.Local},
	} {
		_, s, p := newStore(t, opts)
		id, err := s.Load("wide", strings.NewReader(xml))
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		back, err := p.Document(id)
		if err != nil {
			t.Fatalf("%s: %v", optName(opts), err)
		}
		if len(back.Children) != 5000 {
			t.Errorf("%s: %d children", optName(opts), len(back.Children))
		}
	}
}

// TestNextDocIDNoFullScan is the regression test for the doc-id high-water
// mark: after the first load seeds it, later loads must not scan any table
// to find the next free document id (the old implementation ran a full-table
// SELECT MAX(doc) per load).
func TestNextDocIDNoFullScan(t *testing.T) {
	db, s, _ := newStore(t, encoding.Options{Kind: encoding.Global})
	doc := xmlgen.Catalog(xmlgen.CatalogConfig{
		Regions: 2, ItemsPerRegion: 3, KeywordsPerItem: 1, DescriptionWords: 3, Seed: 1})
	if _, err := s.LoadTree("first", doc); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()
	for i := 0; i < 5; i++ {
		if _, err := s.LoadTree("more", doc); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.Metrics().Delta(before, "storage.rows_scanned"); n != 0 {
		t.Fatalf("loads after the first scanned %d rows, want 0", n)
	}
}

// TestNextDocIDSharedDocsTable: two shredders over one database share the
// docs registry; the cached high-water mark must not hand out an id the
// other shredder already took.
func TestNextDocIDSharedDocsTable(t *testing.T) {
	db := sqldb.Open()
	for _, opts := range []encoding.Options{{Kind: encoding.Global}, {Kind: encoding.Local}} {
		if err := encoding.Install(db, opts); err != nil {
			t.Fatal(err)
		}
	}
	sg, err := New(db, encoding.Options{Kind: encoding.Global})
	if err != nil {
		t.Fatal(err)
	}
	sl, err := New(db, encoding.Options{Kind: encoding.Local})
	if err != nil {
		t.Fatal(err)
	}
	doc := xmlgen.Catalog(xmlgen.CatalogConfig{
		Regions: 1, ItemsPerRegion: 2, KeywordsPerItem: 1, DescriptionWords: 2, Seed: 2})
	seen := map[int64]bool{}
	for i := 0; i < 3; i++ {
		for _, sh := range []*Shredder{sg, sl} {
			id, err := sh.LoadTree("d", doc)
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("doc id %d handed out twice", id)
			}
			seen[id] = true
		}
	}
	// Dropping and reloading must also not reuse a live id.
	if err := sg.DropDocument(1); err != nil {
		t.Fatal(err)
	}
	id, err := sg.LoadTree("again", doc)
	if err != nil {
		t.Fatal(err)
	}
	if seen[id] && id != 1 {
		t.Fatalf("reload returned live id %d", id)
	}
}
