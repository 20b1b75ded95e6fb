package publish

import (
	"strings"
	"testing"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/shred"
	"ordxml/internal/sqldb"
	"ordxml/internal/xmltree"
)

// Round trips across encodings live in the shred package; these tests cover
// the publisher's own edge cases and failure paths.

func setup(t *testing.T, opts encoding.Options, xml string) (*Publisher, int64, *sqldb.DB) {
	t.Helper()
	db := sqldb.Open()
	if err := encoding.Install(db, opts); err != nil {
		t.Fatal(err)
	}
	sh, err := shred.New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sh.LoadTree("d", tree)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, doc, db
}

func TestMissingDocument(t *testing.T) {
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local}, {Kind: encoding.Dewey},
	} {
		p, _, _ := setup(t, opts, "<a/>")
		if _, err := p.Document(99); err == nil {
			t.Errorf("%s: missing document published", opts.Kind)
		}
		if _, err := p.Subtree(99, 1); err == nil {
			t.Errorf("%s: subtree of missing document published", opts.Kind)
		}
		if _, err := p.Subtree(1, 42); err == nil {
			t.Errorf("%s: missing node published", opts.Kind)
		}
	}
}

func TestSubtreeOfLeaf(t *testing.T) {
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local}, {Kind: encoding.Dewey},
		{Kind: encoding.Dewey, DeweyAsText: true},
	} {
		p, doc, db := setup(t, opts, `<a><b x="1">hi</b></a>`)
		// Find the text node's id.
		res, err := db.Query(
			"SELECT id FROM "+opts.NodesTable()+" WHERE doc = ? AND kind = 'text'", sqldb.I(doc))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("%v rows, %v", len(res.Rows), err)
		}
		textID := res.Rows[0][0].Int()
		sub, err := p.Subtree(doc, textID)
		if err != nil {
			t.Fatalf("%s: %v", opts.Kind, err)
		}
		if sub.Kind != xmltree.Text || sub.Value != "hi" {
			t.Errorf("%s: leaf subtree = %+v", opts.Kind, sub)
		}
		// Attribute node as subtree.
		res, _ = db.Query(
			"SELECT id FROM "+opts.NodesTable()+" WHERE doc = ? AND kind = 'attr'", sqldb.I(doc))
		attrID := res.Rows[0][0].Int()
		sub, err = p.Subtree(doc, attrID)
		if err != nil || sub.Kind != xmltree.Attr || sub.Tag != "x" {
			t.Errorf("%s: attr subtree = %+v, %v", opts.Kind, sub, err)
		}
	}
}

func TestDocumentAfterSubtreeDeletion(t *testing.T) {
	// Publishing must tolerate order keys with holes (post-delete state is
	// simulated by loading with a gap).
	opts := encoding.Options{Kind: encoding.Global, Gap: 32}
	p, doc, _ := setup(t, opts, `<a><b/><c/><d/></a>`)
	tree, err := p.Document(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 3 {
		t.Errorf("children = %d", len(tree.Children))
	}
}

func TestMixedContentOrder(t *testing.T) {
	const xml = `<p>one <b>two</b> three <i>four</i> five</p>`
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local}, {Kind: encoding.Dewey},
	} {
		p, doc, _ := setup(t, opts, xml)
		tree, err := p.Document(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.String(); got != xml {
			t.Errorf("%s: mixed content order lost: %s", opts.Kind, got)
		}
	}
}

func TestNewValidation(t *testing.T) {
	db := sqldb.Open()
	if _, err := New(db, encoding.Options{Kind: encoding.Kind(9)}); err == nil {
		t.Error("bad options accepted")
	}
	if _, err := New(db, encoding.Options{Kind: encoding.Global}); err == nil {
		t.Error("uninstalled encoding accepted")
	}
}

// TestSubtreeStatementPlans pins the access paths of the set-at-a-time
// subtree reads: Global and Local probe the (doc, parent, order) index once
// per frontier id, Dewey the (doc, order) index once per root interval, and
// neither scans or hashes the node table.
func TestSubtreeStatementPlans(t *testing.T) {
	for _, opts := range []encoding.Options{
		{Kind: encoding.Global}, {Kind: encoding.Local}, {Kind: encoding.Dewey},
		{Kind: encoding.Dewey, DeweyAsText: true},
	} {
		p, _, db := setup(t, opts, `<a><b x="1">hi</b></a>`)
		sql, index := p.level, opts.NodesTable()+"_parent"
		if opts.Kind == encoding.Dewey {
			sql, index = p.intervals, opts.NodesTable()+"_order"
		}
		plan, err := db.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "IndexNLJoin "+opts.NodesTable()+" using "+index) ||
			strings.Contains(plan, "SeqScan") || strings.Contains(plan, "HashJoin") {
			t.Errorf("%s: %s\nplans\n%s", opts.Kind, sql, plan)
		}
	}
}
