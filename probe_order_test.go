package ordxml_test

import (
	"testing"

	"ordxml"
	"ordxml/internal/bench"
	"ordxml/internal/xmltree"
)

// wideContextQueries are the wide-context shapes of the translator's
// statement-count test, and root-anchored chains whose final statement the
// planner answers in index order without a Sort under Global and Dewey.
var wideContextQueries = []string{
	"//item//keyword", "//item/name/..", "//item/following-sibling::item[1]",
	"//keyword/ancestor::item", "//item//keyword[1]", "//description//text()",
	"/site/regions/namerica/item/name", "/site/regions/namerica/item/@id",
	"/site/banner/item/quantity", "/site//keyword", "/site/regions/namerica//keyword[1]",
}

// TestQueriesAfterOutOfOrderIDs runs the E3 suite (Q1–Q9) and the
// wide-context queries against the xpath oracle after updates that break
// the match between node ids and document order: inserts at the beginning
// of a region and of the document take ids above every loaded node (under
// Dewey the region insert renumbers its siblings with DEWEY_SHIFT), and a
// move renumbers a subtree with the largest ids in the store. The
// translator binds a context set in the key order of the index a join
// probes, so consecutive index probes in a join jump backwards and forwards
// through the tree, and a chain's final statement returns document order
// from those probes with no sort anywhere; every encoding must still return
// the oracle's node sequence, in memory and on a durable store whose pool
// holds 8 pages.
func TestQueriesAfterOutOfOrderIDs(t *testing.T) {
	const items = 12
	oracle := bench.CatalogDoc(items)
	var sessions []*session
	for _, enc := range []ordxml.Encoding{ordxml.Global, ordxml.Local, ordxml.Dewey} {
		mem, err := ordxml.Open(ordxml.Options{Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		dur, err := ordxml.OpenDurable(t.TempDir(), ordxml.Options{Encoding: enc, BufferPoolFrames: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dur.Close() })
		for _, s := range []*session{{name: enc.String() + "/memory", store: mem}, {name: enc.String() + "/durable", store: dur}} {
			if s.doc, err = s.store.LoadString("catalog", oracle.String()); err != nil {
				t.Fatal(err)
			}
			s.ids = map[*xmltree.Node]int64{}
			s.mapFragment(oracle, 1)
			sessions = append(sessions, s)
		}
	}
	check := func(step string) {
		t.Run(step, func(t *testing.T) {
			queries := append([]string(nil), wideContextQueries...)
			for _, q := range bench.QuerySuite(items) {
				queries = append(queries, q.XPath)
			}
			for _, q := range queries {
				for _, s := range sessions {
					s.checkQuery(t, oracle, q)
				}
			}
		})
	}
	namerica := oracle.Children[0].Children[0]
	insert := func(step string, target *xmltree.Node, pos ordxml.Position, frag string) {
		t.Helper()
		node, err := xmltree.ParseString(frag)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sessions {
			rep, err := s.store.Insert(s.doc, s.ids[target], pos, frag)
			if err != nil {
				t.Fatalf("%s: %s: %v", s.name, step, err)
			}
			s.mapFragment(node, rep.NewID)
		}
		place(node, target, pos)
		check(step)
	}

	check("load")
	insert("insert at the beginning of a region", namerica, ordxml.FirstChild,
		`<item id="new0"><name>n</name><quantity>5</quantity><description>d<keyword>k0</keyword><keyword>k1</keyword></description></item>`)
	insert("insert at the beginning of the document", oracle, ordxml.FirstChild,
		`<banner><keyword>top</keyword><item id="new1"><quantity>5</quantity></item></banner>`)

	last, first := namerica.Children[len(namerica.Children)-1], namerica.Children[0]
	for _, s := range sessions {
		rep, err := s.store.Move(s.doc, s.ids[last], s.ids[first], ordxml.Before)
		if err != nil {
			t.Fatalf("%s: move: %v", s.name, err)
		}
		s.mapFragment(last, rep.NewID)
	}
	namerica.Children = namerica.Children[:len(namerica.Children)-1]
	place(last, first, ordxml.Before)
	check("moving the last item of a region to its front")

	insert("insert between moved and inserted items", namerica.Children[1], ordxml.Before,
		`<item id="new2"><quantity>5</quantity><description><keyword>k2</keyword></description></item>`)
}

// place links node into the oracle tree at pos relative to target.
func place(node, target *xmltree.Node, pos ordxml.Position) {
	switch pos {
	case ordxml.FirstChild:
		node.Parent = target
		target.Children = append([]*xmltree.Node{node}, target.Children...)
	case ordxml.LastChild:
		target.AddChild(node)
	default:
		p := target.Parent
		idx := target.ChildIndex()
		if pos == ordxml.After {
			idx++
		}
		node.Parent = p
		p.Children = append(p.Children, nil)
		copy(p.Children[idx+1:], p.Children[idx:])
		p.Children[idx] = node
	}
}
