package ordxml

import (
	"strings"
	"testing"
)

const testDoc = `<PLAY><TITLE>Hamlet</TITLE>
<ACT><TITLE>ACT 1</TITLE>
  <SCENE><TITLE>SCENE 1</TITLE>
    <SPEECH><SPEAKER>BERNARDO</SPEAKER><LINE>Who is there?</LINE></SPEECH>
    <SPEECH><SPEAKER>FRANCISCO</SPEAKER><LINE>Nay, answer me</LINE></SPEECH>
  </SCENE>
</ACT>
<ACT><TITLE>ACT 2</TITLE>
  <SCENE><TITLE>SCENE 1</TITLE>
    <SPEECH><SPEAKER>HAMLET</SPEAKER><LINE>To be</LINE><LINE>or not to be</LINE></SPEECH>
  </SCENE>
</ACT>
</PLAY>`

func openAll(t *testing.T) []*Store {
	t.Helper()
	var stores []*Store
	for _, enc := range []Encoding{Global, Local, Dewey} {
		s, err := Open(Options{Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, s)
	}
	return stores
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{Encoding: Encoding(9)}); err == nil {
		t.Error("bad encoding accepted")
	}
	if _, err := Open(Options{Encoding: Global, DeweyAsText: true}); err == nil {
		t.Error("DeweyAsText with Global accepted")
	}
}

func TestLoadQuerySerialize(t *testing.T) {
	for _, s := range openAll(t) {
		doc, err := s.LoadString("hamlet", testDoc)
		if err != nil {
			t.Fatal(err)
		}
		speakers, err := s.QueryValues(doc, "/PLAY/ACT/SCENE/SPEECH/SPEAKER")
		if err != nil {
			t.Fatal(err)
		}
		want := "BERNARDO,FRANCISCO,HAMLET"
		if got := strings.Join(speakers, ","); got != want {
			t.Errorf("%s: speakers = %s, want %s", s.Encoding(), got, want)
		}
		// Positional query.
		lines, err := s.QueryValues(doc, "/PLAY/ACT[2]/SCENE[1]/SPEECH/LINE[2]")
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != 1 || lines[0] != "or not to be" {
			t.Errorf("%s: lines = %v", s.Encoding(), lines)
		}
		// Serialize a subtree.
		hits, err := s.Query(doc, "//SPEECH[SPEAKER = 'HAMLET']")
		if err != nil || len(hits) != 1 {
			t.Fatalf("%s: hamlet speech: %v, %v", s.Encoding(), hits, err)
		}
		xml, err := s.Serialize(doc, hits[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(xml, "<LINE>To be</LINE><LINE>or not to be</LINE>") {
			t.Errorf("%s: serialized speech = %s", s.Encoding(), xml)
		}
		// Whole document round trip.
		full, err := s.SerializeDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(full, "<TITLE>Hamlet</TITLE>") {
			t.Errorf("%s: document = %.80s", s.Encoding(), full)
		}
	}
}

func TestNodeMetadata(t *testing.T) {
	s, _ := Open(Options{Encoding: Dewey})
	doc, _ := s.LoadString("d", `<a x="1"><b>hi</b></a>`)
	nodes, err := s.Query(doc, "/a/@x")
	if err != nil || len(nodes) != 1 {
		t.Fatalf("attr query: %v, %v", nodes, err)
	}
	n := nodes[0]
	if n.Kind != AttributeNode || n.Tag != "x" || n.Value != "1" {
		t.Errorf("attr node = %+v", n)
	}
	if n.OrderKey != "1.1" {
		t.Errorf("attr OrderKey = %s", n.OrderKey)
	}
	texts, _ := s.Query(doc, "/a/b/text()")
	if len(texts) != 1 || texts[0].Kind != TextNode || texts[0].Value != "hi" {
		t.Errorf("text node = %+v", texts)
	}
	if texts[0].Kind.String() != "text" {
		t.Errorf("kind string = %s", texts[0].Kind)
	}
}

func TestUpdatesThroughAPI(t *testing.T) {
	for _, s := range openAll(t) {
		doc, _ := s.LoadString("d", `<list><item>a</item><item>c</item></list>`)
		items, _ := s.Query(doc, "/list/item")
		rep, err := s.Insert(doc, items[1].ID, Before, "<item>b</item>")
		if err != nil {
			t.Fatalf("%s: %v", s.Encoding(), err)
		}
		if rep.RowsInserted != 2 {
			t.Errorf("%s: RowsInserted = %d", s.Encoding(), rep.RowsInserted)
		}
		vals, _ := s.QueryValues(doc, "/list/item")
		if strings.Join(vals, ",") != "a,b,c" {
			t.Errorf("%s: after insert: %v", s.Encoding(), vals)
		}
		// Delete the first item.
		items, _ = s.Query(doc, "/list/item")
		if _, err := s.Delete(doc, items[0].ID); err != nil {
			t.Fatal(err)
		}
		vals, _ = s.QueryValues(doc, "/list/item")
		if strings.Join(vals, ",") != "b,c" {
			t.Errorf("%s: after delete: %v", s.Encoding(), vals)
		}
	}
}

func TestDocumentsAndDrop(t *testing.T) {
	s, _ := Open(Options{Encoding: Local})
	d1, _ := s.LoadString("one", "<a/>")
	d2, _ := s.LoadString("two", "<b><c/></b>")
	docs, err := s.Documents()
	if err != nil || len(docs) != 2 {
		t.Fatalf("Documents = %v, %v", docs, err)
	}
	if docs[0].Name != "one" || docs[1].Nodes != 2 {
		t.Errorf("docs = %+v", docs)
	}
	if err := s.Drop(d1); err != nil {
		t.Fatal(err)
	}
	docs, _ = s.Documents()
	if len(docs) != 1 || docs[0].ID != d2 {
		t.Errorf("after drop: %+v", docs)
	}
}

func TestExplainQuery(t *testing.T) {
	s, _ := Open(Options{Encoding: Dewey})
	doc, _ := s.LoadString("d", "<a><b/></a>")
	sqls, err := s.ExplainQuery(doc, "/a/b")
	if err != nil || len(sqls) != 1 {
		t.Fatalf("ExplainQuery = %v, %v", sqls, err)
	}
	if !strings.Contains(sqls[0], "xd_nodes") {
		t.Errorf("SQL = %s", sqls[0])
	}
}

func TestRawSQL(t *testing.T) {
	s, _ := Open(Options{Encoding: Global})
	doc, _ := s.LoadString("d", "<a><b/><b/></a>")
	rows, err := s.SQL("SELECT COUNT(*) FROM xg_nodes WHERE doc = ? AND tag = ?", doc, "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Values) != 1 || rows.Values[0][0] != "2" {
		t.Errorf("SQL result = %+v", rows)
	}
	if _, err := s.SQL("SELECT * FROM xg_nodes WHERE doc = ?", struct{}{}); err == nil {
		t.Error("bad arg type accepted")
	}
	if _, err := s.SQL("DELETE FROM xg_nodes"); err == nil {
		t.Error("non-SELECT accepted by SQL")
	}
}

func TestCountersAndStorage(t *testing.T) {
	s, _ := Open(Options{Encoding: Dewey})
	doc, _ := s.LoadString("d", "<a><b/><b/><b/></a>")
	before := s.Metrics().Gauges
	if got := before["storage.rows_inserted"]; got < 4 {
		t.Errorf("storage.rows_inserted = %d after loading 4 nodes", got)
	}
	if _, err := s.Query(doc, "//b"); err != nil {
		t.Fatal(err)
	}
	if d := s.Metrics().Gauges["storage.index_probes"] - before["storage.index_probes"]; d == 0 {
		t.Error("query did no index probes")
	}
	st := s.Storage()
	if st.Rows != 4 || st.HeapBytes == 0 || st.HeapPages == 0 {
		t.Errorf("storage = %+v", st)
	}
}

func TestEncodingNames(t *testing.T) {
	for _, e := range []Encoding{Global, Local, Dewey} {
		back, err := ParseEncoding(e.String())
		if err != nil || back != e {
			t.Errorf("encoding round trip %v: %v, %v", e, back, err)
		}
	}
	if _, err := ParseEncoding("nope"); err == nil {
		t.Error("bad encoding name parsed")
	}
}

func TestErrorsSurface(t *testing.T) {
	s, _ := Open(Options{Encoding: Dewey})
	if _, err := s.LoadString("bad", "<unclosed"); err == nil {
		t.Error("malformed XML loaded")
	}
	doc, _ := s.LoadString("d", "<a/>")
	if _, err := s.Query(doc, "///"); err == nil {
		t.Error("malformed XPath accepted")
	}
	if _, err := s.Serialize(doc, 999); err == nil {
		t.Error("missing node serialized")
	}
	if err := s.Drop(999); err == nil {
		t.Error("missing doc dropped")
	}
}

func TestSetValueRenameAPI(t *testing.T) {
	s, _ := Open(Options{Encoding: Dewey})
	doc, _ := s.LoadString("d", `<cfg debug="false"><level>info</level></cfg>`)
	attrs, _ := s.Query(doc, "/cfg/@debug")
	if err := s.SetValue(doc, attrs[0].ID, "true"); err != nil {
		t.Fatal(err)
	}
	texts, _ := s.Query(doc, "/cfg/level/text()")
	if err := s.SetValue(doc, texts[0].ID, "debug"); err != nil {
		t.Fatal(err)
	}
	elems, _ := s.Query(doc, "/cfg/level")
	if err := s.Rename(doc, elems[0].ID, "verbosity"); err != nil {
		t.Fatal(err)
	}
	xml, _ := s.SerializeDocument(doc)
	want := `<cfg debug="true"><verbosity>debug</verbosity></cfg>`
	if xml != want {
		t.Errorf("document = %s, want %s", xml, want)
	}
}

func TestMove(t *testing.T) {
	for _, s := range openAll(t) {
		doc, _ := s.LoadString("d",
			`<doc><a><x>1</x></a><b/><c><y>2</y></c></doc>`)
		find := func(q string) NodeID {
			hits, err := s.Query(doc, q)
			if err != nil || len(hits) != 1 {
				t.Fatalf("%s: find %s: %v (%d)", s.Encoding(), q, err, len(hits))
			}
			return hits[0].ID
		}
		// Move <c> (with its subtree) before <a>.
		rep, err := s.Move(doc, find("/doc/c"), find("/doc/a"), Before)
		if err != nil {
			t.Fatalf("%s: %v", s.Encoding(), err)
		}
		if rep.RowsDeleted != 3 || rep.RowsInserted != 3 {
			t.Errorf("%s: move report = %+v", s.Encoding(), rep)
		}
		xml, _ := s.SerializeDocument(doc)
		want := `<doc><c><y>2</y></c><a><x>1</x></a><b/></doc>`
		if xml != want {
			t.Errorf("%s: after move: %s", s.Encoding(), xml)
		}
		// Move into a child position.
		if _, err := s.Move(doc, find("/doc/b"), find("/doc/a"), FirstChild); err != nil {
			t.Fatal(err)
		}
		xml, _ = s.SerializeDocument(doc)
		want = `<doc><c><y>2</y></c><a><b/><x>1</x></a></doc>`
		if xml != want {
			t.Errorf("%s: after second move: %s", s.Encoding(), xml)
		}
		// Cyclic and self moves are rejected with the document intact.
		aID := find("/doc/a")
		if _, err := s.Move(doc, aID, find("/doc/a/x"), After); err == nil {
			t.Errorf("%s: cyclic move accepted", s.Encoding())
		}
		if _, err := s.Move(doc, aID, aID, After); err == nil {
			t.Errorf("%s: self move accepted", s.Encoding())
		}
		after, _ := s.SerializeDocument(doc)
		if after != want {
			t.Errorf("%s: rejected move mutated the document: %s", s.Encoding(), after)
		}
	}
}

func TestCheckAPI(t *testing.T) {
	for _, s := range openAll(t) {
		doc, _ := s.LoadString("d", testDoc)
		problems, err := s.Check(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != 0 {
			t.Errorf("%s: %v", s.Encoding(), problems)
		}
		// Updates keep the store consistent.
		hits, _ := s.Query(doc, "//SPEECH[1]")
		s.Insert(doc, hits[0].ID, After, "<SPEECH><SPEAKER>X</SPEAKER></SPEECH>")
		hits, _ = s.Query(doc, "//SPEECH[2]")
		s.Delete(doc, hits[0].ID)
		problems, _ = s.Check(doc)
		if len(problems) != 0 {
			t.Errorf("%s after updates: %v", s.Encoding(), problems)
		}
	}
}

// TestSerializeWritesTheTree: Serialize and SerializeDocument write, from
// the ordered rows, exactly what the publisher's tree prints: attributes in
// order, empty elements as <tag/>, text split at a CDATA section, and & < >
// (and " in attribute values) escaped. It holds on every encoding, after an
// insert too.
func TestSerializeWritesTheTree(t *testing.T) {
	const in = `<r a="x &amp; &quot;q&quot; &lt;" b="2">t1<![CDATA[c<d>&]]>t2<e/><f b="1"/><g>&amp;&lt;&gt;"</g><h><i>deep</i></h></r>`
	const want = `<r a="x &amp; &quot;q&quot; &lt;" b="2">t1c&lt;d&gt;&amp;t2<e/><f b="1"/><g>&amp;&lt;&gt;"</g><h><i>deep</i></h></r>`
	const inserted = `<r a="x &amp; &quot;q&quot; &lt;" b="2"><n k="&lt;"/>t1c&lt;d&gt;&amp;t2<e/><f b="1"/><g>&amp;&lt;&gt;"</g><h><i>deep</i></h></r>`
	for _, opts := range []Options{{Encoding: Global}, {Encoding: Local}, {Encoding: Dewey}, {Encoding: Dewey, DeweyAsText: true}, {Encoding: Global, Gap: 10}} {
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := s.LoadString("d", in)
		if err != nil {
			t.Fatal(err)
		}
		for _, wantDoc := range []string{want, inserted} {
			if wantDoc == inserted {
				if _, err := s.Insert(doc, 1, FirstChild, `<n k="&lt;"/>`); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.SerializeDocument(doc)
			if err != nil || got != wantDoc {
				t.Fatalf("%s: SerializeDocument = %s (%v), want %s", s.Encoding(), got, err, wantDoc)
			}
			tree, err := s.publisher.Document(doc)
			if err != nil || tree.String() != got {
				t.Fatalf("%s: the published tree prints %s (%v), SerializeDocument %s", s.Encoding(), tree, err, got)
			}
			var nodes []Node
			for _, q := range []string{"//*", "//text()", "//*/@a", "//*/@b", "//*/@k"} {
				hits, err := s.Query(doc, q)
				if err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, hits...)
			}
			if len(nodes) != tree.Size() {
				t.Fatalf("%s: %d nodes listed, the tree has %d", s.Encoding(), len(nodes), tree.Size())
			}
			for _, n := range nodes {
				got, err := s.Serialize(doc, n.ID)
				if err != nil {
					t.Fatal(err)
				}
				sub, err := s.publisher.Subtree(doc, n.ID)
				if err != nil || sub.String() != got {
					t.Fatalf("%s: node %d: the published subtree prints %s (%v), Serialize %s", s.Encoding(), n.ID, sub, err, got)
				}
			}
		}
	}
}
