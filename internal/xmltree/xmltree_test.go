package xmltree

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

const sample = `<site>
  <regions>
    <namerica>
      <item id="i1" featured="yes">
        <name>widget</name>
        <price>3.50</price>
        <description>A <b>bold</b> widget &amp; more</description>
      </item>
      <item id="i2"><name>gadget</name></item>
    </namerica>
    <europe/>
  </regions>
</site>`

func mustParse(t *testing.T, s string) *Node {
	t.Helper()
	n, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return n
}

func TestParseBasics(t *testing.T) {
	root := mustParse(t, sample)
	if root.Tag != "site" || root.Kind != Element {
		t.Fatalf("root = %+v", root)
	}
	regions := root.Children[0]
	if regions.Tag != "regions" || len(regions.Children) != 2 {
		t.Fatalf("regions = %+v", regions)
	}
	na := regions.Children[0]
	if len(na.Children) != 2 {
		t.Fatalf("namerica has %d children", len(na.Children))
	}
	item := na.Children[0]
	if v, ok := item.GetAttr("id"); !ok || v != "i1" {
		t.Errorf("item id = %q, %v", v, ok)
	}
	if v, ok := item.GetAttr("featured"); !ok || v != "yes" {
		t.Errorf("featured = %q, %v", v, ok)
	}
	if _, ok := item.GetAttr("nope"); ok {
		t.Error("missing attr found")
	}
	// Mixed content: description has text, element, text.
	desc := item.Children[2]
	if len(desc.Children) != 3 {
		t.Fatalf("description children = %d", len(desc.Children))
	}
	if desc.Children[0].Kind != Text || desc.Children[1].Tag != "b" || desc.Children[2].Kind != Text {
		t.Error("mixed content order lost")
	}
	if got := desc.TextContent(); got != "A bold widget & more" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestWhitespaceHandling(t *testing.T) {
	root := mustParse(t, "<a>\n  <b/>\n</a>")
	if len(root.Children) != 1 {
		t.Fatalf("whitespace text kept: %d children", len(root.Children))
	}
	kept, err := ParseWith(strings.NewReader("<a>\n  <b/>\n</a>"), ParseOptions{KeepWhitespaceText: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.Children) != 3 {
		t.Fatalf("whitespace text dropped with KeepWhitespaceText: %d children", len(kept.Children))
	}
}

// TestAdjacentTextMerges: character data between two tags is one text node
// whatever splits it — a comment, a processing instruction, a CDATA section
// — and the whitespace rule judges the merged text.
func TestAdjacentTextMerges(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"<a>x<!--c-->y</a>", "xy"},
		{"<a>x<![CDATA[y]]></a>", "xy"},
		{"<a>x<?pi z?>y<![CDATA[<z>]]></a>", "xy<z>"},
		{"<a> <![CDATA[x]]></a>", " x"},
		{"<a><![CDATA[ ]]> <!--c--> </a>", ""},
	} {
		root := mustParse(t, c.in)
		var texts []string
		for _, ch := range root.Children {
			texts = append(texts, ch.Value)
		}
		want := []string{c.want}
		if c.want == "" {
			want = nil
		}
		if !slices.Equal(texts, want) {
			t.Errorf("%s: text children %q, want %q", c.in, texts, want)
		}
	}
	root := mustParse(t, "<a>x<!--c-->y<b/>z</a>")
	if len(root.Children) != 3 || root.Children[0].Value != "xy" || root.Children[2].Value != "z" {
		t.Errorf("a tag still separates text: %v", root)
	}
}

// TestScanTextAllocations: a text node costs Scan one string whether its
// character data came in one token or several, and whitespace it drops
// costs none. The decoder itself copies each character-data token, so each
// count is taken against a document with the same tokens around no text.
func TestScanTextAllocations(t *testing.T) {
	count := func(elem string) float64 {
		src := "<r>" + strings.Repeat("\n  <e>"+elem+"</e>", 100) + "\n</r>"
		return testing.AllocsPerRun(20, func() {
			if err := Scan(strings.NewReader(src), ParseOptions{}, discard{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const nodes = 100
	// The decoder's copy of one token per node, plus Scan's string.
	whole := count("some text") - count("")
	if whole > 2*nodes+2 {
		t.Errorf("%d one-token texts cost %.0f allocations", nodes, whole)
	}
	// A second token the decoder copies, and still one string.
	for _, c := range []struct{ split, between string }{
		{"some<!--c--> text", "<!--c-->"},
		{"some<?p?> text", "<?p?>"},
		{"some<![CDATA[ text]]>", ""},
	} {
		if got := count(c.split) - count(c.between); got > whole+nodes+2 {
			t.Errorf("%d texts %q cost %.0f allocations, one-token texts %.0f", nodes, c.split, got, whole)
		}
	}
	// The decoder's copy, and no string.
	if got := count(" ") - count(""); got > nodes+2 {
		t.Errorf("%d dropped whitespace texts cost %.0f allocations", nodes, got)
	}
}

// discard is a Handler that keeps nothing.
type discard struct{}

func (discard) Start(string) error        { return nil }
func (discard) Attr(string, string) error { return nil }
func (discard) Text(string) error         { return nil }
func (discard) End(string) error          { return nil }

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"<a><b></a>",
		"<a>",
		"<a></a><b></b>",
		"not xml at all",
		"<a attr=></a>",
		"<A:0/>",       // the tree keeps the local name, and 0 is none
		"<a b:0='1'/>", // likewise for an attribute
		"<a:-b/>",
		"<x:a><x:a/><x:a x:b='1' x:0='2'/></x:a>", // after the same names, valid
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) succeeded", s)
		}
	}
}

// TestParsePrefixedNames: the tree keeps a prefixed name's local part,
// however often the name repeats.
func TestParsePrefixedNames(t *testing.T) {
	root := mustParse(t, `<p:r xmlns:p="u"><p:i p:k="1"/><p:i p:k="2">t</p:i></p:r>`)
	if got := root.String(); got != `<r><i k="1"/><i k="2">t</i></r>` {
		t.Fatalf("parsed as %s", got)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	root := mustParse(t, sample)
	out := root.String()
	back := mustParse(t, out)
	if !Equal(root, back) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", out, back.String())
	}
}

func TestSerializeEscaping(t *testing.T) {
	n := NewElement("a")
	n.AddAttr("q", `say "hi" & <bye>`)
	n.AddChild(NewText(`1 < 2 & 3 > 2`))
	out := n.String()
	want := `<a q="say &quot;hi&quot; &amp; &lt;bye&gt;">1 &lt; 2 &amp; 3 &gt; 2</a>`
	if out != want {
		t.Fatalf("escaped = %s, want %s", out, want)
	}
	back := mustParse(t, out)
	if !Equal(n, back) {
		t.Fatal("escape round trip lost data")
	}
}

func TestSelfClosing(t *testing.T) {
	n := NewElement("empty")
	n.AddAttr("a", "1")
	if got := n.String(); got != `<empty a="1"/>` {
		t.Errorf("self-closing = %s", got)
	}
}

func TestSizeAndStats(t *testing.T) {
	root := mustParse(t, sample)
	// site, regions, namerica, item(+2 attrs), name, text, price, text,
	// description, text, b, text, text, item(+1 attr), name, text, europe
	wantSize := 20
	if got := root.Size(); got != wantSize {
		t.Errorf("Size = %d, want %d", got, wantSize)
	}
	s := ComputeStats(root)
	if s.Nodes != wantSize {
		t.Errorf("Stats.Nodes = %d, want %d", s.Nodes, wantSize)
	}
	if s.Attrs != 3 || s.Elements != 11 || s.Texts != 6 {
		t.Errorf("Stats = %+v", s)
	}
	if s.MaxDepth != 7 { // site/regions/namerica/item/description/b/text
		t.Errorf("MaxDepth = %d", s.MaxDepth)
	}
	if len(s.Tags) != 9 { // site regions namerica europe item name price description b
		t.Errorf("Tags = %v", s.Tags)
	}
}

func TestChildIndexAndWalk(t *testing.T) {
	root := mustParse(t, sample)
	regions := root.Children[0]
	na := regions.Children[0]
	if na.ChildIndex() != 0 || regions.Children[1].ChildIndex() != 1 {
		t.Error("ChildIndex wrong")
	}
	if root.ChildIndex() != -1 {
		t.Error("root ChildIndex should be -1")
	}
	count := 0
	root.Walk(func(*Node) bool { count++; return true })
	if count != root.Size() {
		t.Errorf("Walk visited %d, Size = %d", count, root.Size())
	}
	// Early stop.
	count = 0
	root.Walk(func(*Node) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("Walk early stop visited %d", count)
	}
}

func TestCloneAndEqual(t *testing.T) {
	root := mustParse(t, sample)
	c := root.Clone()
	if !Equal(root, c) {
		t.Fatal("clone not equal")
	}
	if c.Parent != nil {
		t.Error("clone has a parent")
	}
	c.Children[0].Children[0].Children[0].SetAttr("id", "changed")
	if Equal(root, c) {
		t.Fatal("mutating clone affected Equal")
	}
	if v, _ := root.Children[0].Children[0].Children[0].GetAttr("id"); v != "i1" {
		t.Fatal("mutating clone affected original")
	}
}

func TestSetAttr(t *testing.T) {
	n := NewElement("e")
	n.SetAttr("a", "1")
	n.SetAttr("a", "2")
	n.SetAttr("b", "3")
	if len(n.Attrs) != 2 {
		t.Fatalf("attrs = %d", len(n.Attrs))
	}
	if v, _ := n.GetAttr("a"); v != "2" {
		t.Errorf("a = %s", v)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{Element, Attr, Text} {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("kind %v round trip: %v, %v", k, back, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind parsed")
	}
}

// randTree builds a random tree for the round-trip property test.
func randTree(r *rand.Rand, depth int) *Node {
	n := NewElement(randName(r))
	for i := r.Intn(3); i > 0; i-- {
		n.AddAttr(randName(r)+"_a", randText(r))
	}
	if depth <= 0 {
		return n
	}
	for i := r.Intn(4); i > 0; i-- {
		if r.Intn(3) == 0 {
			// Text children; avoid whitespace-only strings which the parser
			// drops, and avoid adjacent text nodes which coalesce.
			if len(n.Children) == 0 || n.Children[len(n.Children)-1].Kind != Text {
				n.AddChild(NewText("t" + randText(r)))
			}
		} else {
			n.AddChild(randTree(r, depth-1))
		}
	}
	return n
}

func randName(r *rand.Rand) string {
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	return names[r.Intn(len(names))]
}

func randText(r *rand.Rand) string {
	chars := []rune{'x', 'y', '&', '<', '>', '"', ' ', 'é', '右'}
	n := r.Intn(6)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(chars[r.Intn(len(chars))])
	}
	return sb.String()
}

// Property: serialize → parse is the identity on the data model.
func TestSerializeParseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randTree(r, 4)
		out := tree.String()
		back, err := ParseString(out)
		if err != nil {
			t.Logf("parse error on %s: %v", out, err)
			return false
		}
		return Equal(tree, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
