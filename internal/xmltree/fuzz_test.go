package xmltree

import "testing"

// FuzzParse checks that any XML the parser accepts survives a
// serialize/parse round trip on the data model.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"<a/>",
		`<a x="1"><b>text</b><c/></a>`,
		"<a>mixed <b>bold</b> tail</a>",
		"<a>&amp;&lt;&gt;</a>",
		"<a><a><a/></a></a>",
		"<a", "</a>", "", "<a></b>",
		"<a>x<!--c-->y</a>", "<a>x<![CDATA[y]]></a>", "<a> <![CDATA[x]]><?p?> </a>",
		`<a x="1&#xA;2&#x9;3&#xD;">&#xD;</a>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		n, err := ParseString(input)
		if err != nil {
			return
		}
		back, err := ParseString(n.String())
		if err != nil {
			t.Fatalf("serialized form of %q does not parse: %v", input, err)
		}
		if !Equal(n, back) {
			t.Fatalf("round trip mismatch for %q", input)
		}
	})
}
