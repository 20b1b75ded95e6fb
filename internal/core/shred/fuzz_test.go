package shred

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ordxml/internal/core/encoding"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/sqlgen"
	"ordxml/internal/xmltree"
)

// FuzzLoadEvents is the differential test of the two ways into the node
// table: for any input, Load, which shreds the token stream, stores exactly
// the rows Rows builds from the tree xmltree parses, row for row, and the
// two reject the same inputs. It runs on every encoding at gap 1 and 10. The
// seeds are xmltree's FuzzParse seeds (its list and its corpus) and, in
// testdata, text split by a CDATA section and a comment, which FuzzParse's
// round trip cannot take: the split text prints as one.
//
// It also checks that a store survives its own serialization: the document
// published as XML text and loaded into a fresh store gives the same rows.
// That holds because the parser merges all character data between two tags
// into one text node, as the publisher writes adjacent text back as one.
func FuzzLoadEvents(f *testing.F) {
	for _, seed := range []string{ // FuzzParse's list
		"<a/>",
		`<a x="1"><b>text</b><c/></a>`,
		"<a>mixed <b>bold</b> tail</a>",
		"<a>&amp;&lt;&gt;</a>",
		"<a><a><a/></a></a>",
		"<a", "</a>", "", "<a></b>",
	} {
		f.Add(seed)
	}
	files, err := filepath.Glob("../../xmltree/testdata/fuzz/FuzzParse/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("xmltree's FuzzParse corpus: %d files, %v", len(files), err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		_, quoted, _ := strings.Cut(strings.TrimSpace(string(b)), "\nstring(")
		seed, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		f.Add(seed)
	}
	var configs []encoding.Options
	for _, gap := range []uint32{1, 10} {
		configs = append(configs,
			encoding.Options{Kind: encoding.Global, Gap: gap},
			encoding.Options{Kind: encoding.Local, Gap: gap},
			encoding.Options{Kind: encoding.Dewey, Gap: gap},
			encoding.Options{Kind: encoding.Dewey, Gap: gap, DeweyAsText: true})
	}
	f.Fuzz(func(t *testing.T, input string) {
		tree, perr := xmltree.ParseString(input)
		for _, opts := range configs {
			db, s, p := newStore(t, opts)
			doc, lerr := s.Load("f", strings.NewReader(input))
			want, werr := []sqltypes.Row(nil), perr
			if perr == nil {
				want, werr = Rows(opts, 1, tree, s.docStart())
			}
			if werr == nil && lerr != nil {
				// Parse and walk accept the input; storage may still refuse
				// its rows (a key over the size limit), and must then refuse
				// them from the tree too.
				_, ref, _ := newStore(t, opts)
				if _, err := ref.LoadTree("f", tree); err == nil {
					t.Fatalf("%s: Load of %q fails (%v), LoadTree of its tree does not", optName(opts), input, lerr)
				}
				continue
			}
			if (lerr == nil) != (werr == nil) {
				t.Fatalf("%s: Load of %q: %v; parse and Rows: %v", optName(opts), input, lerr, werr)
			}
			if lerr != nil {
				continue
			}
			got := storedRows(t, db, opts, doc)
			if len(got) != len(want) {
				t.Fatalf("%s: Load of %q stored %d rows, Rows builds %d", optName(opts), input, len(got), len(want))
			}
			for i := range got {
				if g, w := rowString(got[i]), rowString(want[i]); g != w {
					t.Fatalf("%s: Load of %q, row %d: stored %s, Rows %s", optName(opts), input, i, g, w)
				}
			}
			var text strings.Builder
			if err := p.EmitDocument(context.Background(), nil, doc, xmltree.NewWriter(&text)); err != nil {
				t.Fatalf("%s: serializing %q: %v", optName(opts), input, err)
			}
			db2, s2, _ := newStore(t, opts)
			doc2, err := s2.Load("f", strings.NewReader(text.String()))
			if err != nil {
				t.Fatalf("%s: %q serializes as %q, which does not load: %v", optName(opts), input, text.String(), err)
			}
			again := storedRows(t, db2, opts, doc2)
			if len(again) != len(got) {
				t.Fatalf("%s: %q serializes as %q, which loads %d rows, not %d", optName(opts), input, text.String(), len(again), len(got))
			}
			for i := range got {
				if g, a := rowString(got[i]), rowString(again[i]); g != a {
					t.Fatalf("%s: %q serializes as %q; row %d was %s, loads back as %s", optName(opts), input, text.String(), i, g, a)
				}
			}
		}
	})
}

// storedRows reads a document's rows in id order, columns in the node
// table's order.
func storedRows(t *testing.T, db *sqldb.DB, opts encoding.Options, doc int64) []sqltypes.Row {
	t.Helper()
	res, err := db.Query(sqlgen.SQL(`SELECT doc, id, parent, kind, tag, value, %s FROM %s WHERE doc = ? ORDER BY id`,
		opts.OrderColumn(), opts.NodesTable()), sqldb.I(doc))
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// rowString renders each value with its type, so two rows render alike only
// when their values are equal and of one type.
func rowString(r sqltypes.Row) string {
	var sb strings.Builder
	for _, v := range r {
		fmt.Fprintf(&sb, "%v:%q ", v.Type(), v.String())
	}
	return sb.String()
}
