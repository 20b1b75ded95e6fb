package ordxml

import (
	"errors"
	"fmt"
	"testing"

	"ordxml/internal/core/dewey"
)

// deweyRangeCases are gaps whose second sibling ordinal the codec cannot
// hold: 2 × 200,000,000 is past the binary codec's MaxComponent, and
// 2 × 60,000,000 needs nine digits, one more than the padded codec's width.
var deweyRangeCases = []struct {
	name string
	opts Options
}{
	{"binary", Options{Encoding: Dewey, Gap: 200_000_000}},
	{"text", Options{Encoding: Dewey, DeweyAsText: true, Gap: 60_000_000}},
}

// rawRows dumps a store's node table, order keys included.
func rawRows(t *testing.T, s *Store) string {
	t.Helper()
	rows, err := s.SQL("SELECT doc, id, parent, kind, tag, value, " + s.opts.OrderColumn() +
		" FROM " + s.opts.NodesTable() + " ORDER BY doc, id")
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(rows.Values)
}

// TestLoadAndAppendBuildSameRows: loading <r>A B</r> and loading <r>A</r>
// then appending B as the root's last child store the same node rows — ids,
// parents, kinds, tags, values and order keys — on every encoding and gap.
func TestLoadAndAppendBuildSameRows(t *testing.T) {
	const a = `<a n="1">one<c/></a>`
	const b = `<b k="v" m="w">two<c><d x="y">three</d><e/></c>tail</b>`
	for _, enc := range ledgerEncodings {
		for _, gap := range []uint32{1, 10} {
			t.Run(fmt.Sprintf("%s/gap=%d", enc, gap), func(t *testing.T) {
				opts := ledgerOptions(enc)
				opts.Gap = gap
				loaded, _ := loadedStore(t, opts, "mem", "<r>"+a+b+"</r>")
				appended, doc := loadedStore(t, opts, "mem", "<r>"+a+"</r>")
				if _, err := appended.Insert(doc, 1, LastChild, b); err != nil {
					t.Fatal(err)
				}
				if got, want := rawRows(t, appended), rawRows(t, loaded); got != want {
					t.Fatalf("append built\n%s\nload built\n%s", got, want)
				}
			})
		}
	}
}

// mustRangeErr fails the test unless err is the codec's range error.
func mustRangeErr(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, dewey.ErrRange) {
		t.Fatalf("%s: error %v, want a Dewey range error", what, err)
	}
}

// TestDeweyComponentOutOfRange: a sibling ordinal the Dewey codec cannot
// hold is an error — at load, at insert, and for an inserted fragment's own
// children — never a panic or a key that sorts out of document order, and
// the failed operation leaves the store as it was.
func TestDeweyComponentOutOfRange(t *testing.T) {
	for _, c := range deweyRangeCases {
		t.Run(c.name, func(t *testing.T) {
			s, doc := loadedStore(t, c.opts, "mem", "<r><a/></r>")
			want, wantRows := fingerprint(t, s), rawRows(t, s)
			unchanged := func(what string) {
				t.Helper()
				if got := fingerprint(t, s); got != want {
					t.Fatalf("%s changed the documents:\n%s\nwant\n%s", what, got, want)
				}
				if got := rawRows(t, s); got != wantRows {
					t.Fatalf("%s changed the stored rows:\n%s\nwant\n%s", what, got, wantRows)
				}
				mustIntact(t, s)
			}

			_, err := s.Insert(doc, 1, LastChild, "<b/>")
			mustRangeErr(t, "append a second child", err)
			unchanged("the failed append")

			a, err := s.Query(doc, "/r/a")
			if err != nil || len(a) != 1 {
				t.Fatalf("/r/a: %v, %v", a, err)
			}
			_, err = s.Insert(doc, a[0].ID, LastChild, "<x><y/><z/></x>")
			mustRangeErr(t, "insert a fragment with two children", err)
			unchanged("the failed fragment insert")

			_, err = s.LoadString("e", "<r><a/><b/></r>")
			mustRangeErr(t, "load a document with two children", err)
			unchanged("the failed load")
		})
	}
}

// TestDeweyShiftOverflowFailsWhole: once midpoint inserts exhaust the gap
// before the first child, the next insert must shift every sibling by the
// gap, which pushes the last one past the codec's range. The insert fails
// as one statement and leaves the store as it was.
func TestDeweyShiftOverflowFailsWhole(t *testing.T) {
	for _, opts := range []Options{
		{Encoding: Dewey, Gap: 100_000_000},                   // last sibling 2e8 + 1e8 > MaxComponent
		{Encoding: Dewey, DeweyAsText: true, Gap: 40_000_000}, // last sibling 8e7 + 4e7 > 10^8 - 1
	} {
		t.Run(fmt.Sprintf("text=%v", opts.DeweyAsText), func(t *testing.T) {
			s, doc := loadedStore(t, opts, "mem", "<r><a><t>x</t></a><b><t>y</t></b></r>")
			for i := 0; ; i++ {
				if i == 64 {
					t.Fatal("64 inserts before the first child never exhausted the gap")
				}
				first, err := s.Query(doc, "/r/*[1]")
				if err != nil || len(first) != 1 {
					t.Fatalf("/r/*[1]: %v, %v", first, err)
				}
				want, wantRows := fingerprint(t, s), rawRows(t, s)
				rep, err := s.Insert(doc, first[0].ID, Before, "<n/>")
				if err == nil {
					if rep.RowsRenumbered != 0 {
						t.Fatalf("insert %d renumbered %d rows without overflowing", i, rep.RowsRenumbered)
					}
					continue
				}
				mustRangeErr(t, "the overflowing shift", err)
				if got := fingerprint(t, s); got != want {
					t.Fatalf("the failed shift changed the documents:\n%s\nwant\n%s", got, want)
				}
				if got := rawRows(t, s); got != wantRows {
					t.Fatalf("the failed shift changed the stored rows:\n%s\nwant\n%s", got, wantRows)
				}
				mustIntact(t, s)
				return
			}
		})
	}
}

// TestDeweyShiftStatementUndo: DEWEY_SHIFT failing on the last row a
// statement applies undoes the rows it already rewrote. The statement
// applies rows in reverse key order, so shifting the root's children down
// by one writes every child but the first before the first fails at zero.
func TestDeweyShiftStatementUndo(t *testing.T) {
	for _, opts := range []Options{{Encoding: Dewey}, {Encoding: Dewey, DeweyAsText: true}} {
		s, doc := loadedStore(t, opts, "mem", "<r><a>1</a><b>2</b><c>3</c><d>4</d></r>")
		want, wantRows := fingerprint(t, s), rawRows(t, s)
		table := "xd_nodes"
		if opts.DeweyAsText {
			table = "xs_nodes"
		}
		n, err := s.Exec("UPDATE "+table+" SET path = DEWEY_SHIFT(path, 1, -1) WHERE doc = ? AND parent = ?", doc, 1)
		mustRangeErr(t, "shift the first child to zero", err)
		if n != 0 {
			t.Errorf("failed statement reported %d rows", n)
		}
		if got := fingerprint(t, s); got != want {
			t.Fatalf("text=%v: the failed statement changed the documents:\n%s\nwant\n%s", opts.DeweyAsText, got, want)
		}
		if got := rawRows(t, s); got != wantRows {
			t.Fatalf("text=%v: the failed statement changed the stored rows:\n%s\nwant\n%s", opts.DeweyAsText, got, wantRows)
		}
		mustIntact(t, s)
	}
}
