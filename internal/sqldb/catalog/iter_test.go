package catalog

import (
	"slices"
	"testing"

	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

func TestRowIterSnapshot(t *testing.T) {
	_, tbl := newTestTable(t)
	var rids []heap.RID
	for i := 0; i < 10; i++ {
		rid, _ := tbl.Insert(row(int64(i), "u", int64(i)))
		rids = append(rids, rid)
	}
	it := tbl.RowIter()
	// Delete a row after the snapshot: the iterator must skip it, not fail.
	if err := deleteRow(tbl, rids[5]); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		_, r, ok, err := it.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if r[0].Int() == 5 {
			t.Error("iterator returned the deleted row")
		}
		seen++
	}
	if seen != 9 {
		t.Errorf("iterator saw %d rows, want 9", seen)
	}
	// Rows inserted after the snapshot are not seen.
	it2 := tbl.RowIter()
	tbl.Insert(row(100, "new", 1))
	count := 0
	for {
		_, _, ok, err := it2.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 9 {
		t.Errorf("post-insert snapshot saw %d rows, want 9", count)
	}
}

func TestIndexIterRanges(t *testing.T) {
	c, tbl := newTestTable(t)
	ix, _ := c.CreateIndex("by_age", "users", []string{"age"}, false)
	for i := 0; i < 10; i++ {
		tbl.Insert(row(int64(i), "u", int64(i*2)))
	}
	collectDir := func(low, high *sqltypes.Value, lx, hx, desc bool) []int64 {
		var out []int64
		it := LiveData(tbl).IndexIter(ix, nil, low, high, lx, hx, desc)
		for {
			rid, ok := it.Next()
			if !ok {
				break
			}
			r, _ := tbl.Fetch(rid)
			out = append(out, r[2].Int())
		}
		return out
	}
	// Every range reads the same entries in both directions.
	collect := func(low, high *sqltypes.Value, lx, hx bool) []int64 {
		asc, desc := collectDir(low, high, lx, hx, false), collectDir(low, high, lx, hx, true)
		slices.Reverse(desc)
		if !slices.Equal(asc, desc) {
			t.Errorf("range %v..%v: ascending %v, descending reversed %v", low, high, asc, desc)
		}
		return asc
	}
	iv := func(v int64) *sqltypes.Value { x := sqltypes.NewInt(v); return &x }
	got := collect(iv(4), iv(10), false, true)
	if len(got) != 3 || got[0] != 4 || got[2] != 8 {
		t.Errorf("range [4,10) = %v", got)
	}
	if got := collect(nil, nil, false, false); len(got) != 10 {
		t.Errorf("full scan = %v", got)
	}
	if got := collectDir(iv(4), iv(10), false, false, true); !slices.Equal(got, []int64{10, 8, 6, 4}) {
		t.Errorf("descending [4,10] = %v", got)
	}
	// Exclusive low skips duplicates of the bound value.
	tbl.Insert(row(100, "dup", 4))
	got = collect(iv(4), nil, true, false)
	for _, v := range got {
		if v == 4 {
			t.Errorf("exclusive low returned bound value: %v", got)
		}
	}
}

// FetchInto decodes behind whatever the caller's buffer already holds, on the
// live table and on a published snapshot alike, and fails on a dead RID.
func TestFetchInto(t *testing.T) {
	c, tbl := newTestTable(t)
	rid, err := tbl.Insert(row(7, "u", 30))
	if err != nil {
		t.Fatal(err)
	}
	for name, td := range map[string]*TableData{"live": LiveData(tbl), "snapshot": c.BuildView().Data(tbl)} {
		buf := append(make(sqltypes.Row, 0, 8), sqltypes.NewText("left"))
		got, err := td.FetchInto(rid, buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 4 || &got[0] != &buf[0] || got[0].Text() != "left" || got[1].Int() != 7 || got[3].Int() != 30 {
			t.Errorf("%s: FetchInto = %v", name, got)
		}
	}
	if err := deleteRow(tbl, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := LiveData(tbl).FetchInto(rid, nil); err == nil {
		t.Error("FetchInto of a deleted row succeeded")
	}
}
