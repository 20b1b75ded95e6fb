package catalog

import (
	"testing"

	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

// updateRow runs a one-row UPDATE statement.
func updateRow(t *Table, rid heap.RID, r sqltypes.Row) (heap.RID, error) {
	w := t.BeginWrite()
	nrid, err := w.Update(rid, r)
	return nrid, w.Finish(err)
}

// deleteRow runs a one-row DELETE statement.
func deleteRow(t *Table, rid heap.RID) error {
	w := t.BeginWrite()
	return w.Finish(w.Delete(rid))
}

// ids lists the id column in unique-index order, and checks that every index
// entry points at a live row holding its key.
func ids(t *testing.T, tbl *Table, ix *Index) []int64 {
	t.Helper()
	if probs := tbl.Validate(); len(probs) > 0 {
		t.Fatalf("table invalid: %v", probs)
	}
	var out []int64
	tbl.IndexScan(ix, nil, nil, nil, false, false, func(rid heap.RID) bool {
		r, err := tbl.Fetch(rid)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r[0].Int())
		return true
	})
	return out
}

// A collision parked by one row is resolved when a later row of the same
// statement vacates the key; a collision that outlives the statement undoes
// every row, including a delete and an insert applied before it.
func TestWriteParksThenUndoes(t *testing.T) {
	c, tbl := newTestTable(t)
	pk, _ := c.CreateIndex("pk", "users", []string{"id"}, true)
	c.CreateIndex("by_age", "users", []string{"age"}, false)
	var rids []heap.RID
	for i := int64(1); i <= 3; i++ {
		rid, err := tbl.Insert(row(i, "u", i*10))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}

	// Ascending k = k + 1: row 1 parks on 2, row 2 parks on 3, row 3 frees it.
	w := tbl.BeginWrite()
	for i, rid := range rids {
		nrid, err := w.Update(rid, row(int64(i+2), "u", int64(i+2)*10))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = nrid
	}
	if len(w.parked) != 2 {
		t.Errorf("parked %d keys, want 2", len(w.parked))
	}
	if err := w.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if got := ids(t, tbl, pk); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("after k+1: %v", got)
	}

	before := ids(t, tbl, pk)
	w = tbl.BeginWrite()
	if err := w.Insert(row(9, "new", 90)); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete(rids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Update(rids[1], row(4, "u", 40)); err != nil { // 3 -> 4 collides with row 4
		t.Fatal(err)
	}
	if err := w.Finish(nil); err == nil {
		t.Fatal("duplicate key survived Finish")
	}
	if got := ids(t, tbl, pk); len(got) != len(before) || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("after rollback: %v, want %v", got, before)
	}
	if n := tbl.RowCount(); n != 3 {
		t.Errorf("RowCount after rollback = %d, want 3", n)
	}
}
