package catalog

import (
	"fmt"
	"strings"
	"testing"

	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

func newTestTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := New()
	tbl, err := c.CreateTable("users", []Column{
		{Name: "id", Type: sqltypes.Int, NotNull: true},
		{Name: "name", Type: sqltypes.Text},
		{Name: "age", Type: sqltypes.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl
}

func row(id int64, name string, age int64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewText(name), sqltypes.NewInt(age)}
}

func TestCreateTableErrors(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", nil); err == nil {
		t.Error("empty table created")
	}
	c.CreateTable("t", []Column{{Name: "a", Type: sqltypes.Int}})
	if _, err := c.CreateTable("t", []Column{{Name: "a", Type: sqltypes.Int}}); err == nil {
		t.Error("duplicate table created")
	}
	if _, err := c.CreateTable("u", []Column{
		{Name: "a", Type: sqltypes.Int}, {Name: "a", Type: sqltypes.Int},
	}); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestInsertFetch(t *testing.T) {
	_, tbl := newTestTable(t)
	rid, err := tbl.Insert(row(1, "ann", 30))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Fetch(rid)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Text() != "ann" || got[2].Int() != 30 {
		t.Fatalf("Fetch = %v", got)
	}
}

func TestInsertCoercionAndNotNull(t *testing.T) {
	_, tbl := newTestTable(t)
	// Text "42" coerces into INT column.
	rid, err := tbl.Insert(sqltypes.Row{sqltypes.NewText("42"), sqltypes.NewText("b"), sqltypes.NullValue()})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tbl.Fetch(rid)
	if got[0].Int() != 42 || !got[2].IsNull() {
		t.Fatalf("coerced row = %v", got)
	}
	// NULL into NOT NULL column.
	if _, err := tbl.Insert(sqltypes.Row{sqltypes.NullValue(), sqltypes.NewText("x"), sqltypes.NewInt(1)}); err == nil {
		t.Error("NOT NULL violation accepted")
	}
	// Arity mismatch.
	if _, err := tbl.Insert(sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
	// Bad coercion.
	if _, err := tbl.Insert(sqltypes.Row{sqltypes.NewText("nope"), sqltypes.NewText("x"), sqltypes.NewInt(1)}); err == nil {
		t.Error("uncoercible value accepted")
	}
}

func TestUniqueIndex(t *testing.T) {
	c, tbl := newTestTable(t)
	if _, err := c.CreateIndex("users_pk", "users", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(row(1, "ann", 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(row(1, "bob", 40)); err == nil {
		t.Error("duplicate key accepted")
	}
	if tbl.RowCount() != 1 {
		t.Errorf("RowCount = %d after rejected insert", tbl.RowCount())
	}
	// Update to a conflicting key must fail, non-conflicting must pass.
	rid2, _ := tbl.Insert(row(2, "bob", 40))
	if _, err := updateRow(tbl, rid2, row(1, "bob", 40)); err == nil {
		t.Error("update to duplicate key accepted")
	}
	if _, err := updateRow(tbl, rid2, row(2, "bob", 41)); err != nil {
		t.Errorf("self-conflicting update rejected: %v", err)
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	c, tbl := newTestTable(t)
	ix, _ := c.CreateIndex("by_age", "users", []string{"age"}, false)
	var rids []heap.RID
	for i := 0; i < 10; i++ {
		rid, _ := tbl.Insert(row(int64(i), fmt.Sprintf("u%d", i), int64(i%3)))
		rids = append(rids, rid)
	}
	if err := deleteRow(tbl, rids[4]); err != nil {
		t.Fatal(err)
	}
	count := 0
	tbl.IndexScan(ix, nil, nil, nil, false, false, func(heap.RID) bool { count++; return true })
	if count != 9 {
		t.Errorf("index has %d entries after delete, want 9", count)
	}
	if _, err := tbl.Fetch(rids[4]); err == nil {
		t.Error("deleted row still fetchable")
	}
}

func TestUpdateMovesIndexEntries(t *testing.T) {
	c, tbl := newTestTable(t)
	ix, _ := c.CreateIndex("by_age", "users", []string{"age"}, false)
	rid, _ := tbl.Insert(row(1, "ann", 30))
	nrid, err := updateRow(tbl, rid, row(1, "ann", 35))
	if err != nil {
		t.Fatal(err)
	}
	// Old key gone, new key present.
	for _, probe := range []struct {
		age  int64
		want int
	}{{30, 0}, {35, 1}} {
		count := 0
		v := sqltypes.NewInt(probe.age)
		tbl.IndexScan(ix, []sqltypes.Value{v}, nil, nil, false, false,
			func(got heap.RID) bool {
				if got != nrid {
					t.Errorf("index points at %v, row is at %v", got, nrid)
				}
				count++
				return true
			})
		if count != probe.want {
			t.Errorf("age=%d has %d entries, want %d", probe.age, count, probe.want)
		}
	}
}

func TestIndexScanRanges(t *testing.T) {
	c, tbl := newTestTable(t)
	ix, _ := c.CreateIndex("by_age", "users", []string{"age"}, false)
	for i := 0; i < 20; i++ {
		tbl.Insert(row(int64(i), "x", int64(i)))
	}
	collect := func(low, high *sqltypes.Value, lx, hx bool) []int64 {
		var ages []int64
		tbl.IndexScan(ix, nil, low, high, lx, hx, func(rid heap.RID) bool {
			r, _ := tbl.Fetch(rid)
			ages = append(ages, r[2].Int())
			return true
		})
		return ages
	}
	iv := func(i int64) *sqltypes.Value { v := sqltypes.NewInt(i); return &v }
	check := func(got []int64, from, to int64) {
		t.Helper()
		want := []int64{}
		for i := from; i <= to; i++ {
			want = append(want, i)
		}
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}
	check(collect(iv(5), iv(10), false, false), 5, 10)
	check(collect(iv(5), iv(10), true, false), 6, 10)
	check(collect(iv(5), iv(10), false, true), 5, 9)
	check(collect(iv(5), iv(10), true, true), 6, 9)
	check(collect(iv(15), nil, false, false), 15, 19)
	check(collect(nil, iv(3), false, false), 0, 3)
	check(collect(nil, nil, false, false), 0, 19)
}

func TestIndexScanEqualityPrefix(t *testing.T) {
	c := New()
	tbl, _ := c.CreateTable("t", []Column{
		{Name: "a", Type: sqltypes.Int},
		{Name: "b", Type: sqltypes.Int},
	})
	ix, _ := c.CreateIndex("ab", "t", []string{"a", "b"}, false)
	for a := 0; a < 3; a++ {
		for b := 0; b < 5; b++ {
			tbl.Insert(sqltypes.Row{sqltypes.NewInt(int64(a)), sqltypes.NewInt(int64(b))})
		}
	}
	// a=1 AND b in [2,3]
	lo, hi := sqltypes.NewInt(2), sqltypes.NewInt(3)
	var got [][2]int64
	tbl.IndexScan(ix, []sqltypes.Value{sqltypes.NewInt(1)}, &lo, &hi, false, false, func(rid heap.RID) bool {
		r, _ := tbl.Fetch(rid)
		got = append(got, [2]int64{r[0].Int(), r[1].Int()})
		return true
	})
	if len(got) != 2 || got[0] != [2]int64{1, 2} || got[1] != [2]int64{1, 3} {
		t.Fatalf("composite range scan = %v", got)
	}
}

func TestCreateIndexOnExistingData(t *testing.T) {
	c, tbl := newTestTable(t)
	for i := 0; i < 10; i++ {
		tbl.Insert(row(int64(i), "x", int64(i)))
	}
	ix, err := c.CreateIndex("late", "users", []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Len() != 10 {
		t.Errorf("backfilled index has %d entries", ix.Tree.Len())
	}
	// Backfill must detect uniqueness violations.
	tbl2, _ := c.CreateTable("dups", []Column{{Name: "v", Type: sqltypes.Int}})
	tbl2.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	tbl2.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	if _, err := c.CreateIndex("dup_ix", "dups", []string{"v"}, true); err == nil {
		t.Error("unique index built over duplicate data")
	}
}

func TestCreateIndexErrors(t *testing.T) {
	c, _ := newTestTable(t)
	if _, err := c.CreateIndex("i", "missing", []string{"id"}, false); err == nil {
		t.Error("index on missing table created")
	}
	if _, err := c.CreateIndex("i", "users", []string{"bogus"}, false); err == nil {
		t.Error("index on missing column created")
	}
	c.CreateIndex("i", "users", []string{"id"}, false)
	if _, err := c.CreateIndex("i", "users", []string{"age"}, false); err == nil {
		t.Error("duplicate index name accepted")
	}
}

func TestDropTableAndIndex(t *testing.T) {
	c, _ := newTestTable(t)
	c.CreateIndex("i", "users", []string{"id"}, false)
	if err := c.DropIndex("i"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("i"); err == nil {
		t.Error("double drop index succeeded")
	}
	if err := c.DropTable("users"); err != nil {
		t.Fatal(err)
	}
	if c.Table("users") != nil {
		t.Error("dropped table still visible")
	}
	if err := c.DropTable("users"); err == nil {
		t.Error("double drop table succeeded")
	}
}

func TestCounters(t *testing.T) {
	c, tbl := newTestTable(t)
	ix, _ := c.CreateIndex("by_age", "users", []string{"age"}, false)
	rid, _ := tbl.Insert(row(1, "a", 10))
	tbl.Insert(row(2, "b", 20))
	updateRow(tbl, rid, row(1, "a", 11))
	tbl.Scan(func(heap.RID, sqltypes.Row) bool { return true })
	tbl.IndexScan(ix, nil, nil, nil, false, false, func(heap.RID) bool { return true })
	k := &c.Counters
	if k.RowsInserted.Load() != 2 || k.RowsUpdated.Load() != 1 || k.RowsScanned.Load() != 2 || k.IndexProbes.Load() != 2 {
		t.Errorf("counters: %d inserted, %d updated, %d scanned, %d probed; want 2, 1, 2, 2",
			k.RowsInserted.Load(), k.RowsUpdated.Load(), k.RowsScanned.Load(), k.IndexProbes.Load())
	}
}

func TestTableNames(t *testing.T) {
	c := New()
	c.CreateTable("zeta", []Column{{Name: "a", Type: sqltypes.Int}})
	c.CreateTable("alpha", []Column{{Name: "a", Type: sqltypes.Int}})
	got := strings.Join(c.TableNames(), ",")
	if got != "alpha,zeta" {
		t.Errorf("TableNames = %s", got)
	}
}

// bulkTable creates a table shaped like the node tables: a unique pkey plus
// a non-unique secondary whose keys arrive out of row order.
func bulkTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c, tbl := newTestTable(t)
	if _, err := c.CreateIndex("users_pkey", "users", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("users_name", "users", []string{"name"}, false); err != nil {
		t.Fatal(err)
	}
	return c, tbl
}

// TestBulkInsertMatchesInsert: a bulk batch must leave table and indexes in
// the same observable state as row-at-a-time Insert, for both presorted and
// shuffled key orders.
func TestBulkInsertMatchesInsert(t *testing.T) {
	_, bulk := bulkTable(t)
	_, ref := bulkTable(t)

	const n = 500
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		// id ascending (presorted for the pkey), name descending (forces the
		// permutation-sort path on the secondary index).
		rows[i] = row(int64(i), fmt.Sprintf("name-%04d", n-i), int64(i%90))
	}
	rids, err := bulk.BulkInsert(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != n {
		t.Fatalf("got %d rids", len(rids))
	}
	for _, r := range rows {
		if _, err := ref.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	for _, tbl := range []*Table{bulk, ref} {
		if tbl.RowCount() != n {
			t.Fatalf("RowCount = %d", tbl.RowCount())
		}
	}
	// RIDs come back in row order and resolve to their rows.
	for i, rid := range rids {
		got, err := bulk.Fetch(rid)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Int() != int64(i) {
			t.Fatalf("rid %d fetches id %d", i, got[0].Int())
		}
	}
	// Both indexes agree with the reference table, in order.
	for _, ixName := range []string{"users_pkey", "users_name"} {
		var a, b []string
		scan := func(tbl *Table, out *[]string) {
			var ix *Index
			for _, cand := range tbl.Indexes {
				if cand.Name == ixName {
					ix = cand
				}
			}
			tbl.IndexScan(ix, nil, nil, nil, false, false, func(rid heap.RID) bool {
				r, err := tbl.Fetch(rid)
				if err != nil {
					t.Fatal(err)
				}
				*out = append(*out, fmt.Sprintf("%d|%s", r[0].Int(), r[1].Text()))
				return true
			})
		}
		scan(bulk, &a)
		scan(ref, &b)
		if len(a) != n || len(b) != n {
			t.Fatalf("%s: scans returned %d and %d entries", ixName, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s entry %d: %s != %s", ixName, i, a[i], b[i])
			}
		}
	}
}

// TestBulkInsertIntoPopulatedTable exercises the trickle path: the target
// indexes already hold rows, so the batch inserts key by key.
func TestBulkInsertIntoPopulatedTable(t *testing.T) {
	_, tbl := bulkTable(t)
	if _, err := tbl.Insert(row(1000, "pre", 1)); err != nil {
		t.Fatal(err)
	}
	rows := []sqltypes.Row{row(1, "a", 1), row(2, "b", 2), row(3, "c", 3)}
	if _, err := tbl.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 4 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
	// Unique violation against the pre-existing row must reject the whole
	// batch.
	before := tbl.RowCount()
	if _, err := tbl.BulkInsert([]sqltypes.Row{row(50, "x", 0), row(1000, "dup", 0)}); err == nil {
		t.Fatal("duplicate against existing row succeeded")
	}
	if tbl.RowCount() != before {
		t.Fatalf("failed batch changed RowCount to %d", tbl.RowCount())
	}
}

// TestBulkInsertCoercion: bulk rows go through the same coercion and NOT
// NULL checks as Insert.
func TestBulkInsertCoercion(t *testing.T) {
	_, tbl := newTestTable(t)
	rows := []sqltypes.Row{
		{sqltypes.NewText("7"), sqltypes.NewText("seven"), sqltypes.NewInt(1)},
	}
	if _, err := tbl.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	var got int64
	tbl.Scan(func(_ heap.RID, r sqltypes.Row) bool { got = r[0].Int(); return true })
	if got != 7 {
		t.Fatalf("coerced id = %d", got)
	}
	if _, err := tbl.BulkInsert([]sqltypes.Row{{sqltypes.NullValue(), sqltypes.NewText("x"), sqltypes.NewInt(1)}}); err == nil {
		t.Fatal("NULL id accepted")
	}
	if _, err := tbl.BulkInsert([]sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewText("x")}}); err == nil {
		t.Fatal("short row accepted")
	}
}

// TestBulkInsertDistributesOrSorts: a batch whose keys interleave runs that
// ascend within each value of the index's first varying column is put in
// order by the distribution pass alone; a batch with a run out of order
// falls back to the sort. Either way the indexes end as row-at-a-time
// Insert leaves them, and a duplicate key is reported with one message.
func TestBulkInsertDistributesOrSorts(t *testing.T) {
	table := func() *Table {
		c, tbl := newTestTable(t)
		if _, err := c.CreateIndex("users_group", "users", []string{"age", "id"}, true); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateIndex("users_name", "users", []string{"name"}, false); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	// batch interleaves 7 groups (age): within one, ids ascend or descend.
	// Dense groups span fewer values than the batch has rows, sparse ones
	// more; sparse groups, and the 5 names, first appear in ascending or
	// descending order.
	batch := func(descendingIDs, sparse, descendingGroups bool) []sqltypes.Row {
		const n = 300
		rows := make([]sqltypes.Row, n)
		for i := range rows {
			id, group, name := int64(i), int64(i%7), i%5
			if descendingIDs {
				id = int64(n - i)
			}
			if descendingGroups {
				group, name = 6-group, 4-name
			}
			if sparse {
				group *= 1000
			}
			rows[i] = row(id, fmt.Sprintf("tag-%d", name), group)
		}
		return rows
	}
	type batchCase struct {
		name        string
		rows        []sqltypes.Row
		distributed bool // the distribution pass alone orders users_group
		err         string
	}
	var cases []batchCase
	for _, sparse := range []bool{false, true} {
		for _, descendingGroups := range []bool{false, true} {
			shape := fmt.Sprintf("sparse=%v descending groups=%v", sparse, descendingGroups)
			cases = append(cases,
				batchCase{"ascending runs " + shape, batch(false, sparse, descendingGroups), true, ""},
				batchCase{"descending runs " + shape, batch(true, sparse, descendingGroups), false, ""})
		}
	}
	for _, c := range append(cases,
		batchCase{"duplicate in an ascending run", []sqltypes.Row{row(1, "a", 0), row(5, "b", 1), row(2, "c", 0), row(5, "d", 1)}, true,
			"unique index users_group: duplicate key (1, 5) within batch"},
		batchCase{"duplicate in a descending run", []sqltypes.Row{row(3, "a", 1), row(9, "b", 0), row(1, "c", 1), row(3, "d", 1)}, false,
			"unique index users_group: duplicate key (1, 3) within batch"},
	) {
		t.Run(c.name, func(t *testing.T) {
			bulk, ref := table(), table()
			ix := bulk.Indexes[0]
			keys := make([][]byte, len(c.rows))
			for i, r := range c.rows {
				keys[i] = ix.keyFor(r, heap.RID{})
			}
			perm := distribute(ix, c.rows, keys)
			ordered := perm != nil
			for i := 1; ordered && i < len(perm); i++ {
				ordered = string(keys[perm[i-1]]) <= string(keys[perm[i]])
			}
			if ordered != c.distributed {
				t.Fatalf("distribution ordered the keys: %v, want %v", ordered, c.distributed)
			}
			_, err := bulk.BulkInsert(c.rows)
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Fatalf("BulkInsert error %v, want %q", err, c.err)
				}
				if bulk.RowCount() != 0 {
					t.Fatalf("a rejected batch stored %d rows", bulk.RowCount())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range c.rows {
				if _, err := ref.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			for x := range bulk.Indexes {
				scan := func(tbl *Table) (out []string) {
					tbl.IndexScan(tbl.Indexes[x], nil, nil, nil, false, false, func(rid heap.RID) bool {
						r, err := tbl.Fetch(rid)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, fmt.Sprintf("%d|%s|%d", r[0].Int(), r[1].Text(), r[2].Int()))
						return true
					})
					return out
				}
				if a, b := scan(bulk), scan(ref); strings.Join(a, " ") != strings.Join(b, " ") || len(a) != len(c.rows) {
					t.Fatalf("%s: bulk %v, row at a time %v", bulk.Indexes[x].Name, a, b)
				}
			}
		})
	}
}
