package catalog

import (
	"sort"

	"ordxml/internal/sqldb/btree"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

// TableData is a point-in-time readable view of one table's storage: either
// the live heap and trees (writer side, under the engine's write lock) or
// immutable copy-on-write snapshots (reader side, no lock). Query operators
// read rows exclusively through a TableData so the same operator tree serves
// both sides.
type TableData struct {
	t *Table
	// indexes is the table's index list captured at publish time; the live
	// t.Indexes may change under concurrent DDL.
	indexes []*Index
	heap    *heap.Snapshot // nil → read the live heap
	// trees maps each index to its snapshot; nil → read the live trees.
	trees map[*Index]*btree.Snapshot
	// counters receives the rows scanned and index entries visited through
	// this view; nil for an unmetered view.
	counters *Counters
}

// LiveData returns a TableData that reads the table's live storage. Only
// safe where table mutations are excluded (the engine's writer lock).
func LiveData(t *Table) *TableData { return &TableData{t: t, counters: t.counters} }

// snapshotData publishes immutable snapshots of the table's heap and index
// trees. Must run on the writer side; snapshots are cached by the storage
// layer, so an unchanged table costs a few pointer loads.
func (t *Table) snapshotData() *TableData {
	td := &TableData{t: t, indexes: t.Indexes, heap: t.Heap.Snapshot(), counters: t.counters}
	if len(t.Indexes) > 0 {
		td.trees = make(map[*Index]*btree.Snapshot, len(t.Indexes))
		for _, ix := range t.Indexes {
			td.trees[ix] = ix.Tree.Snapshot()
		}
	}
	return td
}

// Table returns the schema object this data belongs to.
func (td *TableData) Table() *Table { return td.t }

// Indexes returns the table's indexes as of this view. Callers must not
// mutate the slice.
func (td *TableData) Indexes() []*Index {
	if td.heap != nil {
		return td.indexes
	}
	return td.t.Indexes
}

// RowCount returns the number of live rows in the view.
func (td *TableData) RowCount() int {
	if td.heap != nil {
		return td.heap.Rows()
	}
	return td.t.RowCount()
}

// HeapStats returns heap occupancy for the view.
func (td *TableData) HeapStats() heap.Stats {
	if td.heap != nil {
		return td.heap.Stats()
	}
	return td.t.Heap.Stats()
}

// FetchInto decodes the row at rid, appending its values to dst (see
// sqltypes.DecodeRowInto): operators fetch every row into one buffer of
// their own instead of allocating a Row per fetch.
func (td *TableData) FetchInto(rid heap.RID, dst sqltypes.Row) (sqltypes.Row, error) {
	data, err := td.Get(rid)
	if err != nil {
		return nil, err
	}
	row, _, err := sqltypes.DecodeRowInto(dst, data)
	return row, err
}

// Get returns the row-encoded row at rid, as the heap stores it: valid only
// until the next mutation.
func (td *TableData) Get(rid heap.RID) ([]byte, error) {
	if td.heap == nil {
		return td.t.Heap.Get(rid)
	}
	return td.heap.Get(rid)
}

// seekTree opens a range iterator, ascending or descending, on the index
// tree this view reads: the snapshot when the view holds one, the live tree
// otherwise. A snapshot view can only lack an index if the caller mixed
// schema versions, which version-keyed plans prevent.
func (td *TableData) seekTree(ix *Index, start, end []byte, desc bool) *btree.Iterator {
	var tree interface {
		Seek(start, end []byte) *btree.Iterator
		SeekDesc(start, end []byte) *btree.Iterator
	} = ix.Tree
	if snap, ok := td.trees[ix]; ok {
		tree = snap
	}
	if desc {
		return tree.SeekDesc(start, end)
	}
	return tree.Seek(start, end)
}

// IndexCount returns the number of entries of ix in the range IndexIter
// would scan, counted index-only: no row is fetched and no counter moves.
func (td *TableData) IndexCount(ix *Index, eq []sqltypes.Value, low, high *sqltypes.Value, lowExcl, highExcl bool) int {
	start, end := indexRange(nil, nil, eq, low, high, lowExcl, highExcl)
	if td.trees != nil {
		if snap, ok := td.trees[ix]; ok {
			return snap.Count(start, end)
		}
	}
	return ix.Tree.Count(start, end)
}

// unmetered returns a twin of the snapshot data whose reads count nowhere.
func (td *TableData) unmetered() *TableData {
	c := *td
	c.counters = nil
	if td.heap != nil {
		c.heap = td.heap.Unmetered()
	}
	if td.trees != nil {
		c.trees = make(map[*Index]*btree.Snapshot, len(td.trees))
		for ix, snap := range td.trees {
			c.trees[ix] = snap.Unmetered()
		}
	}
	return &c
}

// View is an immutable snapshot of a whole database: the schema objects at
// one catalog version plus a TableData snapshot per table. Readers obtain a
// View from an atomic pointer and then run entirely against it — planning,
// execution, serialization — with no lock held, while the writer keeps
// mutating the live catalog and republishing new Views.
type View struct {
	version uint64
	tables  map[string]*Table
	data    map[*Table]*TableData
}

// BuildView publishes the current catalog state as an immutable View. Must
// run on the writer side (it snapshots each table's storage); the returned
// View is safe for arbitrary concurrent use. Unchanged tables reuse their
// cached storage snapshots, so republishing after a small write is cheap.
func (c *Catalog) BuildView() *View {
	v := &View{
		version: c.version.Load(),
		tables:  c.tables,
		data:    make(map[*Table]*TableData, len(c.tables)),
	}
	for _, t := range c.tables {
		v.data[t] = t.snapshotData()
	}
	return v
}

// Unmetered returns a twin of the view that reads the same snapshots but
// counts nothing: no heap page, B+tree node, scanned row or index entry read
// through it moves the engine's counters. The planner's sample runs read
// through it, so pricing a plan is not work the engine reports.
func (v *View) Unmetered() *View {
	u := &View{version: v.version, tables: v.tables, data: make(map[*Table]*TableData, len(v.data))}
	for t, td := range v.data {
		u.data[t] = td.unmetered()
	}
	return u
}

// Version returns the catalog version the view was built at. Plans cached
// at the same version hold exactly the *Table pointers found in this view.
func (v *View) Version() uint64 { return v.version }

// Table returns the named table's schema object, or nil.
func (v *View) Table(name string) *Table { return v.tables[name] }

// TableNames returns all table names in the view, sorted.
func (v *View) TableNames() []string {
	names := make([]string, 0, len(v.tables))
	for n := range v.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Data returns the snapshot data for a table of this view. A nil *View is
// the writer-side "no snapshot" case: operators then read live storage.
func (v *View) Data(t *Table) *TableData {
	if v == nil {
		return LiveData(t)
	}
	if td, ok := v.data[t]; ok {
		return td
	}
	// Unreachable when plans are version-matched to the view; reading live
	// data is the conservative fallback for mixed-version callers.
	return LiveData(t)
}

// TableIndexes, TableRows and IndexCount let the planner consume either a
// live Catalog (writer side, DML replanning) or a published View (lock-free
// readers) through one interface.

// TableIndexes returns the indexes of t as of this view.
func (v *View) TableIndexes(t *Table) []*Index { return v.Data(t).Indexes() }

// TableRows returns the live row count of t as of this view.
func (v *View) TableRows(t *Table) int { return v.Data(t).RowCount() }

// TableIndexes returns the current indexes of t. Writer side only.
func (c *Catalog) TableIndexes(t *Table) []*Index { return t.Indexes }

// TableRows returns the current row count of t. Writer side only.
func (c *Catalog) TableRows(t *Table) int { return t.RowCount() }

// IndexCount returns the number of entries of ix in the range, as of this
// view (see TableData.IndexCount).
func (v *View) IndexCount(t *Table, ix *Index, eq []sqltypes.Value, low, high *sqltypes.Value, lowExcl, highExcl bool) int {
	return v.Data(t).IndexCount(ix, eq, low, high, lowExcl, highExcl)
}

// IndexCount returns the number of entries of ix in the range in the live
// tree. Writer side only.
func (c *Catalog) IndexCount(t *Table, ix *Index, eq []sqltypes.Value, low, high *sqltypes.Value, lowExcl, highExcl bool) int {
	return LiveData(t).IndexCount(ix, eq, low, high, lowExcl, highExcl)
}
