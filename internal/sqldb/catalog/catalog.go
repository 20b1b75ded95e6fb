// Package catalog holds the live schema objects of a database: tables with
// their heap storage, columns, and B+tree indexes. All row mutations go
// through this package so index maintenance and uniqueness enforcement live
// in one place: a DML statement mutates rows through a Write (write.go),
// which makes it all-or-nothing, and the bulk loader through
// Table.BulkInsert. The catalog also maintains the work counters that the
// benchmark harness reads (rows scanned, index probes, rows written), which
// give a hardware-independent view of query and update cost.
package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"ordxml/internal/sqldb/btree"
	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    sqltypes.Type
	NotNull bool
}

// Counters accumulates engine work. All fields are updated atomically; the
// database publishes each as a storage.* metric, whose deltas around an
// operation give its logical cost independent of hardware.
type Counters struct {
	RowsScanned  atomic.Int64 // rows produced by sequential scans
	IndexProbes  atomic.Int64 // index entries visited by index scans/lookups
	RowsInserted atomic.Int64
	RowsDeleted  atomic.Int64
	RowsUpdated  atomic.Int64
	// HeapPageReads and BtreeNodeReads are the storage-layer access counters:
	// every table heap and index tree created through the catalog points its
	// read counter here, so page/node traffic aggregates per database.
	HeapPageReads  atomic.Int64
	BtreeNodeReads atomic.Int64
	// IndexWrites counts index entries DML inserted, deleted or moved: one
	// per tree Insert, Delete or Replace.
	IndexWrites atomic.Int64
}

// Index is a live secondary (or primary) index.
type Index struct {
	Name    string
	Table   *Table
	Columns []int // positions into Table.Columns
	Unique  bool
	Tree    *btree.Tree
}

// ColumnNames returns the indexed column names in order.
func (ix *Index) ColumnNames() []string {
	out := make([]string, len(ix.Columns))
	for i, c := range ix.Columns {
		out[i] = ix.Table.Columns[c].Name
	}
	return out
}

// keyFor builds the B+tree key for row at rid: the order-preserving encoding
// of the indexed columns, suffixed with the RID for non-unique indexes so
// duplicate column values remain distinct tree keys.
func (ix *Index) keyFor(row sqltypes.Row, rid heap.RID) []byte {
	return ix.appendKey(make([]byte, 0, 32), row, rid)
}

// appendKey appends keyFor's key to dst.
func (ix *Index) appendKey(dst []byte, row sqltypes.Row, rid heap.RID) []byte {
	for _, c := range ix.Columns {
		dst = sqltypes.EncodeKey(dst, row[c])
	}
	if !ix.Unique {
		dst = AppendRID(dst, rid)
	}
	return dst
}

// checkKeySize fails, naming the index, when key is too large for a tree
// page. Writers check every key before they touch storage, so an oversized
// value is an error and never a partly indexed row.
func (ix *Index) checkKeySize(key []byte) error {
	if len(key) > btree.MaxKeySize {
		return fmt.Errorf("index %s: %d-byte key: %w", ix.Name, len(key), btree.ErrKeyTooLarge)
	}
	return nil
}

// AppendRID appends the fixed-width big-endian encoding of rid to key.
func AppendRID(key []byte, rid heap.RID) []byte {
	var buf [6]byte
	binary.BigEndian.PutUint32(buf[0:4], rid.Page)
	binary.BigEndian.PutUint16(buf[4:6], rid.Slot)
	return append(key, buf[:]...)
}

// DecodeRIDSuffix reads the RID from the last 6 bytes of a non-unique key.
func DecodeRIDSuffix(key []byte) heap.RID {
	n := len(key)
	return heap.RID{
		Page: binary.BigEndian.Uint32(key[n-6 : n-2]),
		Slot: binary.BigEndian.Uint16(key[n-2:]),
	}
}

// Table is a live table: schema plus heap storage plus indexes.
type Table struct {
	Name    string
	Columns []Column
	Heap    *heap.Heap
	Indexes []*Index

	counters *Counters
	colIdx   map[string]int
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// ColumnTypes returns the column types in declaration order.
func (t *Table) ColumnTypes() []sqltypes.Type {
	out := make([]sqltypes.Type, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Type
	}
	return out
}

// RowCount returns the number of live rows.
func (t *Table) RowCount() int { return t.Heap.Stats().Rows }

// checkRow validates arity, coerces values to column types and enforces
// NOT NULL. When no value needs coercion (the common case for rows built by
// the XML layer) the input row is returned as-is, copy-free; callers must not
// mutate the result.
func (t *Table) checkRow(row sqltypes.Row) (sqltypes.Row, error) {
	if len(row) != len(t.Columns) {
		return nil, fmt.Errorf("table %s: row has %d values, want %d", t.Name, len(row), len(t.Columns))
	}
	out := row
	copied := false
	for i, v := range row {
		if v.IsNull() {
			if t.Columns[i].NotNull {
				return nil, fmt.Errorf("table %s column %s: NULL violates NOT NULL", t.Name, t.Columns[i].Name)
			}
			continue
		}
		if v.Type() == t.Columns[i].Type {
			continue
		}
		cv, err := sqltypes.Coerce(v, t.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("table %s column %s: %w", t.Name, t.Columns[i].Name, err)
		}
		if !copied {
			out = append(sqltypes.Row(nil), row...)
			copied = true
		}
		out[i] = cv
	}
	return out, nil
}

// Insert validates and stores row, maintaining every index.
func (t *Table) Insert(row sqltypes.Row) (heap.RID, error) {
	row, err := t.checkRow(row)
	if err != nil {
		return heap.RID{}, err
	}
	// Build and check every key before touching storage: its size, and
	// uniqueness. Non-unique keys carry a placeholder RID suffix until the
	// heap has placed the row.
	keys := make([][]byte, len(t.Indexes))
	for i, ix := range t.Indexes {
		keys[i] = ix.keyFor(row, heap.RID{})
		if err := ix.checkKeySize(keys[i]); err != nil {
			return heap.RID{}, err
		}
		if !ix.Unique {
			continue
		}
		if _, exists := ix.Tree.Get(keys[i]); exists {
			return heap.RID{}, fmt.Errorf("unique index %s: duplicate key %s", ix.Name, describeKey(ix, row))
		}
	}
	rid, err := t.Heap.Insert(sqltypes.EncodeRow(nil, row))
	if err != nil {
		return heap.RID{}, err
	}
	for i, ix := range t.Indexes {
		if !ix.Unique {
			patchRID(keys[i], rid)
		}
		if err := ix.Tree.Insert(keys[i], rid); err != nil {
			// Size and uniqueness were pre-checked; any error here is corruption.
			panic(fmt.Sprintf("catalog: index %s insert: %v", ix.Name, err))
		}
	}
	t.counters.IndexWrites.Add(int64(len(t.Indexes)))
	t.counters.RowsInserted.Add(1)
	return rid, nil
}

// BulkInsert validates and stores a batch of rows: every row is checked
// (arity, types, NOT NULL, uniqueness — against the table and within the
// batch) before any storage is touched, so an error leaves the table
// unchanged. Rows go to the heap through one batch append, and each index is
// maintained with one sorted pass — bulk-built bottom-up when the index is
// empty, sorted inserts otherwise. Returns the RIDs in row order.
func (t *Table) BulkInsert(rows []sqltypes.Row) ([]heap.RID, error) {
	n := len(rows)
	if n == 0 {
		return nil, nil
	}
	checked := make([]sqltypes.Row, n)
	for i, row := range rows {
		cr, err := t.checkRow(row)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i+1, err)
		}
		checked[i] = cr
	}

	// Build every index key up front, arena-backed (one allocation per batch
	// instead of one per key). Non-unique keys get a zeroed RID-suffix
	// placeholder patched after the heap append; because the key encoding is
	// self-delimiting, placeholder keys compare exactly like patched ones
	// except on full-prefix ties, which the real RIDs (ascending in row
	// order) then break. Each index records whether its keys already arrive
	// in tree order — true for the (doc,id) and document-order indexes fed by
	// the shredder's pre-order walk — and a sort permutation otherwise.
	type ixBuild struct {
		keys [][]byte
		perm []int // nil when keys are already sorted in row order
	}
	builds := make([]ixBuild, len(t.Indexes))
	arena := make([]byte, 0, 24*n*max(len(t.Indexes), 1))
	allKeys := make([][]byte, len(t.Indexes)*n)
	for xi, ix := range t.Indexes {
		keys := allKeys[xi*n : (xi+1)*n : (xi+1)*n]
		sorted := true
		for i, row := range checked {
			start := len(arena)
			for _, c := range ix.Columns {
				arena = sqltypes.EncodeKey(arena, row[c])
			}
			if !ix.Unique {
				arena = AppendRID(arena, heap.RID{})
			}
			keys[i] = arena[start:len(arena):len(arena)]
			if err := ix.checkKeySize(keys[i]); err != nil {
				return nil, fmt.Errorf("row %d: %w", i+1, err)
			}
			if i > 0 && sorted {
				cmp := bytes.Compare(keys[i-1], keys[i])
				if cmp > 0 {
					sorted = false
				} else if cmp == 0 && ix.Unique {
					return nil, fmt.Errorf("unique index %s: duplicate key %s within batch", ix.Name, describeKey(ix, row))
				}
			}
		}
		b := ixBuild{keys: keys}
		if !sorted {
			b.perm = orderKeys(ix, checked, keys)
			if ix.Unique {
				for i := 1; i < n; i++ {
					if bytes.Equal(keys[b.perm[i-1]], keys[b.perm[i]]) {
						return nil, fmt.Errorf("unique index %s: duplicate key %s within batch", ix.Name, describeKey(ix, checked[b.perm[i]]))
					}
				}
			}
		}
		if ix.Unique && ix.Tree.Len() > 0 {
			for i, key := range keys {
				if _, exists := ix.Tree.Get(key); exists {
					return nil, fmt.Errorf("unique index %s: duplicate key %s", ix.Name, describeKey(ix, checked[i]))
				}
			}
		}
		builds[xi] = b
	}

	payloads := make([][]byte, n)
	rowArena := make([]byte, 0, 48*n)
	for i, row := range checked {
		start := len(rowArena)
		rowArena = sqltypes.EncodeRow(rowArena, row)
		payloads[i] = rowArena[start:len(rowArena):len(rowArena)]
	}
	rids, err := t.Heap.AppendBatch(payloads)
	if err != nil {
		return nil, err
	}

	items := make([]btree.Item, n)
	for xi, ix := range t.Indexes {
		b := builds[xi]
		if !ix.Unique {
			for i, key := range b.keys {
				patchRID(key, rids[i])
			}
		}
		for i := range items {
			src := i
			if b.perm != nil {
				src = b.perm[i]
			}
			items[i] = btree.Item{Key: b.keys[src], RID: rids[src]}
		}
		if ix.Tree.Len() == 0 {
			tree, err := btree.BulkLoad(items)
			if err != nil {
				// Uniqueness was pre-checked; a collision here is corruption.
				panic(fmt.Sprintf("catalog: index %s bulk load: %v", ix.Name, err))
			}
			tree.NodeReads = ix.Tree.NodeReads
			tree.AdoptFrom(ix.Tree)
			ix.Tree = tree
			continue
		}
		for _, it := range items {
			if err := ix.Tree.Insert(it.Key, it.RID); err != nil {
				panic(fmt.Sprintf("catalog: index %s insert: %v", ix.Name, err))
			}
		}
	}
	t.counters.RowsInserted.Add(int64(n))
	return rids, nil
}

// orderKeys returns the permutation that puts an index's batch keys in
// ascending order, ties in row order. It first distributes the rows, stably,
// by the index's first column that varies across the batch, and keeps that
// order when one O(n) pass finds the keys ascending: a batch that interleaves
// runs already ascending within each value of that column needs no
// comparison sort. The shredder's pre-order is such a batch for its
// (doc, parent, …) and (doc, tag, …) indexes on every encoding. Any other
// batch is sorted.
func orderKeys(ix *Index, rows []sqltypes.Row, keys [][]byte) []int {
	perm := distribute(ix, rows, keys)
	for i := 1; perm != nil && i < len(perm); i++ {
		if bytes.Compare(keys[perm[i-1]], keys[perm[i]]) > 0 {
			perm = nil
		}
	}
	if perm != nil {
		return perm
	}
	perm = make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	// Ties break by row order so patched RID suffixes stay ascending.
	slices.SortFunc(perm, func(i, j int) int {
		if c := bytes.Compare(keys[i], keys[j]); c != 0 {
			return c
		}
		return i - j
	})
	return perm
}

// distribute returns the rows grouped by the value of the index's first
// column that varies across them, the groups in the order of the value's key
// encoding and the rows of a group in row order; nil when no column varies.
// Each row's group is its value's rank among the column's values (see
// valueRanks), and one counting pass places the rows.
func distribute(ix *Index, rows []sqltypes.Row, keys [][]byte) []int {
	col := varyingColumn(ix, rows[0], keys)
	if col < 0 {
		return nil
	}
	rank, ranks := valueRanks(rows, col)
	// start[r] is where the rows of rank r begin in the permutation.
	start := make([]int, ranks)
	for _, r := range rank {
		start[r]++
	}
	next := 0
	for r, count := range start {
		start[r], next = next, next+count
	}
	perm := make([]int, len(rows))
	for i, r := range rank {
		perm[start[r]] = i
		start[r]++
	}
	return perm
}

// valueRanks ranks each row's value in column col so that ranks ascend with
// the values' key encodings and equal values share a rank; ranks bounds
// them. An integer column whose values span at most two per row ranks by
// offset from the least (NULL first), with no lookups and no sort. Any
// other column numbers its distinct values through one map probe per row
// (none when a row repeats the previous row's value) and sorts just those
// values, and not even them when they first appear in ascending order.
func valueRanks(rows []sqltypes.Row, col int) (rank []int32, ranks int) {
	rank = make([]int32, len(rows))
	lo, hi, ints := int64(math.MaxInt64), int64(math.MinInt64), true
	for _, row := range rows {
		switch v := row[col]; v.Type() {
		case sqltypes.Null:
		case sqltypes.Int, sqltypes.Bool:
			lo, hi = min(lo, v.Int()), max(hi, v.Int())
		default:
			ints = false
		}
	}
	if span := uint64(hi - lo); ints && lo <= hi && span < 2*uint64(len(rows)) {
		for i, row := range rows {
			if v := row[col]; !v.IsNull() {
				rank[i] = int32(v.Int()-lo) + 1
			}
		}
		return rank, int(span) + 2
	}
	groupOf := map[string]int32{}
	var values []string // each distinct value's key encoding, by number
	var cur, prev []byte
	for i, row := range rows {
		cur = sqltypes.EncodeKey(cur[:0], row[col])
		if i > 0 && bytes.Equal(cur, prev) {
			rank[i] = rank[i-1]
		} else {
			g, ok := groupOf[string(cur)]
			if !ok {
				g = int32(len(values))
				values = append(values, string(cur))
				groupOf[values[g]] = g
			}
			rank[i] = g
		}
		cur, prev = prev, cur
	}
	if !slices.IsSorted(values) {
		sorted := slices.Clone(values)
		slices.Sort(sorted)
		byNumber := make([]int32, len(values))
		for r, v := range sorted {
			byNumber[groupOf[v]] = int32(r)
		}
		for i, g := range rank {
			rank[i] = byNumber[g]
		}
	}
	return rank, len(values)
}

// varyingColumn returns the index's first column whose value is not the
// same in every row, or -1 when none is: the column whose encoding in the
// first row's key holds the first byte at which some key differs from it.
// The columns before it lie in the prefix every key shares, so each holds
// one value across the batch: the key encoding is self-delimiting.
func varyingColumn(ix *Index, first sqltypes.Row, keys [][]byte) int {
	common := len(keys[0])
	for _, k := range keys[1:] {
		n := min(common, len(k))
		i := 0
		for i < n && k[i] == keys[0][i] {
			i++
		}
		common = i
	}
	var buf []byte
	for _, c := range ix.Columns {
		buf = sqltypes.EncodeKey(buf, first[c])
		if len(buf) > common {
			return c
		}
	}
	return -1
}

// patchRID overwrites the zeroed RID-suffix placeholder at the end of a
// non-unique index key with the row's real RID.
func patchRID(key []byte, rid heap.RID) {
	n := len(key)
	binary.BigEndian.PutUint32(key[n-6:n-2], rid.Page)
	binary.BigEndian.PutUint16(key[n-2:], rid.Slot)
}

func describeKey(ix *Index, row sqltypes.Row) string {
	s := "("
	for i, c := range ix.Columns {
		if i > 0 {
			s += ", "
		}
		s += row[c].String()
	}
	return s + ")"
}

// Fetch returns the decoded row at rid.
func (t *Table) Fetch(rid heap.RID) (sqltypes.Row, error) {
	data, err := t.Heap.Get(rid)
	if err != nil {
		return nil, err
	}
	return sqltypes.DecodeRow(data)
}

// Scan iterates all rows, bumping the scan counter.
func (t *Table) Scan(fn func(rid heap.RID, row sqltypes.Row) bool) error {
	var derr error
	t.Heap.Scan(func(rid heap.RID, data []byte) bool {
		row, err := sqltypes.DecodeRow(data)
		if err != nil {
			derr = err
			return false
		}
		t.counters.RowsScanned.Add(1)
		return fn(rid, row)
	})
	return derr
}

// IndexScan iterates index entries with the given column-value prefix and
// optional residual range on the next column: entries where the column after
// the equality prefix lies in [low, high] (nil bounds are open). fn receives
// the RID; loading the row is the caller's choice.
func (t *Table) IndexScan(ix *Index, eq []sqltypes.Value, low, high *sqltypes.Value, lowExcl, highExcl bool, fn func(rid heap.RID) bool) {
	start, end := indexRange(nil, nil, eq, low, high, lowExcl, highExcl)
	it := ix.Tree.Seek(start, end)
	for ; it.Valid(); it.Next() {
		t.counters.IndexProbes.Add(1)
		if !fn(it.RID()) {
			return
		}
	}
}

// Catalog is the set of tables and indexes of one database.
//
// DDL is copy-on-write: every schema change replaces the tables map (and,
// for index changes, the affected *Table) with fresh objects rather than
// mutating the ones in place. Schema objects reachable from a published
// View are therefore immutable, which is what lets readers plan and execute
// against a View without holding any lock while DDL proceeds.
type Catalog struct {
	tables   map[string]*Table
	Counters Counters
	// pool, when set, backs every heap and index tree created through this
	// catalog with buffer-pool pages instead of plain RAM.
	pool *bufpool.Pool
	// version counts schema changes (DDL). Plan caches key their entries by
	// it, so a CREATE/DROP TABLE/INDEX invalidates every cached plan.
	version atomic.Uint64
}

// replaceTables swaps in a copy of the tables map with name remapped to t
// (or removed when t is nil) and bumps the schema version.
func (c *Catalog) replaceTables(name string, t *Table) {
	m := make(map[string]*Table, len(c.tables)+1)
	for n, old := range c.tables {
		m[n] = old
	}
	if t == nil {
		delete(m, name)
	} else {
		m[name] = t
	}
	c.tables = m
	c.version.Add(1)
}

// Version returns the schema version counter, bumped by every DDL change.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: map[string]*Table{}}
}

// NewPooled returns an empty catalog whose storage pages through pool.
func NewPooled(pool *bufpool.Pool) *Catalog {
	return &Catalog{tables: map[string]*Table{}, pool: pool}
}

// Pool returns the buffer pool backing this catalog's storage, or nil for an
// all-RAM catalog.
func (c *Catalog) Pool() *bufpool.Pool { return c.pool }

// newHeap returns an empty heap on the catalog's storage tier.
func (c *Catalog) newHeap() *heap.Heap {
	if c.pool != nil {
		return heap.NewPaged(c.pool)
	}
	return heap.New()
}

// newTree returns an empty tree on the catalog's storage tier.
func (c *Catalog) newTree() *btree.Tree {
	if c.pool != nil {
		return btree.NewPaged(c.pool)
	}
	return btree.New()
}

// CreateTable defines a new table.
func (c *Catalog) CreateTable(name string, cols []Column) (*Table, error) {
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("table %s already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("table %s: no columns", name)
	}
	t := &Table{
		Name:     name,
		Columns:  cols,
		Heap:     c.newHeap(),
		counters: &c.Counters,
		colIdx:   map[string]int{},
	}
	t.Heap.PageReads = &c.Counters.HeapPageReads
	for i, col := range cols {
		if _, dup := t.colIdx[col.Name]; dup {
			return nil, fmt.Errorf("table %s: duplicate column %s", name, col.Name)
		}
		t.colIdx[col.Name] = i
	}
	c.replaceTables(name, t)
	return t, nil
}

// AttachTable registers a table over already-restored heap storage, without
// scanning or copying rows. Used by paged-checkpoint recovery, which rebuilds
// each heap from its manifest page list.
func (c *Catalog) AttachTable(name string, cols []Column, h *heap.Heap) (*Table, error) {
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("table %s already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("table %s: no columns", name)
	}
	t := &Table{
		Name:     name,
		Columns:  cols,
		Heap:     h,
		counters: &c.Counters,
		colIdx:   map[string]int{},
	}
	t.Heap.PageReads = &c.Counters.HeapPageReads
	for i, col := range cols {
		if _, dup := t.colIdx[col.Name]; dup {
			return nil, fmt.Errorf("table %s: duplicate column %s", name, col.Name)
		}
		t.colIdx[col.Name] = i
	}
	c.replaceTables(name, t)
	return t, nil
}

// AttachIndex registers an index over an already-restored tree, without
// re-reading the table. The recovery counterpart of CreateIndex.
func (c *Catalog) AttachIndex(name, tableName string, colNames []string, unique bool, tree *btree.Tree) (*Index, error) {
	t := c.Table(tableName)
	if t == nil {
		return nil, fmt.Errorf("table %s does not exist", tableName)
	}
	for _, ix := range t.Indexes {
		if ix.Name == name {
			return nil, fmt.Errorf("index %s already exists", name)
		}
	}
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		pos := t.ColumnIndex(cn)
		if pos < 0 {
			return nil, fmt.Errorf("index %s: no column %s in table %s", name, cn, tableName)
		}
		cols[i] = pos
	}
	tree.NodeReads = &c.Counters.BtreeNodeReads
	ix := &Index{Name: name, Table: t, Columns: cols, Unique: unique, Tree: tree}
	t.Indexes = append(append([]*Index(nil), t.Indexes...), ix)
	c.version.Add(1)
	return ix, nil
}

// DropTable removes a table and its indexes.
func (c *Catalog) DropTable(name string) error {
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("table %s does not exist", name)
	}
	// Every page returns to the pool now; snapshots still reading the table
	// keep its bytes in memory (heap.Heap.Release, btree.Tree.Release).
	for _, ix := range t.Indexes {
		ix.Tree.Release()
	}
	t.Heap.Release()
	c.replaceTables(name, nil)
	return nil
}

// PageIDs returns every page id the catalog's heaps and index trees own.
// Writer side only; it reads every index tree in full.
func (c *Catalog) PageIDs() []bufpool.PageID {
	var ids []bufpool.PageID
	for _, t := range c.tables {
		ids = append(ids, t.Heap.PageIDs()...)
		for _, ix := range t.Indexes {
			ids = append(ids, ix.Tree.PageIDs()...)
		}
	}
	return ids
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CreateIndex builds an index over the named columns, populating it from
// existing rows.
func (c *Catalog) CreateIndex(name, tableName string, colNames []string, unique bool) (*Index, error) {
	t := c.Table(tableName)
	if t == nil {
		return nil, fmt.Errorf("table %s does not exist", tableName)
	}
	for _, ix := range t.Indexes {
		if ix.Name == name {
			return nil, fmt.Errorf("index %s already exists", name)
		}
	}
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		pos := t.ColumnIndex(cn)
		if pos < 0 {
			return nil, fmt.Errorf("index %s: no column %s in table %s", name, cn, tableName)
		}
		cols[i] = pos
	}
	ix := &Index{Name: name, Table: t, Columns: cols, Unique: unique, Tree: c.newTree()}
	ix.Tree.NodeReads = &c.Counters.BtreeNodeReads
	// Populate bottom-up: collect and sort every (key, rid) pair, then build
	// the tree leaves-first instead of one top-down insert per row.
	items := make([]btree.Item, 0, t.RowCount())
	var buildErr error
	t.Heap.Scan(func(rid heap.RID, data []byte) bool {
		row, err := sqltypes.DecodeRow(data)
		if err != nil {
			buildErr = err
			return false
		}
		items = append(items, btree.Item{Key: ix.keyFor(row, rid), RID: rid})
		return true
	})
	if buildErr != nil {
		return nil, buildErr
	}
	sort.Slice(items, func(i, j int) bool { return bytes.Compare(items[i].Key, items[j].Key) < 0 })
	tree, err := btree.BulkLoad(items)
	if err != nil {
		// Keys only collide on a unique index (non-unique keys carry a RID
		// suffix), so ErrUnsorted here means a uniqueness violation.
		return nil, fmt.Errorf("index %s: %w (existing data violates uniqueness?)", name, btree.ErrDuplicate)
	}
	tree.NodeReads = &c.Counters.BtreeNodeReads
	// The bulk-built tree replaces the empty pooled one wholesale; AdoptFrom
	// moves the pool over and releases the superseded tree's pages.
	tree.AdoptFrom(ix.Tree)
	ix.Tree = tree
	// Replace the Indexes slice with a fresh copy rather than appending in
	// place: published Views capture the old slice at snapshot time, so its
	// backing array must never be written again.
	t.Indexes = append(append([]*Index(nil), t.Indexes...), ix)
	c.version.Add(1)
	return ix, nil
}

// DropIndex removes the named index from whichever table holds it.
func (c *Catalog) DropIndex(name string) error {
	for _, t := range c.tables {
		for i, ix := range t.Indexes {
			if ix.Name == name {
				// Fresh slice for the same reason as CreateIndex: Views hold
				// the old one.
				keep := make([]*Index, 0, len(t.Indexes)-1)
				keep = append(keep, t.Indexes[:i]...)
				keep = append(keep, t.Indexes[i+1:]...)
				t.Indexes = keep
				ix.Tree.Release()
				c.version.Add(1)
				return nil
			}
		}
	}
	return fmt.Errorf("index %s does not exist", name)
}
