package catalog

import (
	"ordxml/internal/sqldb/btree"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

// RowIter is a pull iterator over all live rows of a table view. Over a
// storage snapshot it streams pages directly; over live storage it snapshots
// the RID list at creation, so callers that mutate the table while iterating
// see a stable view.
type RowIter struct {
	t        *Table
	counters *Counters  // nil: unmetered
	it       *heap.Iter // snapshot path
	// live path
	rids []heap.RID
	pos  int
}

// RowIter returns an iterator over the table's live rows in RID order.
func (t *Table) RowIter() *RowIter {
	it := &RowIter{t: t, counters: t.counters, rids: make([]heap.RID, 0, t.RowCount())}
	t.Heap.Scan(func(rid heap.RID, _ []byte) bool {
		it.rids = append(it.rids, rid)
		return true
	})
	return it
}

// RowIter returns an iterator over the view's rows in RID order.
func (td *TableData) RowIter() *RowIter {
	if td.heap != nil {
		return &RowIter{t: td.t, counters: td.counters, it: td.heap.Iter()}
	}
	it := td.t.RowIter()
	it.counters = td.counters
	return it
}

// Next decodes the next row, appending it to dst (see
// sqltypes.DecodeRowInto), or returns ok=false at the end. Rows deleted since
// the snapshot are skipped.
func (it *RowIter) Next(dst sqltypes.Row) (heap.RID, sqltypes.Row, bool, error) {
	var rid heap.RID
	var data []byte
	if it.it != nil {
		var ok bool
		if rid, data, ok = it.it.Next(); !ok {
			return heap.RID{}, nil, false, nil
		}
	} else {
		for {
			if it.pos >= len(it.rids) {
				return heap.RID{}, nil, false, nil
			}
			rid = it.rids[it.pos]
			it.pos++
			var err error
			if data, err = it.t.Heap.Get(rid); err == nil {
				break
			} // else deleted since snapshot
		}
	}
	row, _, err := sqltypes.DecodeRowInto(dst, data)
	if err != nil {
		return heap.RID{}, nil, false, err
	}
	if it.counters != nil {
		it.counters.RowsScanned.Add(1)
	}
	return rid, row, true, nil
}

// indexRange builds the [start, end) key range for an index scan — an
// equality prefix over the leading index columns, then an optional residual
// range on the next column (nil bounds are open, and a range excludes NULL) — appending the keys to the
// caller's buffers start and end. A nil end is open: the prefix has no
// successor.
func indexRange(start, end []byte, eq []sqltypes.Value, low, high *sqltypes.Value, lowExcl, highExcl bool) ([]byte, []byte) {
	start = sqltypes.EncodeKey(start, eq...)
	end = append(end, start...)
	if high != nil {
		end = sqltypes.EncodeKey(end, *high)
		if !highExcl {
			end = sqltypes.AppendPrefixSuccessor(end[:0], end)
		}
	} else {
		end = sqltypes.AppendPrefixSuccessor(end[:0], end)
	}
	if low != nil {
		start = sqltypes.EncodeKey(start, *low)
		if lowExcl {
			// Skip all entries equal to low: successor of the encoded value
			// within this column (works because keys are self-delimiting).
			start = sqltypes.AppendPrefixSuccessor(start[:0], start)
		}
	} else if high != nil {
		// No comparison holds for NULL, which sorts first: an upper bound
		// alone starts past the column's NULL entries.
		start = sqltypes.EncodeKey(start, sqltypes.NullValue())
		start = sqltypes.AppendPrefixSuccessor(start[:0], start)
	}
	return start, end
}

// IndexIter is a pull iterator over an index range.
type IndexIter struct {
	counters *Counters // nil: unmetered
	it       *btree.Iterator
	// start and end hold the current range's keys; Reseek rebuilds them in
	// place.
	start, end []byte
}

// IndexIter returns a pull iterator over the view's index data with the
// same range semantics as Table.IndexScan: an equality prefix over the
// leading index columns, then an optional range on the next column. desc
// walks the range from its last entry to its first.
func (td *TableData) IndexIter(ix *Index, eq []sqltypes.Value, low, high *sqltypes.Value, lowExcl, highExcl, desc bool) *IndexIter {
	it := &IndexIter{counters: td.counters}
	it.start, it.end = indexRange(nil, nil, eq, low, high, lowExcl, highExcl)
	it.it = td.seekTree(ix, it.start, it.end, desc)
	return it
}

// Reseek moves an ascending iterator to another range of its index, with
// the bounds of IndexIter, continuing from where the iterator stands (see
// btree.Iterator.Reseek): a range just ahead of the last one costs a leaf
// search, not a descent from the root. The index must not have changed
// since the iterator was opened.
func (it *IndexIter) Reseek(eq []sqltypes.Value, low, high *sqltypes.Value, lowExcl, highExcl bool) {
	it.start, it.end = indexRange(it.start[:0], it.end[:0], eq, low, high, lowExcl, highExcl)
	it.it.Reseek(it.start, it.end)
}

// Next returns the next matching RID, or ok=false at the end.
func (it *IndexIter) Next() (heap.RID, bool) {
	if !it.it.Valid() {
		return heap.RID{}, false
	}
	rid := it.it.RID()
	if it.counters != nil {
		it.counters.IndexProbes.Add(1)
	}
	it.it.Next()
	return rid, true
}
