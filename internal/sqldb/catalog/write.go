package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"ordxml/internal/sqldb/btree"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

// Write is one DML statement's mutation of a table. Every row it applies is
// logged for undo, so the statement is all-or-nothing: Finish either keeps
// all of its rows or puts the table back as it was.
//
// Uniqueness is checked per statement, not per row. A row's old index key
// leaves the tree as its new key goes in, and a new unique key that
// collides is parked instead of failing; Finish retries the parked keys once
// every row is applied. So a statement that permutes keys among the rows it
// touches — `SET k = k + 1`, `SET k = k - 1`, `SET k = 100 - k` — succeeds
// in any row order, and a collision left after the retry is a real
// violation.
type Write struct {
	t      *Table
	undo   []undoRec
	parked []parkedKey
	// key and row are scratch encodings reused across rows; newKeys holds
	// an updated row's new index keys back to back, ending at newEnds.
	key, row, newKeys []byte
	newEnds           []int
}

// undoRec reverses one applied row: the row now at rid goes (when live), and
// the row-encoded old comes back (when non-nil). An insert has no old row; a
// delete leaves nothing live.
type undoRec struct {
	rid  heap.RID
	live bool
	old  []byte
}

// parkedKey is a unique-index entry whose insert collided mid-statement.
type parkedKey struct {
	ix  *Index
	key []byte
	rid heap.RID
	row sqltypes.Row
}

// BeginWrite starts a statement's mutation of t. The caller holds the
// engine's write lock until Finish returns.
func (t *Table) BeginWrite() *Write { return &Write{t: t} }

// Reserve makes room in the undo log for n more rows, so a statement that
// knows its row count logs them without regrowing it.
func (w *Write) Reserve(n int) { w.undo = slices.Grow(w.undo, n) }

// Insert validates and stores row through Table.Insert, whose unique
// pre-check stays exact: nothing in an INSERT leaves the trees.
func (w *Write) Insert(row sqltypes.Row) error {
	rid, err := w.t.Insert(row)
	if err != nil {
		return err
	}
	w.undo = append(w.undo, undoRec{rid: rid, live: true})
	return nil
}

// Update replaces the row at rid with newRow, reading the current row from
// the heap first; see UpdateFrom.
func (w *Write) Update(rid heap.RID, newRow sqltypes.Row) (heap.RID, error) {
	data, err := w.t.Heap.Get(rid)
	if err != nil {
		return heap.RID{}, err
	}
	old := bytes.Clone(data)
	oldRow, err := sqltypes.DecodeRow(old)
	if err != nil {
		return heap.RID{}, err
	}
	return w.UpdateFrom(rid, old, oldRow, newRow)
}

// UpdateFrom replaces the row at rid, whose current row the caller read as
// old (row-encoded) and oldRow (decoded), with newRow and returns the row's
// (possibly new) RID. Every new key is sized before storage changes, so past
// that check an index write can only park a unique collision: no error
// leaves the row with some of its indexes rewritten. The heap rewrites the
// row, then each index whose key changed moves its entry with one Replace;
// an index whose key and RID are unchanged is not touched. A unique key that
// collides is parked for Finish. The Write keeps old for undo, so it must
// not change until Finish; it keeps neither decoded row.
func (w *Write) UpdateFrom(rid heap.RID, old []byte, oldRow, newRow sqltypes.Row) (heap.RID, error) {
	t := w.t
	newRow, err := t.checkRow(newRow)
	if err != nil {
		return heap.RID{}, err
	}
	// Encode and size every new key before storage changes. The RID suffix
	// has a fixed width, so a placeholder stands in until the heap has
	// placed the row.
	w.newKeys, w.newEnds = w.newKeys[:0], w.newEnds[:0]
	for _, ix := range t.Indexes {
		start := len(w.newKeys)
		w.newKeys = ix.appendKey(w.newKeys, newRow, heap.RID{})
		if err := ix.checkKeySize(w.newKeys[start:]); err != nil {
			return heap.RID{}, err
		}
		w.newEnds = append(w.newEnds, len(w.newKeys))
	}
	w.row = sqltypes.EncodeRow(w.row[:0], newRow)
	newRID, err := t.Heap.Update(rid, w.row)
	if err != nil {
		return heap.RID{}, err
	}
	w.undo = append(w.undo, undoRec{rid: newRID, live: true, old: old})
	t.counters.RowsUpdated.Add(1)
	start := 0
	for i, ix := range t.Indexes {
		key := w.newKeys[start:w.newEnds[i]]
		start = w.newEnds[i]
		if !ix.Unique {
			patchRID(key, newRID)
		}
		// The trees copy what they keep, so one scratch buffer serves every
		// old key.
		w.key = ix.appendKey(w.key[:0], oldRow, rid)
		if newRID == rid && bytes.Equal(w.key, key) {
			continue
		}
		t.counters.IndexWrites.Add(1)
		err := ix.Tree.Replace(w.key, key, newRID)
		switch {
		case err == nil:
		case ix.Unique && errors.Is(err, btree.ErrDuplicate):
			w.parked = append(w.parked, parkedKey{ix: ix, key: bytes.Clone(key), rid: newRID, row: slices.Clone(newRow)})
		default:
			// The old key is the row's and the new one was sized: any
			// other error is corruption.
			panic(fmt.Sprintf("catalog: index %s update: %v", ix.Name, err))
		}
	}
	return newRID, nil
}

// Delete removes the row at rid and its index entries.
func (w *Write) Delete(rid heap.RID) error {
	t := w.t
	data, err := t.Heap.Get(rid)
	if err != nil {
		return err
	}
	row, err := sqltypes.DecodeRow(data)
	if err != nil {
		return err
	}
	old := bytes.Clone(data)
	for _, ix := range t.Indexes {
		w.key = ix.appendKey(w.key[:0], row, rid)
		if err := ix.Tree.Delete(w.key); err != nil {
			panic(fmt.Sprintf("catalog: index %s delete: %v", ix.Name, err))
		}
	}
	t.counters.IndexWrites.Add(int64(len(t.Indexes)))
	if err := t.Heap.Delete(rid); err != nil {
		w.restoreKeys(row, rid)
		return err
	}
	w.undo = append(w.undo, undoRec{old: old})
	t.counters.RowsDeleted.Add(1)
	return nil
}

// Finish ends the statement. With err nil it inserts every parked key; one
// that still collides becomes the statement's error. When there is an error,
// every applied row is undone, newest first, and the error is returned
// (joined with any storage error the undo itself met).
func (w *Write) Finish(err error) error {
	if err == nil {
		for i, pk := range w.parked {
			if ierr := pk.ix.Tree.Insert(pk.key, pk.rid); ierr != nil {
				for _, done := range w.parked[:i] {
					if derr := done.ix.Tree.Delete(done.key); derr != nil {
						panic(fmt.Sprintf("catalog: index %s delete during rollback: %v", done.ix.Name, derr))
					}
					w.t.counters.IndexWrites.Add(1)
				}
				err = fmt.Errorf("unique index %s: duplicate key %s", pk.ix.Name, describeKey(pk.ix, pk.row))
				break
			}
			w.t.counters.IndexWrites.Add(1)
		}
	}
	if err == nil {
		return nil
	}
	var undoErrs []error
	for i := len(w.undo) - 1; i >= 0; i-- {
		if uerr := w.revert(w.undo[i]); uerr != nil {
			undoErrs = append(undoErrs, uerr)
		}
	}
	if len(undoErrs) > 0 {
		return errors.Join(err, fmt.Errorf("table %s: undo: %w", w.t.Name, errors.Join(undoErrs...)))
	}
	return err
}

// revert undoes one row. Later rows are already undone, so the old row's
// keys are free again; the live row's keys are removed only where it owns
// them, since a parked key it never got belongs to another row.
func (w *Write) revert(u undoRec) error {
	t := w.t
	rid, old := u.rid, u.old
	if u.live {
		cur, err := t.Fetch(rid)
		if err != nil {
			return err
		}
		for _, ix := range t.Indexes {
			key := ix.keyFor(cur, rid)
			if got, ok := ix.Tree.Get(key); ok && got == rid {
				if err := ix.Tree.Delete(key); err != nil {
					panic(fmt.Sprintf("catalog: index %s delete during rollback: %v", ix.Name, err))
				}
				t.counters.IndexWrites.Add(1)
			}
		}
		if old == nil {
			return t.Heap.Delete(rid)
		}
		if rid, err = t.Heap.Update(rid, old); err != nil {
			return err
		}
	} else {
		var err error
		if rid, err = t.Heap.Insert(old); err != nil {
			return err
		}
	}
	row, err := sqltypes.DecodeRow(old)
	if err != nil {
		return err
	}
	w.restoreKeys(row, rid)
	return nil
}

// restoreKeys puts row's index entries back at rid.
func (w *Write) restoreKeys(row sqltypes.Row, rid heap.RID) {
	for _, ix := range w.t.Indexes {
		if err := ix.Tree.Insert(ix.keyFor(row, rid), rid); err != nil {
			panic(fmt.Sprintf("catalog: index %s insert during rollback: %v", ix.Name, err))
		}
	}
	w.t.counters.IndexWrites.Add(int64(len(w.t.Indexes)))
}
