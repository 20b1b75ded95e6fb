package catalog

import (
	"bytes"
	"errors"
	"fmt"

	"ordxml/internal/sqldb/btree"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

// Write is one DML statement's mutation of a table. Every row it applies is
// logged for undo, so the statement is all-or-nothing: Finish either keeps
// all of its rows or puts the table back as it was.
//
// Uniqueness is checked per statement, not per row. A row's old index keys
// leave the trees before its new keys go in, and a new unique key that
// collides is parked instead of failing; Finish retries the parked keys once
// every row is applied. So a statement that permutes keys among the rows it
// touches — `SET k = k + 1`, `SET k = k - 1`, `SET k = 100 - k` — succeeds
// in any row order, and a collision left after the retry is a real
// violation.
type Write struct {
	t      *Table
	undo   []undoRec
	parked []parkedKey
	// key and row are scratch encodings reused across rows.
	key, row []byte
}

// undoRec reverses one applied row: the row now at rid goes (when live), and
// old comes back (when non-nil). An insert has no old row; a delete leaves
// nothing live.
type undoRec struct {
	rid  heap.RID
	live bool
	old  sqltypes.Row
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

// Update replaces the row at rid with newRow and returns the row's (possibly
// new) RID: every index drops the old key, the heap rewrites the row, every
// index takes the new key. A unique key that collides is parked for Finish.
func (w *Write) Update(rid heap.RID, newRow sqltypes.Row) (heap.RID, error) {
	t := w.t
	newRow, err := t.checkRow(newRow)
	if err != nil {
		return heap.RID{}, err
	}
	oldRow, err := t.Fetch(rid)
	if err != nil {
		return heap.RID{}, err
	}
	// The trees copy what they keep, so one scratch buffer serves every key.
	for _, ix := range t.Indexes {
		w.key = ix.appendKey(w.key[:0], oldRow, rid)
		if err := ix.Tree.Delete(w.key); err != nil {
			panic(fmt.Sprintf("catalog: index %s delete during update: %v", ix.Name, err))
		}
	}
	w.row = sqltypes.EncodeRow(w.row[:0], newRow)
	newRID, err := t.Heap.Update(rid, w.row)
	if err != nil {
		w.restoreKeys(oldRow, rid)
		return heap.RID{}, err
	}
	w.undo = append(w.undo, undoRec{rid: newRID, live: true, old: oldRow})
	t.counters.RowsUpdated.Add(1)
	for _, ix := range t.Indexes {
		w.key = ix.appendKey(w.key[:0], newRow, newRID)
		err := ix.Tree.Insert(w.key, newRID)
		switch {
		case err == nil:
		case ix.Unique && errors.Is(err, btree.ErrDuplicate):
			w.parked = append(w.parked, parkedKey{ix: ix, key: bytes.Clone(w.key), rid: newRID, row: newRow})
		default:
			return heap.RID{}, fmt.Errorf("index %s: %w", ix.Name, err)
		}
	}
	return newRID, nil
}

// Delete removes the row at rid and its index entries.
func (w *Write) Delete(rid heap.RID) error {
	t := w.t
	row, err := t.Fetch(rid)
	if err != nil {
		return err
	}
	for _, ix := range t.Indexes {
		w.key = ix.appendKey(w.key[:0], row, rid)
		if err := ix.Tree.Delete(w.key); err != nil {
			panic(fmt.Sprintf("catalog: index %s delete: %v", ix.Name, err))
		}
	}
	if err := t.Heap.Delete(rid); err != nil {
		w.restoreKeys(row, rid)
		return err
	}
	w.undo = append(w.undo, undoRec{old: row})
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
				}
				err = fmt.Errorf("unique index %s: duplicate key %s", pk.ix.Name, describeKey(pk.ix, pk.row))
				break
			}
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
	rid := u.rid
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
			}
		}
		if u.old == nil {
			return t.Heap.Delete(rid)
		}
		if rid, err = t.Heap.Update(rid, sqltypes.EncodeRow(nil, u.old)); err != nil {
			return err
		}
	} else {
		var err error
		if rid, err = t.Heap.Insert(sqltypes.EncodeRow(nil, u.old)); err != nil {
			return err
		}
	}
	w.restoreKeys(u.old, rid)
	return nil
}

// restoreKeys puts row's index entries back at rid.
func (w *Write) restoreKeys(row sqltypes.Row, rid heap.RID) {
	for _, ix := range w.t.Indexes {
		if err := ix.Tree.Insert(ix.keyFor(row, rid), rid); err != nil {
			panic(fmt.Sprintf("catalog: index %s insert during rollback: %v", ix.Name, err))
		}
	}
}
