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

// ridSuffixLen is the width of the RID suffix of a non-unique index key.
const ridSuffixLen = 6

// Shift is one UPDATE of a single column whose new values keep every index
// that holds the column in its order: `SET k = k + 1 WHERE k >= ?` moves
// the entries it touches up without passing any entry it leaves alone. Such
// a statement rewrites each of those indexes' runs of entries in place
// (btree.Rewrite) and each row's value in the heap, instead of moving every
// entry with a Replace of its own.
//
// The caller sets every matched row, then calls Apply, which checks before
// it writes anything that the new keys really keep their order. When they
// do not, Apply reports false and the caller runs the statement through
// UpdateFrom row by row, which handles any UPDATE.
//
// A Shift keeps no index key: only each row's new value. Apply builds one
// index's old keys at a time, in one buffer, from the rows' encodings, to
// order and check that index's rewrite; a new key is the entry's old key
// with the value and the RID replaced, built when the tree writes it.
type Shift struct {
	w   *Write
	col int
	// rids and row give each matched row's RID and current encoding; the
	// caller keeps both unchanged until Apply returns.
	rids []heap.RID
	row  func(i int) []byte
	// Rows are set from the last to the first: set counts them, and the
	// k-th set row's new value, row-encoded, ends at offset news[k] of
	// vals. cols are the columns the rewritten indexes hold, and the k-th
	// set row's value of cols[a] lies at [spans[w*k+2*a], spans[w*k+2*a+1])
	// of its encoding, w being 2*len(cols).
	set   int
	vals  ByteStore
	news  []int
	cols  []int
	spans []uint16
	// keys holds the old keys of the index Apply is preparing, row i's
	// ending at offset ends[i].
	keys   []byte
	ends   []int
	starts []int
	buf    []byte
	ixs    []shiftIndex
	// grows is set when some row's encoding changes length, which may move
	// the row in the heap.
	grows bool
	// moved, once the heap is written, holds each row's new RID; nil when
	// no row moved.
	moved []heap.RID
}

// shiftIndex is one index that holds the shifted column, its pos-th; its
// columns are cols[at[0]], cols[at[1]], … of the Shift. Its old keys take
// size bytes.
// In key order, entry j is row perm[j] (row j when perm is nil): the index's
// side of the shift is a btree.RewriteKeys, whose new keys are built in buf.
type shiftIndex struct {
	s    *Shift
	ix   *Index
	pos  int
	at   []int
	size int
	perm []int32
	buf  []byte
}

// Shift starts an order-preserving update of column col over the rows at
// rids, whose current encodings row returns.
func (w *Write) Shift(col int, rids []heap.RID, row func(i int) []byte) *Shift {
	s := &Shift{w: w, col: col, rids: rids, row: row, news: make([]int, len(rids))}
	for _, ix := range w.t.Indexes {
		pos := slices.Index(ix.Columns, col)
		if pos < 0 {
			continue
		}
		x := shiftIndex{s: s, ix: ix, pos: pos}
		for _, c := range ix.Columns {
			a := slices.Index(s.cols, c)
			if a < 0 {
				a = len(s.cols)
				s.cols = append(s.cols, c)
			}
			x.at = append(x.at, a)
		}
		s.ixs = append(s.ixs, x)
	}
	s.spans = make([]uint16, 2*len(s.cols)*len(rids))
	return s
}

// A row's offsets fit in 16 bits.
const _ uint16 = heap.MaxRowSize

// Reads returns which of the table's columns Set reads of a row: those of
// the indexes the shift rewrites.
func (s *Shift) Reads() []bool {
	want := make([]bool, len(s.w.t.Columns))
	for _, c := range s.cols {
		want[c] = true
	}
	return want
}

// Set records that row i, read as oldRow (decoded), gets v in the shifted
// column. Rows are set from the last to the first, as RunUpdate evaluates
// them. It checks v and the new keys' sizes as UpdateFrom would, and
// reports the same errors.
func (s *Shift) Set(i int, oldRow sqltypes.Row, v sqltypes.Value) error {
	n, k := len(s.rids), s.set
	if i != n-1-k {
		panic(fmt.Sprintf("catalog: Shift.Set(%d) after %d of %d rows", i, k, n))
	}
	v, err := s.w.t.checkValue(s.col, v)
	if err != nil {
		return err
	}
	if s.starts, err = sqltypes.RowValueStarts(s.starts[:0], s.row(i)); err != nil {
		return fmt.Errorf("table %s row %s: %w", s.w.t.Name, s.rids[i], err)
	}
	w := 2 * len(s.cols)
	for a, c := range s.cols {
		s.spans[w*k+2*a], s.spans[w*k+2*a+1] = uint16(s.starts[c]), uint16(s.starts[c+1])
	}
	s.buf = sqltypes.AppendRowValue(s.buf[:0], v)
	s.news[k] = s.vals.Append(s.buf)
	s.grows = s.grows || len(s.buf) != sqltypes.RowValueLen(oldRow[s.col])
	// A key grows by what the value's encoding grows by.
	oldLen, newLen := sqltypes.KeyLen(oldRow[s.col]), sqltypes.KeyLen(v)
	for xi := range s.ixs {
		x := &s.ixs[xi]
		size := 0
		for _, c := range x.ix.Columns {
			size += sqltypes.KeyLen(oldRow[c])
		}
		if !x.ix.Unique {
			size += ridSuffixLen
		}
		x.size += size
		if size += newLen - oldLen; newLen > oldLen && size > btree.MaxKeySize {
			return fmt.Errorf("index %s: %d-byte key: %w", x.ix.Name, size, btree.ErrKeyTooLarge)
		}
	}
	s.set++
	return nil
}

// newVal returns the k-th set row's new value, row-encoded.
func (s *Shift) newVal(k int) []byte {
	prev := 0
	if k > 0 {
		prev = s.news[k-1]
	}
	return s.vals.Slice(prev, s.news[k])
}

// Apply writes the shift when it keeps every index's order and reports
// whether it did. False means nothing was written: some new key would pass
// an entry, collide, or overfill a node, and the statement must take the
// general path. Otherwise the heap rows are rewritten first, then each index
// rewrites its runs; a row the heap moved (its encoding grew out of its page)
// takes its new RID into every index, the ones without the column too.
//
// All checks come before the first write. The heap writes are the only step
// that can still fail; Apply then puts the rows it rewrote back and returns
// the error. Once they succeed, the index rewrites cannot fail. Apply logs
// nothing for undo, so it must be the statement's last step: the Write
// finishes right after it.
func (s *Shift) Apply() (bool, error) {
	t := s.w.t
	n := len(s.rids)
	if n == 0 {
		return true, nil
	}
	if s.set != n {
		panic(fmt.Sprintf("catalog: Shift.Apply after %d of %d rows", s.set, n))
	}
	size := 0
	for _, x := range s.ixs {
		size = max(size, x.size)
	}
	s.keys, s.ends = make([]byte, 0, size), make([]int, n)
	rws := make([]*btree.Rewrite, len(s.ixs))
	for xi := range s.ixs {
		x := &s.ixs[xi]
		x.load()
		x.order()
		// A moved row changes its RID suffix after this check, so the order
		// must then be decided by the columns alone.
		tail := 0
		if s.grows && !x.ix.Unique {
			tail = ridSuffixLen
		}
		rw, ok := x.ix.Tree.PrepareRewrite(x, tail)
		if !ok {
			return false, nil
		}
		rws[xi] = rw
	}

	// The rows are written in the order they were set, the order UpdateFrom
	// writes them in, so the heap places (and moves) them as it would.
	buf := s.buf
	for i := n - 1; i >= 0; i-- {
		rid, old, k := s.rids[i], s.row(i), n-1-i
		from, to, err := sqltypes.RowValueSpan(old, s.col)
		if err != nil {
			return true, s.revertRows(i+1, err)
		}
		buf = append(append(append(buf[:0], old[:from]...), s.newVal(k)...), old[to:]...)
		nr, err := t.Heap.Update(rid, buf)
		if err != nil {
			return true, s.revertRows(i+1, err)
		}
		if nr != rid && s.moved == nil {
			s.moved = slices.Clone(s.rids)
		}
		if s.moved != nil {
			s.moved[i] = nr
		}
	}
	for _, rw := range rws {
		rw.Apply()
	}
	var moved []int
	for i, rid := range s.moved {
		if rid != s.rids[i] {
			moved = append(moved, i)
		}
	}
	if len(moved) > 0 {
		s.follow(moved, s.moved, false)
	}
	t.counters.RowsUpdated.Add(int64(n))
	t.counters.RowsShifted.Add(int64(n))
	t.counters.IndexWrites.Add(int64(n*len(s.ixs) + len(moved)*(len(t.Indexes)-len(s.ixs))))
	return true, nil
}

// load builds the index's old keys in Shift.keys, which then holds no other
// index's: only PrepareRewrite reads them.
func (x *shiftIndex) load() {
	s := x.s
	s.keys = s.keys[:0]
	n, w := len(s.rids), 2*len(s.cols)
	for i, rid := range s.rids {
		row, spans := s.row(i), s.spans[w*(n-1-i):]
		for _, a := range x.at {
			s.keys = sqltypes.AppendKeyFromRowValue(s.keys, row[spans[2*a]:spans[2*a+1]])
		}
		if !x.ix.Unique {
			s.keys = AppendRID(s.keys, rid)
		}
		s.ends[i] = len(s.keys)
	}
}

// order sets perm to the rows' order by old key, nil when they are in it.
func (x *shiftIndex) order() {
	x.perm = nil
	n := len(x.s.rids)
	for j := 1; j < n; j++ {
		if bytes.Compare(x.oldKey(j-1), x.oldKey(j)) > 0 {
			x.perm = orderKeys(n, x.oldKey, len(x.ix.Columns))
			return
		}
	}
}

// oldKey returns row i's old key, once load built them.
func (x *shiftIndex) oldKey(i int) []byte {
	start := 0
	if i > 0 {
		start = x.s.ends[i-1]
	}
	return x.s.keys[start:x.s.ends[i]]
}

// row returns the row of entry j in key order.
func (x *shiftIndex) row(j int) int {
	if x.perm == nil {
		return j
	}
	return int(x.perm[j])
}

// Len, Old, New and RID make the index's side of the shift a
// btree.RewriteKeys.
func (x *shiftIndex) Len() int         { return len(x.s.rids) }
func (x *shiftIndex) Old(j int) []byte { return x.oldKey(x.row(j)) }

// New is old with the column's value replaced by the row's new one and, in
// a non-unique index, the RID suffix by the row's current RID.
func (x *shiftIndex) New(j int, old []byte) []byte {
	i := x.row(j)
	from := 0
	for range x.pos {
		from += sqltypes.KeyValueLen(old[from:])
	}
	to, end := from+sqltypes.KeyValueLen(old[from:]), len(old)
	if !x.ix.Unique {
		end -= ridSuffixLen
	}
	x.buf = sqltypes.AppendKeyFromRowValue(append(x.buf[:0], old[:from]...), x.s.newVal(len(x.s.rids)-1-i))
	x.buf = append(x.buf, old[to:end]...)
	if !x.ix.Unique {
		x.buf = AppendRID(x.buf, x.s.rid(i))
	}
	return x.buf
}

func (x *shiftIndex) RID(j int) heap.RID { return x.s.rid(x.row(j)) }

// rid returns row i's current RID.
func (s *Shift) rid(i int) heap.RID {
	if s.moved != nil {
		return s.moved[i]
	}
	return s.rids[i]
}

// revertRows puts back the old encodings of rows first.. (the last ones),
// whose heap writes succeeded before err, newest first; the indexes were
// not touched yet. A row the heap moves, either way, takes its RID into the
// indexes.
func (s *Shift) revertRows(first int, err error) error {
	t := s.w.t
	var errs []error
	back := make([]heap.RID, len(s.rids))
	var moved []int
	for i := first; i < len(s.rids); i++ {
		rid, uerr := t.Heap.Update(s.rid(i), s.row(i))
		if uerr != nil {
			errs = append(errs, uerr)
			rid = s.rids[i]
		}
		back[i] = rid
		if rid != s.rids[i] {
			moved = append(moved, i)
		}
	}
	if len(moved) > 0 {
		s.follow(moved, back, true)
	}
	if len(errs) > 0 {
		return errors.Join(err, fmt.Errorf("table %s: undo: %w", t.Name, errors.Join(errs...)))
	}
	return err
}

// follow re-points the index entries of the moved rows from their RIDs to
// those in to: every index's entry when all is set (the rows hold their old
// values), else those of the indexes without the shifted column (the
// rewrite re-pointed the others). It deletes every old entry before it
// inserts a new one, so no new entry meets an old one with its key. The
// rows were read before, so a row that does not decode is corruption.
func (s *Shift) follow(moved []int, to []heap.RID, all bool) {
	t := s.w.t
	rows := make([]sqltypes.Row, len(moved))
	for k, i := range moved {
		row, err := sqltypes.DecodeRow(s.row(i))
		if err != nil {
			panic(fmt.Sprintf("catalog: table %s row %s: %v", t.Name, s.rids[i], err))
		}
		rows[k] = row
	}
	for _, ix := range t.Indexes {
		if !all && slices.Contains(ix.Columns, s.col) {
			continue
		}
		for k, i := range moved {
			if err := ix.Tree.Delete(ix.keyFor(rows[k], s.rids[i])); err != nil {
				panic(fmt.Sprintf("catalog: index %s delete: %v", ix.Name, err))
			}
		}
		for k, i := range moved {
			if err := ix.Tree.Insert(ix.keyFor(rows[k], to[i]), to[i]); err != nil {
				panic(fmt.Sprintf("catalog: index %s insert: %v", ix.Name, err))
			}
		}
		if all {
			t.counters.IndexWrites.Add(int64(2 * len(moved)))
		}
	}
}
