package exec

import (
	"fmt"

	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/plan"
	"ordxml/internal/sqldb/sqltypes"
)

// seqScanOp streams every table row through the residual filters.
type seqScanOp struct {
	node *plan.SeqScan
	env  *expr.Env
	data *catalog.TableData
	iter *catalog.RowIter
	buf  sqltypes.Row
	gov  *govTick
}

func newSeqScan(n *plan.SeqScan, params []sqltypes.Value, env Env) *seqScanOp {
	return &seqScanOp{node: n, env: &expr.Env{Params: params}, data: env.data(n.Table), gov: env.newTick()}
}

func (s *seqScanOp) Open() error {
	s.iter = s.data.RowIter()
	width := len(s.node.Table.Columns)
	if s.node.EmitRID {
		width++
	}
	s.buf = make(sqltypes.Row, 0, width)
	return nil
}

func (s *seqScanOp) Next() (sqltypes.Row, bool, error) {
	for {
		// Scans are the leaves under nearly every plan, so polling here gives
		// the whole tree cooperative cancellation.
		if err := s.gov.step(); err != nil {
			return nil, false, err
		}
		rid, row, ok, err := s.iter.Next(s.buf[:0])
		if err != nil || !ok {
			return nil, false, err
		}
		if s.node.EmitRID {
			row = append(row, sqltypes.NewInt(EncodeRIDInt(rid)))
		}
		s.buf = row
		s.env.Row = s.buf
		pass, err := passesAll(s.node.Filters, s.env)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return s.buf, true, nil
		}
	}
}

func (s *seqScanOp) Close() {}

func passesAll(filters []expr.Expr, env *expr.Env) (bool, error) {
	for _, f := range filters {
		ok, err := expr.EvalBool(f, env)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// indexScanOp streams rows matching an index range.
type indexScanOp struct {
	node   *plan.IndexScan
	env    *expr.Env
	data   *catalog.TableData
	iter   *catalog.IndexIter // nil when a NULL bound makes the scan empty
	bounds indexBounds
	buf    sqltypes.Row
	gov    *govTick
	// raw, set by a DML statement's collectDML on a scan with no residual
	// filter, has Next emit only the RID, with the row's encoding in rawRow.
	raw    bool
	rawRow []byte
}

func newIndexScan(n *plan.IndexScan, params []sqltypes.Value, env Env) *indexScanOp {
	return &indexScanOp{node: n, env: &expr.Env{Params: params}, data: env.data(n.Table), gov: env.newTick()}
}

// indexBounds holds the bounds of one index probe — an equality prefix over
// the leading index columns, then an optional range on the next column —
// with storage reused from probe to probe.
type indexBounds struct {
	eq        []sqltypes.Value
	low, high sqltypes.Value
}

// eval evaluates the bound expressions of a probe of index ix on table t
// against env, coercing each to its index column's type so key encoding
// matches stored keys. ok=false means a bound is NULL, so no row can match:
// SQL comparisons with NULL never hold. low and high point into b, or are
// nil when the range is open on that side.
func (b *indexBounds) eval(t *catalog.Table, ix *catalog.Index, eq []expr.Expr, lowE, highE expr.Expr, env *expr.Env) (low, high *sqltypes.Value, ok bool, err error) {
	b.eq = b.eq[:0]
	for i, e := range eq {
		v, err := indexBound(t, ix, i, e, env)
		if err != nil || v.IsNull() {
			return nil, nil, false, err
		}
		b.eq = append(b.eq, v)
	}
	if lowE != nil {
		if b.low, err = indexBound(t, ix, len(eq), lowE, env); err != nil || b.low.IsNull() {
			return nil, nil, false, err
		}
		low = &b.low
	}
	if highE != nil {
		if b.high, err = indexBound(t, ix, len(eq), highE, env); err != nil || b.high.IsNull() {
			return nil, nil, false, err
		}
		high = &b.high
	}
	return low, high, true, nil
}

// indexBound evaluates one bound and coerces a non-NULL result to the type
// of index column col.
func indexBound(t *catalog.Table, ix *catalog.Index, col int, e expr.Expr, env *expr.Env) (sqltypes.Value, error) {
	v, err := expr.Eval(e, env)
	if err != nil || v.IsNull() {
		return v, err
	}
	cv, err := sqltypes.Coerce(v, t.Columns[ix.Columns[col]].Type)
	if err != nil {
		return cv, fmt.Errorf("index %s column %d: %w", ix.Name, col, err)
	}
	return cv, nil
}

func (s *indexScanOp) Open() error {
	n := s.node
	low, high, ok, err := s.bounds.eval(n.Table, n.Index, n.Eq, n.Low, n.High, s.env)
	if err != nil {
		return err
	}
	s.iter = nil
	if ok {
		s.iter = s.data.IndexIter(n.Index, s.bounds.eq, low, high, n.LowExcl, n.HighExcl, n.Desc)
	}
	width := len(s.node.Table.Columns)
	if s.node.EmitRID {
		width++
	}
	s.buf = make(sqltypes.Row, 0, width)
	return nil
}

func (s *indexScanOp) Next() (sqltypes.Row, bool, error) {
	if s.iter == nil {
		return nil, false, nil
	}
	for {
		if err := s.gov.step(); err != nil {
			return nil, false, err
		}
		rid, ok := s.iter.Next()
		if !ok {
			return nil, false, nil
		}
		if s.raw {
			var err error
			if s.rawRow, err = s.data.Get(rid); err != nil {
				return nil, false, fmt.Errorf("index %s points at missing row: %w", s.node.Index.Name, err)
			}
			s.buf = append(s.buf[:0], sqltypes.NewInt(EncodeRIDInt(rid)))
			return s.buf, true, nil
		}
		row, err := s.data.FetchInto(rid, s.buf[:0])
		if err != nil {
			return nil, false, fmt.Errorf("index %s points at missing row: %w", s.node.Index.Name, err)
		}
		if s.node.EmitRID {
			row = append(row, sqltypes.NewInt(EncodeRIDInt(rid)))
		}
		s.buf = row
		s.env.Row = s.buf
		pass, err := passesAll(s.node.Filters, s.env)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return s.buf, true, nil
		}
	}
}

func (s *indexScanOp) Close() {}

// paramScanOp streams the rows bound to a relation parameter: the value is a
// BLOB holding the rows' sqltypes.EncodeRow encodings back to back, decoded
// one row at a time into the operator's buffer.
type paramScanOp struct {
	node   *plan.ParamScan
	params []sqltypes.Value
	gov    *govTick
	data   []byte
	buf    sqltypes.Row
}

func (s *paramScanOp) Open() error {
	if s.node.Param >= len(s.params) {
		return fmt.Errorf("parameter %d not bound (%d given)", s.node.Param+1, len(s.params))
	}
	v := s.params[s.node.Param]
	if v.Type() != sqltypes.Blob {
		return fmt.Errorf("parameter %d binds relation %s: want encoded rows (BLOB), got %s",
			s.node.Param+1, s.node.Alias, v.Type())
	}
	s.data = v.Blob()
	s.buf = make(sqltypes.Row, 0, len(s.node.Cols))
	return nil
}

func (s *paramScanOp) Next() (sqltypes.Row, bool, error) {
	if len(s.data) == 0 {
		return nil, false, nil
	}
	if err := s.gov.step(); err != nil {
		return nil, false, err
	}
	row, n, err := sqltypes.DecodeRowInto(s.buf[:0], s.data)
	if err != nil {
		return nil, false, fmt.Errorf("relation %s: %w", s.node.Alias, err)
	}
	if len(row) != len(s.node.Cols) {
		return nil, false, fmt.Errorf("relation %s: row has %d values, want %d", s.node.Alias, len(row), len(s.node.Cols))
	}
	s.data, s.buf = s.data[n:], row
	return row, true, nil
}

func (s *paramScanOp) Close() {}
