package exec

import (
	"fmt"

	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/plan"
	"ordxml/internal/sqldb/sqltypes"
)

// indexNLJoinOp probes the inner table's index once per left row, with
// bounds computed from that row.
type indexNLJoinOp struct {
	node *plan.IndexNLJoin
	left Operator
	env  *expr.Env
	data *catalog.TableData
	gov  *govTick

	inner *catalog.IndexIter
	// buf is the output row: buf[:leftWidth] holds the current left row for
	// the whole of its inner scan, and each inner row is decoded in place
	// behind it.
	buf       sqltypes.Row
	leftWidth int
	// eq, low and high are the probe bounds, re-evaluated per left row.
	eq        []sqltypes.Value
	low, high sqltypes.Value
}

func newIndexNLJoin(n *plan.IndexNLJoin, left Operator, params []sqltypes.Value, env Env) *indexNLJoinOp {
	return &indexNLJoinOp{node: n, left: left, env: &expr.Env{Params: params},
		data: env.data(n.Table), gov: env.newTick()}
}

func (j *indexNLJoinOp) Open() error {
	j.leftWidth = len(j.node.Left.Schema())
	j.buf = make(sqltypes.Row, j.leftWidth, j.leftWidth+len(j.node.Table.Columns))
	j.eq = make([]sqltypes.Value, len(j.node.Eq))
	j.inner = nil
	return j.left.Open()
}

// bound evaluates a bound expression against the current left row, coercing
// to the index column type. A NULL result means "no rows can match".
func (j *indexNLJoinOp) bound(e expr.Expr, col int) (sqltypes.Value, error) {
	j.env.Row = j.buf[:j.leftWidth]
	v, err := expr.Eval(e, j.env)
	if err != nil || v.IsNull() {
		return v, err
	}
	t := j.node.Table.Columns[j.node.Index.Columns[col]].Type
	cv, err := sqltypes.Coerce(v, t)
	if err != nil {
		return cv, fmt.Errorf("index %s column %d: %w", j.node.Index.Name, col, err)
	}
	return cv, nil
}

// openInner starts the index scan for the current left row; ok=false means
// the row cannot match (NULL bound).
func (j *indexNLJoinOp) openInner() (bool, error) {
	for i, e := range j.node.Eq {
		v, err := j.bound(e, i)
		if err != nil || v.IsNull() {
			return false, err
		}
		j.eq[i] = v
	}
	var low, high *sqltypes.Value
	var err error
	if j.node.Low != nil {
		if j.low, err = j.bound(j.node.Low, len(j.eq)); err != nil || j.low.IsNull() {
			return false, err
		}
		low = &j.low
	}
	if j.node.High != nil {
		if j.high, err = j.bound(j.node.High, len(j.eq)); err != nil {
			return false, err
		}
		// A NULL upper bound is PREFIX_SUCC of an all-0xFF prefix: scan to
		// the end of the equality prefix.
		if !j.high.IsNull() {
			high = &j.high
		}
	}
	j.inner = j.data.IndexIter(j.node.Index, j.eq, low, high, j.node.LowExcl, j.node.HighExcl, false)
	return true, nil
}

func (j *indexNLJoinOp) Next() (sqltypes.Row, bool, error) {
	for {
		// The inner index probe bypasses the leaf scans, so this loop polls
		// for cancellation itself.
		if err := j.gov.step(); err != nil {
			return nil, false, err
		}
		if j.inner == nil {
			leftRow, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			copy(j.buf[:j.leftWidth], leftRow)
			ok, err = j.openInner()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
		}
		rid, ok := j.inner.Next()
		if !ok {
			j.inner = nil
			continue
		}
		row, err := j.data.FetchInto(rid, j.buf[:j.leftWidth])
		if err != nil {
			return nil, false, fmt.Errorf("index %s points at missing row: %w", j.node.Index.Name, err)
		}
		j.buf = row
		j.env.Row = j.buf
		pass, err := passesAll(j.node.Filters, j.env)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return j.buf, true, nil
		}
	}
}

func (j *indexNLJoinOp) Close() { j.left.Close() }
