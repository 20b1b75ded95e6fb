package exec

import (
	"fmt"

	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/plan"
	"ordxml/internal/sqldb/sqltypes"
)

// indexNLJoinOp probes the inner table's index once per left row, with
// bounds computed from that row. One iterator serves the whole run: the
// first probe seeks it, and every later probe moves it on with Reseek, so
// left rows bound in index key order share the B+tree path.
type indexNLJoinOp struct {
	node *plan.IndexNLJoin
	left Operator
	env  *expr.Env
	data *catalog.TableData
	gov  *govTick

	inner *catalog.IndexIter
	// probing is set while inner walks the current left row's matches.
	probing bool
	// buf is the output row: buf[:leftWidth] holds the current left row for
	// the whole of its inner scan, and each inner row is decoded in place
	// behind it.
	buf       sqltypes.Row
	leftWidth int
	// bounds are the probe bounds, re-evaluated per left row.
	bounds indexBounds
}

func newIndexNLJoin(n *plan.IndexNLJoin, left Operator, params []sqltypes.Value, env Env) *indexNLJoinOp {
	return &indexNLJoinOp{node: n, left: left, env: &expr.Env{Params: params},
		data: env.data(n.Table), gov: env.newTick()}
}

func (j *indexNLJoinOp) Open() error {
	j.leftWidth = len(j.node.Left.Schema())
	j.buf = make(sqltypes.Row, j.leftWidth, j.leftWidth+len(j.node.Table.Columns))
	j.inner, j.probing = nil, false
	return j.left.Open()
}

// probe positions the inner iterator on the current left row's matches;
// ok=false means the row cannot match (a NULL bound).
func (j *indexNLJoinOp) probe() (bool, error) {
	n := j.node
	j.env.Row = j.buf[:j.leftWidth]
	low, high, ok, err := j.bounds.eval(n.Table, n.Index, n.Eq, n.Low, n.High, j.env)
	if !ok {
		return false, err
	}
	if j.inner == nil {
		j.inner = j.data.IndexIter(n.Index, j.bounds.eq, low, high, n.LowExcl, n.HighExcl, false)
		return true, nil
	}
	// The iterator keeps index nodes from one probe to the next. That holds
	// because the view a statement reads does not change while its operator
	// tree runs: snapshot views are immutable, and the live view is read only
	// by DML scans, which materialize every match before the first write.
	j.inner.Reseek(j.bounds.eq, low, high, n.LowExcl, n.HighExcl)
	return true, nil
}

func (j *indexNLJoinOp) Next() (sqltypes.Row, bool, error) {
	for {
		// The inner index probe bypasses the leaf scans, so this loop polls
		// for cancellation itself.
		if err := j.gov.step(); err != nil {
			return nil, false, err
		}
		if !j.probing {
			leftRow, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			copy(j.buf[:j.leftWidth], leftRow)
			ok, err = j.probe()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
			j.probing = true
		}
		rid, ok := j.inner.Next()
		if !ok {
			j.probing = false
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
