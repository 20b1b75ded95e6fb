package exec

import (
	"slices"

	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/plan"
	"ordxml/internal/sqldb/sqltypes"
)

// filterOp drops rows failing the predicate.
type filterOp struct {
	input Operator
	pred  expr.Expr
	env   *expr.Env
}

func (f *filterOp) Open() error { return f.input.Open() }

func (f *filterOp) Next() (sqltypes.Row, bool, error) {
	for {
		row, ok, err := f.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.env.Row = row
		pass, err := expr.EvalBool(f.pred, f.env)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return row, true, nil
		}
	}
}

func (f *filterOp) Close() { f.input.Close() }

// projectOp evaluates the output expressions.
type projectOp struct {
	input Operator
	exprs []expr.Expr
	env   *expr.Env
	buf   sqltypes.Row
}

func (p *projectOp) Open() error {
	p.buf = make(sqltypes.Row, len(p.exprs))
	return p.input.Open()
}

func (p *projectOp) Next() (sqltypes.Row, bool, error) {
	row, ok, err := p.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.env.Row = row
	for i, e := range p.exprs {
		v, err := expr.Eval(e, p.env)
		if err != nil {
			return nil, false, err
		}
		p.buf[i] = v
	}
	return p.buf, true, nil
}

func (p *projectOp) Close() { p.input.Close() }

// trimOp drops hidden trailing columns.
type trimOp struct {
	input Operator
	keep  int
}

func (t *trimOp) Open() error { return t.input.Open() }

func (t *trimOp) Next() (sqltypes.Row, bool, error) {
	row, ok, err := t.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return row[:t.keep], true, nil
}

func (t *trimOp) Close() { t.input.Close() }

// sortOp materializes and sorts its input. Buffered rows are copied into
// chunks of one backing array that never move: a chunk holds as many rows as
// all earlier chunks together, from sortChunkRows up to maxSortChunkRows, so
// a sort makes a few allocations however many rows it holds, wastes at most
// one chunk's tail, and copies no row twice. The rows it returns point into
// those chunks, which no later call reuses.
type sortOp struct {
	input Operator
	keys  []plan.SortKey
	gov   *govTick
	rows  []sqltypes.Row
	pos   int
}

// sortChunkRows and maxSortChunkRows bound the rows of one sort chunk: the
// first chunk is small for the common small sort, and a cap keeps the unused
// tail of the last chunk of a large sort under 1,024 rows.
const (
	sortChunkRows    = 16
	maxSortChunkRows = 1024
)

func (s *sortOp) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	s.rows, s.pos = nil, 0
	var chunk []sqltypes.Value
	for {
		row, ok, err := s.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		// The sort buffer holds the whole input: charge every buffered row.
		if err := s.gov.chargeRow(row); err != nil {
			return err
		}
		if cap(chunk)-len(chunk) < len(row) {
			chunk = make([]sqltypes.Value, 0, min(max(len(s.rows), sortChunkRows), maxSortChunkRows)*len(row))
		}
		chunk = append(chunk, row...)
		s.rows = append(s.rows, chunk[len(chunk)-len(row):len(chunk):len(chunk)])
	}
	slices.SortStableFunc(s.rows, func(a, b sqltypes.Row) int {
		for _, k := range s.keys {
			if c := sqltypes.Compare(a[k.Col], b[k.Col]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return nil
}

func (s *sortOp) Next() (sqltypes.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

func (s *sortOp) Close() { s.input.Close() }

// limitOp applies LIMIT/OFFSET.
type limitOp struct {
	input   Operator
	node    *plan.Limit
	env     *expr.Env
	skip    int64
	remain  int64
	bounded bool
}

func (l *limitOp) Open() error {
	l.skip, l.remain, l.bounded = 0, 0, false
	if l.node.Offset != nil {
		v, err := expr.Eval(l.node.Offset, l.env)
		if err != nil {
			return err
		}
		if !v.IsNull() {
			cv, err := sqltypes.Coerce(v, sqltypes.Int)
			if err != nil {
				return err
			}
			l.skip = cv.Int()
		}
	}
	if l.node.Limit != nil {
		v, err := expr.Eval(l.node.Limit, l.env)
		if err != nil {
			return err
		}
		if !v.IsNull() {
			cv, err := sqltypes.Coerce(v, sqltypes.Int)
			if err != nil {
				return err
			}
			l.remain = cv.Int()
			l.bounded = true
		}
	}
	return l.input.Open()
}

func (l *limitOp) Next() (sqltypes.Row, bool, error) {
	for l.skip > 0 {
		_, ok, err := l.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		l.skip--
	}
	if l.bounded {
		if l.remain <= 0 {
			return nil, false, nil
		}
		l.remain--
	}
	return l.input.Next()
}

func (l *limitOp) Close() { l.input.Close() }

// distinctOp suppresses duplicate rows.
type distinctOp struct {
	input Operator
	gov   *govTick
	seen  map[string]struct{}
}

func (d *distinctOp) Open() error {
	d.seen = map[string]struct{}{}
	return d.input.Open()
}

func (d *distinctOp) Next() (sqltypes.Row, bool, error) {
	for {
		row, ok, err := d.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		key := string(sqltypes.EncodeKey(nil, row...))
		if _, dup := d.seen[key]; dup {
			continue
		}
		// The seen-set grows with distinct output: charge each retained key.
		if err := d.gov.charge(int64(len(key)) + 48); err != nil {
			return nil, false, err
		}
		d.seen[key] = struct{}{}
		return row, true, nil
	}
}

func (d *distinctOp) Close() { d.input.Close() }
