package exec

import (
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/plan"
	"ordxml/internal/sqldb/sqltypes"
)

// hashJoinOp builds a hash table on the right input keyed by the join
// columns, then streams the left input probing it. Rows with NULL key values
// never match (SQL equality semantics).
type hashJoinOp struct {
	node       *plan.HashJoin
	left       Operator
	right      Operator
	env        *expr.Env
	gov        *govTick
	rightWidth int

	table   map[string][]sqltypes.Row
	buf     sqltypes.Row
	pending []sqltypes.Row // matches for the current left row
	leftRow sqltypes.Row
}

func (j *hashJoinOp) Open() error {
	if err := j.right.Open(); err != nil {
		return err
	}
	// The build side is closed on every exit so an abort mid-build (budget,
	// cancellation) still ends the operator spans beneath it.
	j.table = map[string][]sqltypes.Row{}
	for {
		row, ok, err := j.right.Next()
		if err != nil {
			j.right.Close()
			return err
		}
		if !ok {
			break
		}
		key, hasNull, err := j.keyFor(row, j.node.RightKeys)
		if err != nil {
			j.right.Close()
			return err
		}
		if hasNull {
			continue
		}
		// The build hash table holds the right input: charge each entry.
		if err := j.gov.chargeRow(row); err != nil {
			j.right.Close()
			return err
		}
		j.table[key] = append(j.table[key], row.Clone())
	}
	j.right.Close()
	return j.left.Open()
}

func (j *hashJoinOp) keyFor(row sqltypes.Row, keys []expr.Expr) (string, bool, error) {
	j.env.Row = row
	var buf []byte
	for _, k := range keys {
		v, err := expr.Eval(k, j.env)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		buf = sqltypes.EncodeKey(buf, v)
	}
	return string(buf), false, nil
}

func (j *hashJoinOp) Next() (sqltypes.Row, bool, error) {
	for {
		if len(j.pending) > 0 {
			match := j.pending[0]
			j.pending = j.pending[1:]
			return j.combine(j.leftRow, match), true, nil
		}
		leftRow, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.leftRow = leftRow.Clone()
		key, hasNull, err := j.keyFor(leftRow, j.node.LeftKeys)
		if err != nil {
			return nil, false, err
		}
		var matches []sqltypes.Row
		if !hasNull {
			for _, cand := range j.table[key] {
				combined := j.combine(j.leftRow, cand)
				if j.node.Residual != nil {
					j.env.Row = combined
					pass, err := expr.EvalBool(j.node.Residual, j.env)
					if err != nil {
						return nil, false, err
					}
					if !pass {
						continue
					}
				}
				matches = append(matches, cand)
			}
		}
		if len(matches) == 0 {
			if j.node.Outer {
				return j.combine(j.leftRow, make(sqltypes.Row, j.rightWidth)), true, nil
			}
			continue
		}
		j.pending = matches
	}
}

func (j *hashJoinOp) combine(l, r sqltypes.Row) sqltypes.Row {
	if j.buf == nil {
		j.buf = make(sqltypes.Row, len(l)+len(r))
	}
	copy(j.buf, l)
	copy(j.buf[len(l):], r)
	return j.buf
}

func (j *hashJoinOp) Close() { j.left.Close() }

// nlJoinOp materializes the right input and loops it per left row.
type nlJoinOp struct {
	node       *plan.NLJoin
	left       Operator
	right      Operator
	env        *expr.Env
	gov        *govTick
	rightWidth int

	rightRows []sqltypes.Row
	leftRow   sqltypes.Row
	rightPos  int
	matched   bool
	haveLeft  bool
	buf       sqltypes.Row
}

func (j *nlJoinOp) Open() error {
	if err := j.right.Open(); err != nil {
		return err
	}
	j.rightRows = nil
	for {
		row, ok, err := j.right.Next()
		if err != nil {
			j.right.Close()
			return err
		}
		if !ok {
			break
		}
		if err := j.gov.chargeRow(row); err != nil {
			j.right.Close()
			return err
		}
		j.rightRows = append(j.rightRows, row.Clone())
	}
	j.right.Close()
	j.haveLeft = false
	return j.left.Open()
}

func (j *nlJoinOp) Next() (sqltypes.Row, bool, error) {
	for {
		if !j.haveLeft {
			leftRow, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.leftRow = leftRow.Clone()
			j.rightPos = 0
			j.matched = false
			j.haveLeft = true
		}
		for j.rightPos < len(j.rightRows) {
			cand := j.rightRows[j.rightPos]
			j.rightPos++
			combined := j.combine(j.leftRow, cand)
			if j.node.On != nil {
				j.env.Row = combined
				pass, err := expr.EvalBool(j.node.On, j.env)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			j.matched = true
			return combined, true, nil
		}
		j.haveLeft = false
		if j.node.Outer && !j.matched {
			return j.combine(j.leftRow, make(sqltypes.Row, j.rightWidth)), true, nil
		}
	}
}

func (j *nlJoinOp) combine(l, r sqltypes.Row) sqltypes.Row {
	if j.buf == nil {
		j.buf = make(sqltypes.Row, len(l)+len(r))
	}
	copy(j.buf, l)
	copy(j.buf[len(l):], r)
	return j.buf
}

func (j *nlJoinOp) Close() { j.left.Close() }

// hashAggOp groups rows and folds aggregates.
type hashAggOp struct {
	node  *plan.HashAggregate
	input Operator
	env   *expr.Env
	gov   *govTick

	groups []sqltypes.Row
	pos    int
}

type aggGroup struct {
	key    sqltypes.Row
	states []*expr.AggState
}

func (a *hashAggOp) Open() error {
	if err := a.input.Open(); err != nil {
		return err
	}
	groups := map[string]*aggGroup{}
	var order []string
	newGroup := func(key sqltypes.Row) (*aggGroup, error) {
		g := &aggGroup{key: key, states: make([]*expr.AggState, len(a.node.Aggs))}
		for i, agg := range a.node.Aggs {
			st, err := expr.NewAggState(agg.Name, agg.Distinct)
			if err != nil {
				return nil, err
			}
			g.states[i] = st
		}
		return g, nil
	}
	for {
		row, ok, err := a.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		a.env.Row = row
		key := make(sqltypes.Row, len(a.node.GroupBy))
		for i, g := range a.node.GroupBy {
			v, err := expr.Eval(g, a.env)
			if err != nil {
				return err
			}
			key[i] = v
		}
		ks := string(sqltypes.EncodeKey(nil, key...))
		g, exists := groups[ks]
		if !exists {
			if g, err = newGroup(key); err != nil {
				return err
			}
			// The group table grows with distinct keys: charge the key row
			// plus a fixed overhead per aggregate state.
			if err := a.gov.charge(key.Memory() + int64(64*(len(a.node.Aggs)+1))); err != nil {
				return err
			}
			groups[ks] = g
			order = append(order, ks)
		}
		for i, agg := range a.node.Aggs {
			if agg.Star {
				g.states[i].AddStar()
				continue
			}
			v, err := expr.Eval(agg.Arg, a.env)
			if err != nil {
				return err
			}
			if err := g.states[i].Add(v); err != nil {
				return err
			}
		}
	}
	if a.node.Global && len(groups) == 0 {
		g, err := newGroup(nil)
		if err != nil {
			return err
		}
		groups[""] = g
		order = append(order, "")
	}
	a.groups = nil
	for _, ks := range order {
		g := groups[ks]
		out := make(sqltypes.Row, 0, len(g.key)+len(g.states))
		out = append(out, g.key...)
		for _, st := range g.states {
			out = append(out, st.Result())
		}
		if a.node.Having != nil {
			a.env.Row = out
			pass, err := expr.EvalBool(a.node.Having, a.env)
			if err != nil {
				return err
			}
			if !pass {
				continue
			}
		}
		a.groups = append(a.groups, out)
	}
	return nil
}

func (a *hashAggOp) Next() (sqltypes.Row, bool, error) {
	if a.pos >= len(a.groups) {
		return nil, false, nil
	}
	row := a.groups[a.pos]
	a.pos++
	return row, true, nil
}

func (a *hashAggOp) Close() { a.input.Close() }
