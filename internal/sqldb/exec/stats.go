package exec

import (
	"fmt"
	"strings"
	"time"

	"ordxml/internal/sqldb/plan"
	"ordxml/internal/sqldb/sqltypes"
)

// OpStats holds the runtime counters for one plan node, collected when a
// query runs under EXPLAIN ANALYZE. Time is inclusive: a parent's duration
// contains the time spent pulling rows from its children, mirroring the
// convention of Postgres' EXPLAIN ANALYZE output.
type OpStats struct {
	Rows  int64
	Loops int64
	Time  time.Duration
}

// statsOp decorates an operator, attributing wall time and row counts to its
// plan node. The decorator exists only under Env.Stats, so normal execution
// pays nothing.
type statsOp struct {
	op Operator
	st *OpStats
}

func (s *statsOp) Open() error {
	start := time.Now()
	err := s.op.Open()
	s.st.Time += time.Since(start)
	s.st.Loops++
	return err
}

func (s *statsOp) Next() (sqltypes.Row, bool, error) {
	start := time.Now()
	row, ok, err := s.op.Next()
	s.st.Time += time.Since(start)
	if ok {
		s.st.Rows++
	}
	return row, ok, err
}

func (s *statsOp) Close() { s.op.Close() }

// FormatAnalyze renders the plan tree with per-operator actuals appended to
// each line, e.g.
//
//	SeqScan edge (actual rows=42 loops=1 time=17µs)
func FormatAnalyze(n plan.Node, stats map[plan.Node]*OpStats) string {
	return plan.ExplainAnnotated(n, func(node plan.Node, b *strings.Builder) {
		if st := stats[node]; st != nil {
			fmt.Fprintf(b, " (actual rows=%d loops=%d time=%s)",
				st.Rows, st.Loops, st.Time.Round(time.Microsecond))
		}
	})
}
