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
	// Workers holds the per-worker breakdown for operators that ran under a
	// Gather (one entry per worker, in worker order) or for a partitioned
	// hash join (one entry per partition). For such operators the top-level
	// Rows/Loops are sums across workers and Time is the slowest worker.
	Workers []*OpStats
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
//
// Operators that ran across Gather workers (or join partitions) additionally
// report each worker's row count:
//
//	SeqScan parallel edge (actual rows=42 loops=4 time=9µs) [workers rows=11/10/12/9]
func FormatAnalyze(n plan.Node, stats map[plan.Node]*OpStats) string {
	return plan.ExplainAnnotated(n, func(node plan.Node, b *strings.Builder) {
		st := stats[node]
		if st == nil {
			return
		}
		fmt.Fprintf(b, " (actual rows=%d loops=%d time=%s)",
			st.Rows, st.Loops, st.Time.Round(time.Microsecond))
		if len(st.Workers) > 0 {
			b.WriteString(" [workers rows=")
			for i, w := range st.Workers {
				if i > 0 {
					b.WriteByte('/')
				}
				fmt.Fprintf(b, "%d", w.Rows)
			}
			b.WriteByte(']')
		}
	})
}
