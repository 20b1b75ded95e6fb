package sqldb

import (
	"context"
	"strings"
	"testing"
	"time"

	"ordxml/internal/sqldb/sqltypes"
)

func metricsTestDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("exec %q: %v", sql, err)
		}
	}
	mustExec(`CREATE TABLE node (id INT PRIMARY KEY, parent INT, tag TEXT, ord INT)`)
	mustExec(`CREATE INDEX node_parent ON node (parent, ord)`)
	for i := 1; i <= 50; i++ {
		if _, err := db.Exec(`INSERT INTO node (id, parent, tag, ord) VALUES (?, ?, ?, ?)`,
			I(int64(i)), I(int64(i/10)), S("item"), I(int64(i%10))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return db
}

func TestMetricsSnapshotCounts(t *testing.T) {
	db := metricsTestDB(t)
	for i := 0; i < 5; i++ {
		if _, err := db.Query(`SELECT id FROM node WHERE parent = ?`, I(1)); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if got := m.Counters["sqldb.queries"]; got != 5 {
		t.Errorf("sqldb.queries = %d, want 5", got)
	}
	if got := m.Histograms["sqldb.query.latency"].Count; got != 5 {
		t.Errorf("query latency count = %d, want 5", got)
	}
	if m.Counters["sqldb.execs"] == 0 {
		t.Error("sqldb.execs not counted")
	}
	// Storage access counters must be visible as gauges and move with reads.
	if _, ok := m.Gauges["storage.btree.node_reads"]; !ok {
		t.Fatalf("storage.btree.node_reads missing from snapshot gauges: %v", m.GaugeNames())
	}
	if got := m.Gauges["storage.btree.node_reads"]; got == 0 {
		t.Error("btree node reads stayed zero despite index probes")
	}
	// Plan cache counters live in the same registry: one miss plans the
	// statement, the four repeats hit, and the entry shows in the gauge.
	if got := m.Counters["sqldb.plancache.hits"]; got < 4 {
		t.Errorf("expected >=4 plan cache hits from repeated query, got %d", got)
	}
	if m.Counters["sqldb.plancache.misses"] == 0 {
		t.Error("sqldb.plancache.misses stayed zero though the statement was planned once")
	}
	if m.Gauges["sqldb.plancache.entries"] == 0 {
		t.Error("sqldb.plancache.entries gauge is zero with a cached plan")
	}
	// Row-mutation counters are gauges next to the read counters.
	if got := m.Gauges["storage.rows_inserted"]; got == 0 {
		t.Error("storage.rows_inserted stayed zero despite the fixture's inserts")
	}
}

func TestExplainAnalyzeViaQuery(t *testing.T) {
	db := metricsTestDB(t)
	res, err := db.Query(`EXPLAIN ANALYZE SELECT id FROM node WHERE parent = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v, want [plan]", res.Columns)
	}
	var text strings.Builder
	for _, row := range res.Rows {
		text.WriteString(row[0].Text())
		text.WriteByte('\n')
	}
	out := text.String()
	if !strings.Contains(out, "actual rows=") || !strings.Contains(out, "loops=") {
		t.Errorf("EXPLAIN ANALYZE output missing actuals:\n%s", out)
	}
	if !strings.Contains(out, "Total: rows=") {
		t.Errorf("EXPLAIN ANALYZE output missing total line:\n%s", out)
	}
	// Plain EXPLAIN through Query still works and carries no actuals.
	res, err = db.Query(`EXPLAIN SELECT id FROM node WHERE parent = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || strings.Contains(res.Rows[0][0].Text(), "actual") {
		t.Errorf("plain EXPLAIN unexpected output: %v", res.Rows)
	}
}

func TestExplainAnalyzeRejectsDML(t *testing.T) {
	db := metricsTestDB(t)
	if _, err := db.Query(`EXPLAIN ANALYZE DELETE FROM node WHERE id = 1`); err == nil {
		t.Fatal("EXPLAIN ANALYZE of DML should error")
	}
	// The row must still exist: ANALYZE of DML never executes.
	res, err := db.Query(`SELECT id FROM node WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("row 1 disappeared after rejected EXPLAIN ANALYZE DELETE")
	}
}

func TestExplainAnalyzeMethod(t *testing.T) {
	db := metricsTestDB(t)
	out, err := db.ExplainAnalyzeCtx(context.Background(), `SELECT id FROM node WHERE parent = ? AND ord >= ?`, I(1), I(0))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IndexScan") && !strings.Contains(out, "SeqScan") {
		t.Errorf("no scan operator in output:\n%s", out)
	}
	if !strings.Contains(out, "actual rows=") {
		t.Errorf("missing actuals:\n%s", out)
	}
}

func TestSlowQueryLog(t *testing.T) {
	db := metricsTestDB(t)
	db.SetSlowQueryThreshold(1) // 1ns: everything is slow
	if _, err := db.Query(`SELECT id FROM node WHERE parent = 1`); err != nil {
		t.Fatal(err)
	}
	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow queries logged at 1ns threshold")
	}
	last := slow[len(slow)-1]
	if last.SQL != `SELECT id FROM node WHERE parent = 1` {
		t.Errorf("logged SQL = %q", last.SQL)
	}
	if last.Duration <= 0 {
		t.Errorf("non-positive duration %v", last.Duration)
	}
	db.SetSlowQueryThreshold(0) // disabled
	before := len(db.SlowQueries())
	if _, err := db.Query(`SELECT id FROM node WHERE parent = 2`); err != nil {
		t.Fatal(err)
	}
	if got := len(db.SlowQueries()); got != before {
		t.Errorf("log grew to %d while disabled", got)
	}
	db.SetSlowQueryThreshold(DefaultSlowQueryThreshold)
}

func TestSlowLogRingWraps(t *testing.T) {
	m := newDBMetrics(Open().Registry())
	for i := 0; i < slowLogCap+10; i++ {
		m.recordSlow("q", time.Duration(i+1), i)
	}
	got := m.slowQueries()
	if len(got) != slowLogCap {
		t.Fatalf("len = %d, want %d", len(got), slowLogCap)
	}
	// Oldest surviving entry is #10 (0-based), newest is #slowLogCap+9.
	if got[0].Rows != 10 || got[len(got)-1].Rows != slowLogCap+9 {
		t.Errorf("ring order wrong: first=%d last=%d", got[0].Rows, got[len(got)-1].Rows)
	}
}

// TestRecordingZeroAlloc guards the per-statement instrumentation overhead:
// with tracing off (the default), metrics recording must not allocate.
func TestRecordingZeroAlloc(t *testing.T) {
	m := newDBMetrics(Open().Registry())
	sql := "SELECT 1"
	if n := testing.AllocsPerRun(200, func() {
		m.recordQuery(sql, 5*time.Microsecond, 1, nil)
	}); n != 0 {
		t.Errorf("recordQuery allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		m.recordExec(sql, 5*time.Microsecond, nil)
	}); n != 0 {
		t.Errorf("recordExec allocates %.1f per call, want 0", n)
	}
}

// An index join moves one iterator from probe to probe: left rows whose
// keys share a leaf cost one root-to-leaf descent for the first probe and
// then one leaf search each, so N probes read N-1 nodes more than a single
// probe does — not (N-1) times the tree height.
func TestIndexNLJoinProbeNodeReads(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := int64(1); i <= 5000; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", I(i), I(i))
	}
	const q = "SELECT t.v FROM ? c (id), t WHERE t.id = c.id"
	if p, err := db.Explain(q); err != nil || !strings.Contains(p, "IndexNLJoin t using t_pkey") {
		t.Fatalf("plan does not probe t_pkey: %v\n%s", err, p)
	}
	// Sequential inserts leave keys 1..32 in the first leaf.
	reads := func(ids ...int64) int64 {
		var rel []byte
		for _, id := range ids {
			rel = sqltypes.EncodeRow(rel, sqltypes.Row{I(id)})
		}
		before := db.Metrics().Gauges["storage.btree.node_reads"]
		if res := mustQuery(t, db, q, sqltypes.NewBlob(rel)); len(res.Rows) != len(ids) {
			t.Fatalf("%d rows for %d probes", len(res.Rows), len(ids))
		}
		return db.Metrics().Gauges["storage.btree.node_reads"] - before
	}
	one := reads(2)
	if one < 3 {
		t.Fatalf("a probe read %d nodes; the test needs a tree of height 3 or more", one)
	}
	ids := []int64{2, 3, 4, 5, 6, 7, 8, 9}
	if got, want := reads(ids...)-one, int64(len(ids)-1); got != want {
		t.Errorf("%d probes in one leaf read %d nodes more than one probe, want %d", len(ids), got, want)
	}
}
