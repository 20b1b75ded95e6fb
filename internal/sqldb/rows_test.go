package sqldb

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ordxml/internal/govern"
	"ordxml/internal/obs"
)

// waitGoroutines polls until the process goroutine count drops back to base,
// failing with a full stack dump if it does not — the leak detector for the
// streaming-cursor tests.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

func TestQueryRowsStreams(t *testing.T) {
	db := concurrentFixture(t, 100)
	rows, err := db.QueryRows(context.Background(), `SELECT id, v FROM t WHERE id < ?`, I(10))
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); len(got) != 2 || got[0] != "id" {
		t.Fatalf("columns = %v", got)
	}
	n := 0
	for rows.Next() {
		if rows.Row()[0].Int() >= 10 {
			t.Fatalf("unexpected row %v", rows.Row())
		}
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("streamed %d rows, want 10", n)
	}
	if got := db.Metrics().Gauges["sqldb.cursors.open"]; got != 0 {
		t.Fatalf("open cursors after Close = %d", got)
	}
}

// One statement, one record, whatever the door: every entry point goes
// through DB.open or DB.exec, so each call adds exactly 1 to sqldb.queries (or
// sqldb.execs) and one latency observation — a cursor when it is closed or
// fails to open, however often it is closed — and looks the plan cache up at
// most once (EXPLAIN is looked up but never stored). Under an ambient span a
// door that takes a context records exactly one statement span, with one plan
// child for a SELECT; with tracing on and no ambient span only the Ctx doors
// the engine has always rooted open a trace root.
func TestQueryRowsCountsAsQuery(t *testing.T) {
	db := concurrentFixture(t, 10)
	const sel = `SELECT id FROM t`
	const upd = `UPDATE t SET v = v + 1 WHERE id = ?`
	drain := func(rows *Rows, err error) error {
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		rows.Close()
		return rows.Close() // idempotent: still one statement
	}
	result := func(_ *Result, err error) error { return err }
	doors := []struct {
		name  string
		span  string // statement span recorded under an ambient span; "" for a door with no context
		roots bool   // opens a trace root when ctx carries no span
		exec  bool
		fails bool
		run   func(ctx context.Context) error
	}{
		{name: "DB.Query",
			run: func(context.Context) error { return result(db.Query(sel)) }},
		{name: "DB.QueryCtx", span: "sql.query", roots: true,
			run: func(ctx context.Context) error { return result(db.QueryCtx(ctx, sel)) }},
		{name: "Snap.Query", span: "sql.query",
			run: func(ctx context.Context) error { return result(db.Snapshot().Query(ctx, sel)) }},
		{name: "DB.QueryRows", span: "sql.query",
			run: func(ctx context.Context) error { return drain(db.QueryRows(ctx, sel)) }},
		{name: "Snap.QueryRows", span: "sql.query",
			run: func(ctx context.Context) error { return drain(db.Snapshot().QueryRows(ctx, sel)) }},
		{name: "QueryRows/bad column", span: "sql.query", fails: true,
			run: func(ctx context.Context) error { return drain(db.QueryRows(ctx, `SELECT nope FROM t`)) }},
		{name: "EXPLAIN", span: "sql.query", roots: true,
			run: func(ctx context.Context) error { return result(db.QueryCtx(ctx, `EXPLAIN `+sel)) }},
		{name: "EXPLAIN ANALYZE", span: "sql.query", roots: true,
			run: func(ctx context.Context) error { return result(db.QueryCtx(ctx, `EXPLAIN ANALYZE `+sel)) }},
		{name: "EXPLAIN ANALYZE/cursor", span: "sql.query",
			run: func(ctx context.Context) error { return drain(db.QueryRows(ctx, `EXPLAIN ANALYZE `+sel)) }},
		{name: "DB.ExplainAnalyzeCtx", span: "sql.analyze", roots: true,
			run: func(ctx context.Context) error { _, err := db.ExplainAnalyzeCtx(ctx, sel); return err }},
		{name: "DB.Exec", exec: true,
			run: func(context.Context) error { _, err := db.Exec(upd, I(1)); return err }},
		{name: "DB.ExecCtx", span: "sql.exec", roots: true, exec: true,
			run: func(ctx context.Context) error { _, err := db.ExecCtx(ctx, upd, I(1)); return err }},
	}
	delta := func(before, after obs.Snapshot, name string) int64 {
		return after.Counters[name] - before.Counters[name]
	}
	for _, d := range doors {
		t.Run(d.name, func(t *testing.T) {
			counter, failed, latency := "sqldb.queries", "sqldb.query.errors", "sqldb.query.latency"
			if d.exec {
				counter, failed, latency = "sqldb.execs", "sqldb.exec.errors", "sqldb.exec.latency"
			}
			before := db.Metrics()
			if err := d.run(context.Background()); (err != nil) != d.fails {
				t.Fatalf("err = %v, want failure = %v", err, d.fails)
			}
			after := db.Metrics()
			if got := delta(before, after, "sqldb.queries") + delta(before, after, "sqldb.execs"); got != 1 {
				t.Errorf("sqldb.queries + sqldb.execs moved by %d, want 1", got)
			}
			if got := delta(before, after, counter); got != 1 {
				t.Errorf("%s moved by %d, want 1", counter, got)
			}
			if got := delta(before, after, failed); (got == 1) != d.fails || got > 1 {
				t.Errorf("%s moved by %d, failure = %v", failed, got, d.fails)
			}
			if got := after.Histograms[latency].Count - before.Histograms[latency].Count; got != 1 {
				t.Errorf("%s observed %d statements, want 1", latency, got)
			}
			if got := delta(before, after, "sqldb.plancache.hits") + delta(before, after, "sqldb.plancache.misses"); got != 1 {
				t.Errorf("plan cache looked up %d times, want 1", got)
			}
			if strings.HasPrefix(d.name, "EXPLAIN") && after.Gauges["sqldb.plancache.entries"] != before.Gauges["sqldb.plancache.entries"] {
				t.Error("an EXPLAIN statement was stored in the plan cache")
			}
			if got := after.Gauges["sqldb.cursors.open"]; got != 0 {
				t.Errorf("sqldb.cursors.open = %d after the statement", got)
			}

			tr := db.Tracer()
			tr.SetEnabled(true)
			defer tr.SetEnabled(false)

			// Under an ambient span: one statement span, one plan child.
			tr.Reset()
			ctx, ambient := tr.StartRoot(context.Background(), "test.ambient")
			d.run(ctx)
			ambient.End()
			byName := map[string][]obs.SpanRecord{}
			for _, r := range tr.Snapshot() {
				byName[r.Name] = append(byName[r.Name], r)
			}
			stmts := append(append(byName["sql.query"], byName["sql.exec"]...), byName["sql.analyze"]...)
			switch {
			case d.span == "" && len(stmts)+len(byName["plan"]) != 0:
				t.Errorf("a door with no context recorded spans: %v", stmts)
			case d.span != "":
				if len(stmts) != 1 || stmts[0].Name != d.span || stmts[0].Parent != ambient.SpanID() {
					t.Fatalf("statement spans = %+v, want one %s under the ambient span", stmts, d.span)
				}
				wantPlans := 1
				if d.exec {
					wantPlans = 0
				}
				if len(byName["plan"]) != wantPlans {
					t.Errorf("plan spans = %d, want %d", len(byName["plan"]), wantPlans)
				}
				for _, r := range byName["plan"] {
					if r.Parent != stmts[0].ID {
						t.Errorf("plan span hangs off %d, want the %s span %d", r.Parent, d.span, stmts[0].ID)
					}
				}
			}

			// With no ambient span: a root only where there has always been one.
			tr.Reset()
			d.run(context.Background())
			roots := 0
			for _, r := range tr.Snapshot() {
				if r.Parent == 0 {
					roots++
				}
			}
			if want := map[bool]int{true: 1}[d.roots]; roots != want {
				t.Errorf("trace roots = %d, want %d", roots, want)
			}
			if !d.roots && len(tr.Snapshot()) != 0 {
				t.Errorf("spans recorded with nothing to hang them on: %+v", tr.Snapshot())
			}
		})
	}
}

// TestQueryRowsEarlyCloseParallel is the cursor-leak regression test, run by
// parallel readers: each opens cursors, reads only part of every result and
// closes it early. Every cursor must be released (sqldb.cursors.open back to
// 0), counted once as a statement, and no goroutine may outlive the flood.
func TestQueryRowsEarlyCloseParallel(t *testing.T) {
	db := concurrentFixture(t, 4096)
	base := runtime.NumGoroutine()
	queries := []string{
		`SELECT id, v FROM t WHERE v = ? ORDER BY v`, // a Sort drains the scan at open
		`SELECT id, v FROM t WHERE v = ?`,            // the scan streams
	}
	const readers, perReader = 4, 25
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				rows, err := db.QueryRows(context.Background(), queries[(r+i)%len(queries)], I(0))
				if err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < 3; k++ {
					if !rows.Next() {
						t.Errorf("row %d: Next = false, err %v", k, rows.Err())
						break
					}
				}
				if err := rows.Close(); err != nil {
					t.Error(err)
					return
				}
				// Close is idempotent, and Next after Close stays false.
				if rows.Next() {
					t.Error("Next succeeded after Close")
				}
				if err := rows.Close(); err != nil {
					t.Error(err)
				}
			}
		}(r)
	}
	wg.Wait()
	waitGoroutines(t, base)
	m := db.Metrics()
	if got := m.Gauges["sqldb.cursors.open"]; got != 0 {
		t.Fatalf("open cursors after early close = %d", got)
	}
	if got := m.Counters["sqldb.queries"]; got != readers*perReader {
		t.Fatalf("sqldb.queries = %d, want %d", got, readers*perReader)
	}
}

func TestQueryRowsCancellation(t *testing.T) {
	db := concurrentFixture(t, 4096)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryRows(ctx, `SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cancel()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("after cancel: %d rows, err %v", n, err)
	}
}

func TestQueryRowsDeadline(t *testing.T) {
	db := concurrentFixture(t, 4096)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rows, err := db.QueryRows(ctx, `SELECT id, v FROM t`)
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if !errors.Is(err, govern.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	waitGoroutines(t, base)
}

func TestQueryRowsMemoryBudget(t *testing.T) {
	db := concurrentFixture(t, 4096)
	db.SetMemoryBudget(1024)
	rows, err := db.QueryRows(context.Background(), `SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, govern.ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
	if got := db.Metrics().Counters["mem.budget_aborts"]; got < 1 {
		t.Fatalf("budget aborts = %d", got)
	}
}

// TestQueryAbortsReleaseWorkersUnderRace floods the engine with aborted
// statements from several worker goroutines at once: short deadlines on a
// Sort over the whole table, and cursors canceled after their first row.
// Every statement runs on its worker's goroutine and must unwind without
// leaking a cursor or a goroutine.
func TestQueryAbortsReleaseWorkersUnderRace(t *testing.T) {
	db := concurrentFixture(t, 4096)
	base := runtime.NumGoroutine()
	aborted := func(err error) bool {
		return errors.Is(err, govern.ErrDeadlineExceeded) || errors.Is(err, govern.ErrCanceled)
	}
	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration((w+i)%5)*100*time.Microsecond)
					_, err := db.QueryCtx(ctx, `SELECT id, v FROM t WHERE v = ? ORDER BY v`, I(0))
					cancel()
					if err != nil && !aborted(err) {
						t.Errorf("worker %d query %d: %v", w, i, err)
						return
					}
					continue
				}
				ctx, cancel := context.WithCancel(context.Background())
				rows, err := db.QueryRows(ctx, `SELECT id, v FROM t`)
				if err != nil {
					cancel()
					t.Errorf("worker %d cursor %d: %v", w, i, err)
					return
				}
				rows.Next()
				cancel()
				for rows.Next() {
				}
				if err := rows.Close(); !aborted(err) {
					t.Errorf("worker %d cursor %d: canceled mid-stream, Close = %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	waitGoroutines(t, base)
	if got := db.Metrics().Gauges["sqldb.cursors.open"]; got != 0 {
		t.Fatalf("open cursors after the abort flood = %d", got)
	}
}
