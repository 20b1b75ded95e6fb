package sqldb

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ordxml/internal/govern"
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

// A cursor is one SELECT statement to the metrics, counted when it is closed
// (or fails to open), exactly like a materializing Query.
func TestQueryRowsCountsAsQuery(t *testing.T) {
	db := concurrentFixture(t, 10)
	before := db.Metrics()
	rows, err := db.QueryRows(context.Background(), `SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	rows.Close()
	rows.Close() // idempotent: still one statement
	if _, err := db.QueryRows(context.Background(), `SELECT nope FROM t`); err == nil {
		t.Fatal("bad column accepted")
	}
	after := db.Metrics()
	if got := after.Counters["sqldb.queries"] - before.Counters["sqldb.queries"]; got != 2 {
		t.Errorf("sqldb.queries moved by %d, want 2", got)
	}
	if got := after.Counters["sqldb.query.errors"] - before.Counters["sqldb.query.errors"]; got != 1 {
		t.Errorf("sqldb.query.errors moved by %d, want 1", got)
	}
	if got := after.Histograms["sqldb.query.latency"].Count - before.Histograms["sqldb.query.latency"].Count; got != 2 {
		t.Errorf("sqldb.query.latency observed %d statements, want 2", got)
	}
}

// TestQueryRowsEarlyCloseParallel is the cursor-leak regression test: a
// parallel plan's Gather workers must be stopped and reaped when the cursor
// is closed after reading only part of the result. Before streaming cursors
// owned their operator tree, an early close left the workers parked on the
// row channel forever.
func TestQueryRowsEarlyCloseParallel(t *testing.T) {
	db := concurrentFixture(t, 4096)
	db.SetParallelism(4)
	base := runtime.NumGoroutine()

	// ORDER BY over a big filtered scan is the shape the planner parallelizes:
	// Sort(Gather(Filter(SeqScan))).
	rows, err := db.QueryRows(context.Background(), `SELECT id, v FROM t WHERE v = ? ORDER BY v`, I(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().Counters["sqldb.query.parallel"]; got != 1 {
		t.Fatalf("plan did not go parallel (parallel queries = %d)", got)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("row %d: Next = false, err %v", i, rows.Err())
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
	if got := db.Metrics().Gauges["sqldb.cursors.open"]; got != 0 {
		t.Fatalf("open cursors after early close = %d", got)
	}
	// Close is idempotent, and Next after Close stays false.
	if rows.Next() {
		t.Fatal("Next succeeded after Close")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
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

// TestQueryAbortsReleaseWorkersUnderRace floods a parallel plan with
// cancellations: many short-deadline queries against a table big enough to
// spawn Gather workers, all of which must unwind without leaking.
func TestQueryAbortsReleaseWorkersUnderRace(t *testing.T) {
	db := concurrentFixture(t, 4096)
	db.SetParallelism(4)
	base := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
		_, err := db.QueryCtx(ctx, `SELECT id, v FROM t WHERE v = ? ORDER BY v`, I(0))
		cancel()
		if err != nil && !errors.Is(err, govern.ErrDeadlineExceeded) && !errors.Is(err, govern.ErrCanceled) {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	waitGoroutines(t, base)
}
