package sqldb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ordxml/internal/sqldb/sqltypes"
)

// concurrentFixture builds a table of the given size with every row's v
// column set to 0.
func concurrentFixture(t *testing.T, rows int) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	batch := make([]sqltypes.Row, rows)
	for i := range batch {
		batch[i] = sqltypes.Row{I(int64(i)), I(0)}
	}
	if _, err := db.BulkInsert("t", batch); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestReaderRunsWhileWriteLockHeld is the no-store-wide-lock acceptance
// test: a reader must complete while the engine's write lock is held for the
// whole duration of the read. Holding db.mu directly stands in for the
// longest possible mutation.
func TestReaderRunsWhileWriteLockHeld(t *testing.T) {
	db := concurrentFixture(t, 100)

	db.mu.Lock()
	done := make(chan error, 1)
	go func() {
		res, err := db.Query(`SELECT COUNT(*) FROM t`)
		if err == nil && res.Rows[0][0].Int() != 100 {
			err = fmt.Errorf("count = %d, want 100", res.Rows[0][0].Int())
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read under held write lock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader blocked behind the write lock")
	}
	db.mu.Unlock()
}

// TestSnapshotReadsAreNotTorn drives one writer that atomically rewrites
// every row's v to the same new value (one UPDATE statement = one published
// view) against concurrent readers asserting MIN(v) == MAX(v). A reader that
// mixed pages from different versions would observe a torn pair.
func TestSnapshotReadsAreNotTorn(t *testing.T) {
	const rows = 4096
	db := concurrentFixture(t, rows)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := int64(1); !stop.Load(); k++ {
			if _, err := db.Exec(`UPDATE t SET v = ?`, I(k)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	readers := 4
	var rg sync.WaitGroup
	rg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer rg.Done()
			for i := 0; i < 200; i++ {
				res, err := db.Query(`SELECT MIN(v), MAX(v), COUNT(*) FROM t`)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				lo, hi, n := res.Rows[0][0].Int(), res.Rows[0][1].Int(), res.Rows[0][2].Int()
				if lo != hi {
					t.Errorf("torn read: min v=%d, max v=%d", lo, hi)
					return
				}
				if n != rows {
					t.Errorf("row count %d, want %d", n, rows)
					return
				}
			}
		}()
	}
	rg.Wait()
	stop.Store(true)
	wg.Wait()
}

// TestSnapshotRepeatableRead pins a Snap and checks it keeps serving the
// version it was taken at while the live view moves on.
func TestSnapshotRepeatableRead(t *testing.T) {
	db := concurrentFixture(t, 10)

	snap := db.Snapshot()
	mustExec(t, db, `UPDATE t SET v = 7`)

	res, err := snap.Query(context.Background(), `SELECT MAX(v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 0 {
		t.Errorf("pinned snapshot saw v=%d, want 0", got)
	}
	res, err = db.Query(`SELECT MAX(v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 7 {
		t.Errorf("live view saw v=%d, want 7", got)
	}

	// The pin holds for a statement the live view has already run and cached
	// (same SQL text, same catalog version, one shared plan) and for a cursor.
	res, err = snap.Query(context.Background(), `SELECT MAX(v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 0 {
		t.Errorf("pinned snapshot saw v=%d after the live view ran the same statement, want 0", got)
	}
	rows, err := snap.QueryRows(context.Background(), `SELECT MIN(v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() || rows.Row()[0].Int() != 0 {
		t.Errorf("pinned cursor saw %v (err %v), want 0", rows.Row(), rows.Err())
	}
}

// TestSnapshotSeesDDL checks version-keyed plans across concurrent DDL: a
// query planned before an index drop must not reuse the dropped index's
// plan after the version bump.
func TestSnapshotSeesDDL(t *testing.T) {
	db := concurrentFixture(t, 100)
	mustExec(t, db, `CREATE INDEX t_v ON t (v)`)
	q := `SELECT COUNT(*) FROM t WHERE v = 0`
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count = %d", res.Rows[0][0].Int())
	}
	mustExec(t, db, `DROP INDEX t_v`)
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("count after drop = %d", res.Rows[0][0].Int())
	}
}

// TestAtomicallyPublishesOnce checks that mutations inside an Atomically
// window are invisible to readers until the window closes, then all appear
// in one published view.
func TestAtomicallyPublishesOnce(t *testing.T) {
	db := concurrentFixture(t, 8)

	inWindow := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- db.Atomically(func() error {
			if _, err := db.Exec(`UPDATE t SET v = 1 WHERE id = 0`); err != nil {
				return err
			}
			if _, err := db.Exec(`UPDATE t SET v = 1 WHERE id = 1`); err != nil {
				return err
			}
			close(inWindow)
			<-release
			return nil
		})
	}()

	<-inWindow
	res, err := db.Query(`SELECT SUM(v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 0 {
		t.Errorf("reader saw %d mid-window, want 0", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(`SELECT SUM(v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 2 {
		t.Errorf("after window SUM(v) = %d, want 2", got)
	}

	// Nested windows publish at the outermost exit only — but they do
	// publish: the inner window's write must be visible afterwards.
	err = db.Atomically(func() error {
		return db.Atomically(func() error {
			_, err := db.Exec(`UPDATE t SET v = 7 WHERE id = 0`)
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(`SELECT v FROM t WHERE id = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 7 {
		t.Errorf("after nested windows v = %d, want 7 (nested Atomically never published)", got)
	}
}
