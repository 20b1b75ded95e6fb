package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ordxml/internal/sqldb/sqltypes"
)

func cacheDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec := func(sql string) {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(`CREATE TABLE items (id INT PRIMARY KEY, cat TEXT NOT NULL, qty INT)`)
	mustExec(`CREATE INDEX items_cat ON items (cat)`)
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(`INSERT INTO items (id, cat, qty) VALUES (?, ?, ?)`,
			I(int64(i)), S(fmt.Sprintf("c%d", i%10)), I(int64(i)*2)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// cacheStats is the plan cache as Metrics() publishes it.
type cacheStats struct{ Hits, Misses, Entries int64 }

func planStats(db *DB) cacheStats {
	m := db.Metrics()
	return cacheStats{
		Hits:    m.Counters["sqldb.plancache.hits"],
		Misses:  m.Counters["sqldb.plancache.misses"],
		Entries: m.Gauges["sqldb.plancache.entries"],
	}
}

// TestPlanCacheHits: repeating the same SELECT must hit the cache, and the
// hit must return the same rows as the first (planned) execution.
func TestPlanCacheHits(t *testing.T) {
	db := cacheDB(t)
	const q = `SELECT id FROM items WHERE cat = ? ORDER BY id`

	base := planStats(db)
	first, err := db.Query(q, S("c3"))
	if err != nil {
		t.Fatal(err)
	}
	after := planStats(db)
	if after.Misses != base.Misses+1 || after.Hits != base.Hits {
		t.Fatalf("first run: stats %+v -> %+v, want one miss", base, after)
	}

	for i := 0; i < 5; i++ {
		res, err := db.Query(q, S("c3"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(first.Rows) {
			t.Fatalf("run %d: %d rows, want %d", i, len(res.Rows), len(first.Rows))
		}
	}
	final := planStats(db)
	if final.Hits != after.Hits+5 {
		t.Fatalf("hits = %d, want %d", final.Hits, after.Hits+5)
	}
	if final.Misses != after.Misses {
		t.Fatalf("misses grew on repeat: %d -> %d", after.Misses, final.Misses)
	}
}

// TestPlanCacheInvalidation: DDL must invalidate cached plans. A query whose
// plan used an index must re-plan (and stay correct) after that index is
// dropped, and again after it is recreated.
func TestPlanCacheInvalidation(t *testing.T) {
	db := cacheDB(t)
	const q = `SELECT id FROM items WHERE cat = ? ORDER BY id`

	want, err := db.Query(q, S("c7"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 20 {
		t.Fatalf("baseline rows = %d, want 20", len(want.Rows))
	}
	plan1, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan1, "items_cat") {
		t.Fatalf("baseline plan does not use items_cat:\n%s", plan1)
	}

	if _, err := db.Exec(`DROP INDEX items_cat`); err != nil {
		t.Fatal(err)
	}
	pre := planStats(db)
	got, err := db.Query(q, S("c7"))
	if err != nil {
		t.Fatal(err)
	}
	post := planStats(db)
	if post.Misses != pre.Misses+1 {
		t.Fatalf("stale plan not invalidated: %+v -> %+v", pre, post)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("after DROP INDEX: %d rows, want %d", len(got.Rows), len(want.Rows))
	}
	plan2, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan2, "items_cat") {
		t.Fatalf("plan still references dropped index:\n%s", plan2)
	}

	if _, err := db.Exec(`CREATE INDEX items_cat ON items (cat)`); err != nil {
		t.Fatal(err)
	}
	got, err = db.Query(q, S("c7"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("after CREATE INDEX: %d rows, want %d", len(got.Rows), len(want.Rows))
	}
	plan3, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan3, "items_cat") {
		t.Fatalf("plan does not use recreated index:\n%s", plan3)
	}
}

// TestPlanCacheDML: repeated Exec of the same DML text should hit the cache.
func TestPlanCacheDML(t *testing.T) {
	db := cacheDB(t)
	const u = `UPDATE items SET qty = ? WHERE id = ?`
	if _, err := db.Exec(u, I(1), I(3)); err != nil {
		t.Fatal(err)
	}
	pre := planStats(db)
	for i := 0; i < 4; i++ {
		if _, err := db.Exec(u, I(int64(i)), I(3)); err != nil {
			t.Fatal(err)
		}
	}
	post := planStats(db)
	if post.Hits != pre.Hits+4 {
		t.Fatalf("DML hits = %d, want %d", post.Hits, pre.Hits+4)
	}
	res, err := db.Query(`SELECT qty FROM items WHERE id = ?`, I(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("qty = %v, want 3", res.Rows[0])
	}
	// A SELECT's cached plan must not be runnable through Exec.
	if _, err := db.Query(`SELECT id FROM items`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`SELECT id FROM items`); err == nil {
		t.Fatal("Exec of cached SELECT succeeded")
	}
}

// TestPlanCacheEviction: the LRU must stay bounded and keep working past
// capacity.
func TestPlanCacheEviction(t *testing.T) {
	db := cacheDB(t)
	for i := 0; i < planCacheCap+50; i++ {
		q := fmt.Sprintf(`SELECT id FROM items WHERE qty = %d`, i)
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if n := planStats(db).Entries; n > planCacheCap {
		t.Fatalf("cache holds %d entries, cap %d", n, planCacheCap)
	}
}

// TestConcurrentQueries hammers one cached plan from many goroutines (run
// with -race): plan sharing across concurrent executions must be safe, and
// every execution must see consistent results.
func TestConcurrentQueries(t *testing.T) {
	db := cacheDB(t)
	const q = `SELECT id, qty FROM items WHERE cat = ? ORDER BY id`
	want, err := db.Query(q, S("c1"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cat := fmt.Sprintf("c%d", g%4)
			for i := 0; i < 50; i++ {
				res, err := db.Query(q, S(cat))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != len(want.Rows) {
					errs <- fmt.Errorf("goroutine %d: %d rows, want %d", g, len(res.Rows), len(want.Rows))
					return
				}
			}
		}(g)
	}
	// Concurrent writers through the same cached DML plan.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := db.Exec(`UPDATE items SET qty = ? WHERE id = ?`,
					I(int64(i)), I(int64(g*7))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStatementReplansAfterDDL: a statement text survives DDL between
// executions — the run after the DDL misses the cache, replans against the
// new catalog version (here without the dropped index) and returns the same
// rows; the run after that hits again.
func TestStatementReplansAfterDDL(t *testing.T) {
	db := cacheDB(t)
	const q = `SELECT id FROM items WHERE cat = ?`
	r1, err := db.Query(q, S("c2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DROP INDEX items_cat`); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()
	r2, err := db.Query(q, S("c2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("rows changed across DDL: %d -> %d", len(r1.Rows), len(r2.Rows))
	}
	if _, err := db.Query(q, S("c2")); err != nil {
		t.Fatal(err)
	}
	after := db.Metrics()
	if h, m := after.Counters["sqldb.plancache.hits"]-before.Counters["sqldb.plancache.hits"],
		after.Counters["sqldb.plancache.misses"]-before.Counters["sqldb.plancache.misses"]; h != 1 || m != 1 {
		t.Errorf("after DDL: %d hits, %d misses over two runs, want 1 and 1", h, m)
	}
	if p, err := db.Explain(q); err != nil || strings.Contains(p, "items_cat") {
		t.Errorf("plan after DROP INDEX still names the index (err %v):\n%s", err, p)
	}
}

// TestBulkInsertThroughDB covers the engine-level bulk fast path: RIDs in
// row order, constraint checks, and all-or-nothing failure.
func TestBulkInsertThroughDB(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, name TEXT NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, 100)
	for i := range rows {
		rows[i] = sqltypes.Row{I(int64(i)), S(fmt.Sprintf("n%d", i))}
	}
	n, err := db.BulkInsert("t", rows)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("inserted %d, want 100", n)
	}
	res, err := db.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 100 {
		t.Fatalf("count = %d", got)
	}

	// Duplicate against existing data: nothing may stick.
	if _, err := db.BulkInsert("t", []sqltypes.Row{
		{I(500), S("ok")}, {I(42), S("dup")},
	}); err == nil {
		t.Fatal("duplicate batch succeeded")
	}
	// Duplicate within the batch.
	if _, err := db.BulkInsert("t", []sqltypes.Row{
		{I(600), S("a")}, {I(600), S("b")},
	}); err == nil {
		t.Fatal("batch with internal duplicate succeeded")
	}
	// NOT NULL violation mid-batch.
	if _, err := db.BulkInsert("t", []sqltypes.Row{
		{I(700), S("a")}, {I(701), Null()},
	}); err == nil {
		t.Fatal("batch with NULL name succeeded")
	}
	res, err = db.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 100 {
		t.Fatalf("failed batches changed the table: count = %d", got)
	}
	if _, err := db.BulkInsert("nope", rows); err == nil {
		t.Fatal("BulkInsert into missing table succeeded")
	}
}
