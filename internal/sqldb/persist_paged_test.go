package sqldb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/pagefile"
	"ordxml/internal/sqldb/sqltypes"
)

func newTestPool(t *testing.T, frames int) *bufpool.Pool {
	t.Helper()
	pf, err := pagefile.Create(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return bufpool.New(pf, frames)
}

// checkpointPaged runs the full paged-checkpoint protocol against an
// in-memory manifest buffer, the way ordxml's durable layer does.
func checkpointPaged(t *testing.T, db *DB, pool *bufpool.Pool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.DumpPaged(&buf); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool.CommitCheckpoint()
	return buf.Bytes()
}

func TestPagedManifestRoundTrip(t *testing.T) {
	pool := newTestPool(t, 16)
	db := OpenPooled(pool)
	mustExec(t, db, `CREATE TABLE t (
		i INT PRIMARY KEY, r REAL, s TEXT NOT NULL, b BLOB, f BOOL)`)
	mustExec(t, db, `CREATE INDEX t_s ON t (s, i)`)
	mustExec(t, db, `CREATE TABLE empty (x INT)`)
	const ins = "INSERT INTO t VALUES (?, ?, ?, ?, ?)"
	for i := int64(0); i < 500; i++ {
		var blob sqltypes.Value = B([]byte{byte(i), 0x00, 0xFF})
		if i%7 == 0 {
			blob = Null()
		}
		if _, err := db.Exec(ins, I(i), F(float64(i)/3), S("row"), blob, sqltypes.NewBool(i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	manifest := checkpointPaged(t, db, pool)

	back, err := LoadPaged(bytes.NewReader(manifest), pool)
	if err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, back, "SELECT i, r, s, b, f FROM t WHERE i = 3")
	r := res.Rows[0]
	if r[0].Int() != 3 || r[1].Real() != 1.0 || r[2].Text() != "row" ||
		!bytes.Equal(r[3].Blob(), []byte{3, 0, 0xFF}) || r[4].Bool() {
		t.Fatalf("row 3 = %v", r)
	}
	res = mustQuery(t, back, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 500 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	// Indexes were restored as page-backed trees, not rebuilt: plans use them
	// and uniqueness still holds.
	p, err := back.Explain("SELECT s FROM t WHERE i = 9")
	if err != nil || !contains(p, "IndexScan t using t_pkey") {
		t.Errorf("restored plan:\n%s (%v)", p, err)
	}
	if _, err := back.Exec("INSERT INTO t VALUES (3, 0, 'dup', NULL, FALSE)"); err == nil {
		t.Error("unique constraint lost after restore")
	}
	if _, err := back.Exec("INSERT INTO t VALUES (1000, 0, NULL, NULL, FALSE)"); err == nil {
		t.Error("NOT NULL lost after restore")
	}
	res = mustQuery(t, back, "SELECT COUNT(*) FROM empty")
	if res.Rows[0][0].Int() != 0 {
		t.Error("empty table corrupted")
	}
	if problems := back.CheckIntegrity(); len(problems) > 0 {
		t.Fatalf("integrity: %v", problems)
	}
}

// TestPagedManifestIncremental: a second checkpoint after touching one row
// reuses the unchanged pages — it must not rewrite the whole store.
func TestPagedManifestIncremental(t *testing.T) {
	pool := newTestPool(t, 64)
	db := OpenPooled(pool)
	mustExec(t, db, "CREATE TABLE t (i INT PRIMARY KEY, s TEXT)")
	const ins = "INSERT INTO t VALUES (?, ?)"
	for i := int64(0); i < 2000; i++ {
		if _, err := db.Exec(ins, I(i), S("some row padding text for page fill")); err != nil {
			t.Fatal(err)
		}
	}
	checkpointPaged(t, db, pool)
	full := pool.Stats().DirtyFlushes
	if full < 10 {
		t.Fatalf("first checkpoint flushed only %d pages", full)
	}
	mustExec(t, db, "UPDATE t SET s = 'changed' WHERE i = 42")
	checkpointPaged(t, db, pool)
	if delta := pool.Stats().DirtyFlushes - full; delta == 0 || delta > full/4 {
		t.Fatalf("incremental checkpoint flushed %d of %d pages", delta, full)
	}
}

func TestPagedManifestBadInput(t *testing.T) {
	pool := newTestPool(t, 16)
	db := OpenPooled(pool)
	mustExec(t, db, "CREATE TABLE t (i INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO t VALUES (7)")
	manifest := checkpointPaged(t, db, pool)

	fresh := func() *bufpool.Pool { return newTestPool(t, 16) }
	if _, err := LoadPaged(bytes.NewReader(nil), fresh()); err == nil {
		t.Error("empty manifest accepted")
	}
	if _, err := LoadPaged(bytes.NewReader([]byte("ordxmlDB rest")), fresh()); err == nil {
		t.Error("snapshot magic accepted as manifest")
	}
	// Truncation anywhere must fail the checksum or hit EOF.
	for _, cut := range []int{len(manifest) / 2, len(manifest) - 1} {
		if _, err := LoadPaged(bytes.NewReader(manifest[:cut]), fresh()); err == nil {
			t.Errorf("truncated manifest (%d of %d bytes) accepted", cut, len(manifest))
		}
	}
	// A flipped byte in the body must fail the CRC.
	bad := append([]byte(nil), manifest...)
	bad[len(bad)/2] ^= 0x40
	if _, err := LoadPaged(bytes.NewReader(bad), fresh()); err == nil {
		t.Error("corrupt manifest accepted")
	}
}

// TestPagedBeyondRAM loads far more data than the pool can hold and checks
// that queries still answer correctly while the pool stays at capacity.
func TestPagedBeyondRAM(t *testing.T) {
	dir := t.TempDir()
	pf, err := pagefile.Create(filepath.Join(dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	const frames = 8
	pool := bufpool.New(pf, frames)
	db := OpenPooled(pool)
	mustExec(t, db, "CREATE TABLE t (i INT PRIMARY KEY, s TEXT)")
	const ins = "INSERT INTO t VALUES (?, ?)"
	pad := string(bytes.Repeat([]byte("x"), 200))
	const rows = 4000 // ~800KB of row data vs a 64KB pool
	for i := int64(0); i < rows; i++ {
		if _, err := db.Exec(ins, I(i), S(pad)); err != nil {
			t.Fatal(err)
		}
	}
	manifest := checkpointPaged(t, db, pool)
	fi, err := os.Stat(filepath.Join(dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	if poolBytes := int64(frames) * pagefile.PageSize; fi.Size() < 4*poolBytes {
		t.Fatalf("page file %d bytes is not beyond-RAM for a %d-byte pool", fi.Size(), poolBytes)
	}

	back, err := LoadPaged(bytes.NewReader(manifest), pool)
	if err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, back, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != rows {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	for _, probe := range []int64{0, rows / 2, rows - 1} {
		res = mustQuery(t, back, "SELECT s FROM t WHERE i = ?", I(probe))
		if len(res.Rows) != 1 || res.Rows[0][0].Text() != pad {
			t.Fatalf("probe %d wrong", probe)
		}
	}
	st := pool.Stats()
	if st.Resident > int64(st.Capacity) {
		t.Fatalf("resident frames %d exceed capacity %d", st.Resident, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite beyond-RAM workload")
	}
	if problems := back.CheckIntegrity(); len(problems) > 0 {
		t.Fatalf("integrity: %v", problems)
	}
}
