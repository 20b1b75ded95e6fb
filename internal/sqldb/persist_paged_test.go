package sqldb

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
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
	if err != nil || !strings.Contains(p, "IndexScan t using t_pkey") {
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

// sampleManifest checkpoints a one-row database and returns its manifest.
// Every rejection below happens while decoding, before the pool is touched,
// so a test's attempts can share one pool.
func sampleManifest(t *testing.T) []byte {
	t.Helper()
	pool := newTestPool(t, 16)
	db := OpenPooled(pool)
	mustExec(t, db, "CREATE TABLE t (i INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO t VALUES (7)")
	return checkpointPaged(t, db, pool)
}

// TestPagedManifestBadInput: a manifest-shaped input with an absurd list
// count or a foreign trailer is rejected; the intact manifest loads.
func TestPagedManifestBadInput(t *testing.T) {
	manifest := sampleManifest(t)
	into := newTestPool(t, 16)

	// A corrupt count fails cleanly instead of attempting a huge allocation.
	huge := []byte(pagedMagic)
	huge = binary.AppendUvarint(huge, pagedVersion)
	huge = binary.AppendUvarint(huge, 1) // next page id
	huge = binary.AppendUvarint(huge, manifestMaxList+1)
	if _, err := LoadPaged(bytes.NewReader(huge), into); err == nil || !strings.Contains(err.Error(), "free ids") {
		t.Errorf("oversized free-list count: %v", err)
	}
	bad := append([]byte(nil), manifest...)
	copy(bad[len(bad)-len(trailerMagic)-4:], "ordxmlXX")
	if _, err := LoadPaged(bytes.NewReader(bad), into); err == nil {
		t.Error("foreign trailer magic accepted")
	}
	if _, err := LoadPaged(bytes.NewReader(manifest), into); err != nil {
		t.Fatalf("intact manifest rejected: %v", err)
	}
}

// TestPersistBadInput: input that is not a manifest this build reads — empty,
// too short, the retired full-snapshot format, a future version — is refused.
func TestPersistBadInput(t *testing.T) {
	into := newTestPool(t, 16)
	for _, data := range []string{"", "short", "ordxmlDB\xff\xff\xff\xff\xff", "ordxmlDB rest"} {
		if _, err := LoadPaged(bytes.NewReader([]byte(data)), into); err == nil {
			t.Errorf("LoadPaged(%q) succeeded", data)
		}
	}
	future := binary.AppendUvarint([]byte(pagedMagic), 99)
	if _, err := LoadPaged(bytes.NewReader(future), into); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("future manifest version: %v", err)
	}
}

// TestPersistTruncatedRejected: every proper prefix of a manifest, the empty
// one included, is rejected — with the checksum trailer a truncation cannot
// pass as a smaller valid manifest.
func TestPersistTruncatedRejected(t *testing.T) {
	manifest := sampleManifest(t)
	into := newTestPool(t, 16)
	for cut := 0; cut < len(manifest); cut++ {
		if _, err := LoadPaged(bytes.NewReader(manifest[:cut]), into); err == nil {
			t.Fatalf("truncated manifest (%d of %d bytes) accepted", cut, len(manifest))
		}
	}
	if _, err := LoadPaged(bytes.NewReader(manifest), into); err != nil {
		t.Fatalf("intact manifest rejected: %v", err)
	}
}

// TestPersistCorruptionRejected: a flipped bit anywhere in the body — just
// past the magic, the middle, the last byte before the trailer — fails the
// CRC.
func TestPersistCorruptionRejected(t *testing.T) {
	manifest := sampleManifest(t)
	into := newTestPool(t, 16)
	for _, pos := range []int{len(pagedMagic) + 1, len(manifest) / 2, len(manifest) - len(trailerMagic) - 5} {
		bad := append([]byte(nil), manifest...)
		bad[pos] ^= 0x40
		if _, err := LoadPaged(bytes.NewReader(bad), into); err == nil {
			t.Errorf("bit flip at %d of %d not detected", pos, len(manifest))
		}
	}
}

// TestPagedPageOwnership: with the collector off, every page id the
// allocator handed out still has exactly one owner — a heap page table, a
// written tree node, a tree's staged frees, or the pool's free or pending
// list — after inserts, copy-on-write updates, a dropped index and table,
// a checkpoint and a reopen. Ids whose release waited for the garbage
// collector show up here as leaked.
func TestPagedPageOwnership(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	path := filepath.Join(t.TempDir(), "pages.db")
	pf, err := pagefile.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	pool := bufpool.New(pf, 64)
	db := OpenPooled(pool)
	mustExec(t, db, "CREATE TABLE t (i INT PRIMARY KEY, s TEXT)")
	mustExec(t, db, "CREATE INDEX t_s ON t (s)")
	mustExec(t, db, "CREATE TABLE gone (i INT PRIMARY KEY)")
	for i := int64(0); i < 300; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", I(i), S("some padding text for the heap page"))
		mustExec(t, db, "INSERT INTO gone VALUES (?)", I(i))
	}
	clean := func(when string, db *DB) {
		t.Helper()
		if problems := db.CheckIntegrity(); len(problems) > 0 {
			t.Fatalf("%s: %d integrity problems, first: %s", when, len(problems), problems[0])
		}
	}
	clean("after inserts", db)
	checkpointPaged(t, db, pool)
	// Every statement publishes a view, so each update copies its heap page.
	for i := int64(0); i < 300; i += 3 {
		mustExec(t, db, "UPDATE t SET s = 'x' WHERE i = ?", I(i))
	}
	mustExec(t, db, "DROP INDEX t_s")
	mustExec(t, db, "DROP TABLE gone")
	clean("after updates and drops", db)
	var manifest bytes.Buffer
	if err := db.DumpPaged(&manifest); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	pool.CommitCheckpoint()
	clean("after checkpoint", db)

	pf2, err := pagefile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	back, err := LoadPaged(bytes.NewReader(manifest.Bytes()), bufpool.New(pf2, 64))
	if err != nil {
		t.Fatal(err)
	}
	clean("after reopen", back)
	if res := mustQuery(t, back, "SELECT COUNT(*) FROM t WHERE s = 'x'"); res.Rows[0][0].Int() != 100 {
		t.Fatalf("updated rows after reopen = %v", res.Rows[0][0])
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
