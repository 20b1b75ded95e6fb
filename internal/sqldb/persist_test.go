package sqldb

import (
	"bytes"
	"io"
	"testing"

	"ordxml/internal/sqldb/sqltypes"
)

func TestPersistRoundTrip(t *testing.T) {
	db := Open()
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
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Row data and types survive.
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
	// Indexes were rebuilt: plans use them and uniqueness is enforced.
	p, err := back.Explain("SELECT s FROM t WHERE i = 9")
	if err != nil || !contains(p, "IndexScan t using t_pkey") {
		t.Errorf("restored plan:\n%s (%v)", p, err)
	}
	if _, err := back.Exec("INSERT INTO t VALUES (3, 0, 'dup', NULL, FALSE)"); err == nil {
		t.Error("unique constraint lost after restore")
	}
	// NOT NULL constraint survives.
	if _, err := back.Exec("INSERT INTO t VALUES (1000, 0, NULL, NULL, FALSE)"); err == nil {
		t.Error("NOT NULL lost after restore")
	}
	// Empty table exists.
	res = mustQuery(t, back, "SELECT COUNT(*) FROM empty")
	if res.Rows[0][0].Int() != 0 {
		t.Error("empty table corrupted")
	}
}

func contains(s, sub string) bool {
	return bytes.Contains([]byte(s), []byte(sub))
}

func TestPersistBadInput(t *testing.T) {
	for _, data := range []string{"", "short", "ordxmlDB\xff\xff\xff\xff\xff"} {
		if _, err := load(bytes.NewReader([]byte(data))); err == nil {
			t.Errorf("Load(%q) succeeded", data)
		}
	}
	// Wrong version.
	var buf bytes.Buffer
	buf.WriteString("ordxmlDB")
	buf.WriteByte(99) // uvarint version 99
	if _, err := load(&buf); err == nil {
		t.Error("future version accepted")
	}
}

// load reads a snapshot into a fresh in-memory database.
func load(r io.Reader) (*DB, error) {
	db := Open()
	return db, Load(r, db)
}

// dumpSample builds a small database and returns its snapshot bytes.
func dumpSample(t *testing.T) []byte {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)`)
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, S(kv[0]), S(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPersistTruncatedRejected(t *testing.T) {
	data := dumpSample(t)
	// Every proper prefix must be rejected: with the checksum trailer a
	// truncation can no longer masquerade as a smaller valid snapshot.
	for cut := 0; cut < len(data); cut++ {
		if _, err := load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) loaded", cut, len(data))
		}
	}
	if _, err := load(bytes.NewReader(data)); err != nil {
		t.Fatalf("full snapshot rejected: %v", err)
	}
}

func TestPersistCorruptionRejected(t *testing.T) {
	data := dumpSample(t)
	// Flip one bit somewhere in the body (past the magic, before the
	// trailer) and the checksum must catch it.
	for _, pos := range []int{len(persistMagic) + 1, len(data) / 2, len(data) - 13} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		if _, err := load(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at %d not detected", pos)
		}
	}
}

func TestPersistReadsVersion1(t *testing.T) {
	data := dumpSample(t)
	// Rewrite the version byte to 1 and strip the trailer — the layout of
	// version 1 is identical minus the checksum, so this reconstructs a
	// legacy snapshot exactly.
	v1 := append([]byte(nil), data[:len(data)-len(trailerMagic)-4]...)
	if v1[len(persistMagic)] != persistVersion {
		t.Fatalf("version byte = %d", v1[len(persistMagic)])
	}
	v1[len(persistMagic)] = 1
	db, err := load(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("version-1 snapshot rejected: %v", err)
	}
	res := mustQuery(t, db, "SELECT COUNT(*) FROM kv")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}
