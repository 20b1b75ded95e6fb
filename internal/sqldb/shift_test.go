package sqldb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ordxml/internal/core/dewey"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqltypes"
)

// TEST_PAD(b, n) puts n 0xFF bytes before the BLOB b: strictly increasing in
// b, and above b, so registered as a shift, while it lengthens every key it
// touches by n bytes.
func init() {
	expr.RegisterIncreasing("TEST_PAD", func(a []sqltypes.Value) (sqltypes.Value, error) {
		if len(a) != 2 || a[0].Type() != sqltypes.Blob || a[1].Type() != sqltypes.Int || a[1].Int() < 0 {
			return sqltypes.Value{}, fmt.Errorf("TEST_PAD(%v)", a)
		}
		return sqltypes.NewBlob(append(bytes.Repeat([]byte{0xFF}, int(a[1].Int())), a[0].Blob()...)), nil
	}, 1)
}

// shiftTables creates the node table of each encoding, as the encoding
// package declares it, on db: g (Global), l (Local) and x (Dewey, binary
// paths), plus table b, whose (doc, k) index holds long BLOB keys. The
// plain copy gets only the unique indexes.
func shiftTables(t *testing.T, db *DB, plain bool) {
	t.Helper()
	for _, stmt := range []string{
		"CREATE TABLE g (doc INT NOT NULL, id INT NOT NULL, parent INT, tag TEXT, gorder INT NOT NULL)",
		"CREATE UNIQUE INDEX g_id ON g (doc, id)",
		"CREATE UNIQUE INDEX g_order ON g (doc, gorder)",
		"CREATE INDEX g_parent ON g (doc, parent, gorder)",
		"CREATE INDEX g_tag ON g (doc, tag, gorder)",
		"CREATE TABLE l (doc INT NOT NULL, id INT NOT NULL, parent INT, tag TEXT, lorder INT NOT NULL)",
		"CREATE UNIQUE INDEX l_id ON l (doc, id)",
		"CREATE UNIQUE INDEX l_parent ON l (doc, parent, lorder)",
		"CREATE INDEX l_tag ON l (doc, tag)",
		"CREATE TABLE x (doc INT NOT NULL, id INT NOT NULL, parent INT, tag TEXT, path BLOB NOT NULL)",
		"CREATE UNIQUE INDEX x_id ON x (doc, id)",
		"CREATE UNIQUE INDEX x_order ON x (doc, path)",
		"CREATE INDEX x_parent ON x (doc, parent, path)",
		"CREATE INDEX x_tag ON x (doc, tag, path)",
		"CREATE TABLE b (doc INT NOT NULL, id INT NOT NULL, k BLOB NOT NULL)",
		"CREATE UNIQUE INDEX b_k ON b (doc, k)",
	} {
		if plain && strings.HasPrefix(stmt, "CREATE INDEX") {
			continue
		}
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	// A document of 30 children under the root, each with 3 children of its
	// own: ids in pre-order, global order 10 apart, sibling positions from 1.
	id := int64(1)
	insert := func(parent, lorder int64, path dewey.Path, tag string) int64 {
		self := id
		id++
		p := Null()
		if parent > 0 {
			p = I(parent)
		}
		for _, s := range []string{
			"INSERT INTO g VALUES (1, ?, ?, ?, ?)",
			"INSERT INTO l VALUES (1, ?, ?, ?, ?)",
		} {
			ord := I(10 * self)
			if s[12] == 'l' {
				ord = I(lorder)
			}
			if _, err := db.Exec(s, I(self), p, S(tag), ord); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Exec("INSERT INTO x VALUES (1, ?, ?, ?, ?)", I(self), p, S(tag), B(path.Bytes())); err != nil {
			t.Fatal(err)
		}
		return self
	}
	root := insert(0, 1, dewey.Path{1}, "r")
	for c := int64(1); c <= 30; c++ {
		child := insert(root, c, dewey.Path{1, uint32(c)}, "c")
		for g := int64(1); g <= 3; g++ {
			insert(child, g, dewey.Path{1, uint32(c), uint32(g)}, []string{"a", "b", "a"}[g-1])
		}
	}
	for k := 0; k < 24; k++ {
		key := append([]byte{byte(k)}, bytes.Repeat([]byte{'k'}, 1500)...)
		if _, err := db.Exec("INSERT INTO b VALUES (1, ?, ?)", I(int64(k)), B(key)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShiftPathTaken: the renumbering statements of all three encodings
// rewrite their index runs in place, one index write per row and index
// holding the order key, and an UPDATE whose keys would not keep their order
// — a negative delta, an upper bound that lets keys pass the entries above
// it, keys that outgrow their leaves' byte budget — takes the row-by-row
// path. Either way the table ends as the row-by-row path leaves it, and the
// statement matches the same rows or fails with the same error.
func TestShiftPathTaken(t *testing.T) {
	pathBytes := func(p ...uint32) sqltypes.Value { return B(dewey.Path(p).Bytes()) }
	for _, c := range []struct {
		name    string
		sql     string
		params  []sqltypes.Value
		inPlace bool
		perRow  int64  // index writes per row in place
		err     string // how the error starts; "" for none
	}{
		{"global", "UPDATE g SET gorder = gorder + ? WHERE doc = ? AND gorder >= ?",
			[]sqltypes.Value{I(20), I(1), I(300)}, true, 3, ""},
		{"local", "UPDATE l SET lorder = lorder + ? WHERE doc = ? AND parent = ? AND lorder >= ?",
			[]sqltypes.Value{I(1), I(1), I(1), I(4)}, true, 1, ""},
		{"dewey", "UPDATE x SET path = DEWEY_SHIFT(path, ?, ?) WHERE doc = ? AND path >= ? AND path < ?",
			[]sqltypes.Value{I(1), I(2), I(1), pathBytes(1, 7), B(dewey.Path{1}.PrefixSuccessor())}, true, 3, ""},
		{"dewey past one-byte codes", "UPDATE x SET path = DEWEY_SHIFT(path, ?, ?) WHERE doc = ? AND path >= ? AND path < ?",
			[]sqltypes.Value{I(1), I(120), I(1), pathBytes(1, 2), B(dewey.Path{1}.PrefixSuccessor())}, true, 3, ""},
		{"negative delta", "UPDATE g SET gorder = gorder + ? WHERE doc = ? AND gorder >= ?",
			[]sqltypes.Value{I(-5), I(1), I(300)}, false, 0, ""},
		{"upper bound passed", "UPDATE g SET gorder = gorder + ? WHERE doc = ? AND gorder >= ? AND gorder < ?",
			[]sqltypes.Value{I(25), I(1), I(300), I(340)}, false, 0, ""},
		{"upper bound collides", "UPDATE g SET gorder = gorder + ? WHERE doc = ? AND gorder >= ? AND gorder < ?",
			[]sqltypes.Value{I(20), I(1), I(300), I(340)}, false, 0, "unique index g_order: duplicate key (1, 350)"},
		{"byte budget", "UPDATE b SET k = TEST_PAD(k, ?) WHERE doc = ?",
			[]sqltypes.Value{I(2500), I(1)}, false, 0, ""},
		{"key too large", "UPDATE b SET k = TEST_PAD(k, ?) WHERE doc = ?",
			[]sqltypes.Value{I(7000), I(1)}, false, 0, "index b_k: 85"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, ref := Open(), Open()
			shiftTables(t, db, false)
			shiftTables(t, ref, true)
			before := db.Metrics()
			n, err := db.Exec(c.sql, c.params...)
			if (err == nil) != (c.err == "") || err != nil && !strings.HasPrefix(err.Error(), c.err) {
				t.Fatalf("error %v, want %q…", err, c.err)
			}
			refSQL := strings.NewReplacer("gorder + ?", "gorder + ? + 0", "lorder + ?", "lorder + ? + 0",
				"DEWEY_SHIFT(path,", "DEWEY_SHIFT(COALESCE(path),", "TEST_PAD(k,", "TEST_PAD(COALESCE(k),").Replace(c.sql)
			refN, refErr := ref.Exec(refSQL, c.params...)
			if n != refN || fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%d rows, %v; row by row %d rows, %v", n, err, refN, refErr)
			}
			shifted := db.Catalog().Counters.RowsShifted.Load()
			if c.inPlace {
				writes := db.Metrics().Delta(before, "storage.index_writes")
				if n == 0 || shifted != int64(n) || writes != c.perRow*int64(n) {
					t.Fatalf("%d rows, %d of them in place, %d index writes; want all in place, %d writes each", n, shifted, writes, c.perRow)
				}
			} else if shifted != 0 {
				t.Fatalf("%d of %d rows rewritten in place", shifted, n)
			}
			if problems := db.CheckIntegrity(); len(problems) > 0 {
				t.Fatalf("integrity: %v", problems)
			}
			for _, tb := range []string{"g", "l", "x", "b"} {
				if got, want := tableFingerprint(t, db, tb, db), tableFingerprint(t, ref, tb, db); got != want {
					t.Fatalf("table %s\nin place:   %s\nrow by row: %s", tb, got, want)
				}
			}
		})
	}
}
