package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ordxml/internal/sqldb/btree"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

// tableState renders what a reader of table name can observe: its rows in
// heap order, then every index's rows in key order. It fails the test when
// CheckIntegrity finds anything.
func tableState(t *testing.T, db *DB, name string) string {
	t.Helper()
	if probs := db.CheckIntegrity(); len(probs) > 0 {
		t.Fatalf("integrity: %v", probs)
	}
	tbl := db.Catalog().Table(name)
	var b strings.Builder
	if err := tbl.Scan(func(_ heap.RID, r sqltypes.Row) bool {
		fmt.Fprintf(&b, "%s ", r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, ix := range tbl.Indexes {
		fmt.Fprintf(&b, "\n%s:", ix.Name)
		tbl.IndexScan(ix, nil, nil, nil, false, false, func(rid heap.RID) bool {
			r, err := tbl.Fetch(rid)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, " %s", r)
			return true
		})
	}
	return b.String()
}

// denseKeys returns a table t whose unique column k holds 1..n, with a second
// unique key and a non-unique index over k, on memory or paged storage.
func denseKeys(t *testing.T, n int, paged bool) *DB {
	t.Helper()
	db := Open()
	if paged {
		db = OpenPooled(newTestPool(t, 64))
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, k INT NOT NULL, v INT)`)
	mustExec(t, db, `CREATE UNIQUE INDEX t_k ON t (k)`)
	mustExec(t, db, `CREATE INDEX t_v ON t (v, k)`)
	for i := 1; i <= n; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?)`, I(int64(i)), I(int64(i)), I(int64(i%3)))
	}
	return db
}

// Uniqueness holds per statement: a shift or reflection of dense unique keys
// passes through transient duplicates whichever order it visits the rows in,
// and must still succeed — through an index scan and through a heap scan.
func TestUpdatePermutesUniqueKeys(t *testing.T) {
	for _, paged := range []bool{false, true} {
		for _, c := range []struct {
			set   string
			where string
			want  func(k int64) int64
		}{
			{"k = k + 1", "k >= 1", func(k int64) int64 { return k + 1 }},
			{"k = k - 1", "k >= 1", func(k int64) int64 { return k - 1 }},
			{"k = 100 - k", "k >= 1", func(k int64) int64 { return 100 - k }},
			{"k = k + 1", "v >= 0", func(k int64) int64 { return k + 1 }},
			{"k = 100 - k", "id > 0", func(k int64) int64 { return 100 - k }},
			{"k = k - 1", "1 = 1", func(k int64) int64 { return k - 1 }},
		} {
			t.Run(fmt.Sprintf("paged=%v/%s/%s", paged, c.set, c.where), func(t *testing.T) {
				const n = 99
				db := denseKeys(t, n, paged)
				if got := mustExec(t, db, `UPDATE t SET `+c.set+` WHERE `+c.where); got != n {
					t.Fatalf("updated %d rows, want %d", got, n)
				}
				res := mustQuery(t, db, `SELECT id, k FROM t ORDER BY id`)
				for _, r := range res.Rows {
					if want := c.want(r[0].Int()); r[1].Int() != want {
						t.Fatalf("id %d: k = %d, want %d", r[0].Int(), r[1].Int(), want)
					}
				}
				tableState(t, db, "t")
			})
		}
	}
}

// oversized is a TEXT value whose index key cannot fit a tree page: the key
// codec escapes every NUL byte into two, so 5,000 of them encode to more
// than btree.MaxKeySize although the row fits a heap page.
var oversized = sqltypes.NewText(strings.Repeat("\x00", 5000))

// withTextIndex adds a table u whose unique k index precedes a non-unique
// index over the TEXT column s, holding (1, 1, 'a'), (2, 2, 'b'), (3, 3, 'c').
func withTextIndex(t *testing.T, db *DB) *DB {
	t.Helper()
	mustExec(t, db, `CREATE TABLE u (id INT PRIMARY KEY, k INT NOT NULL, s TEXT)`)
	mustExec(t, db, `CREATE UNIQUE INDEX u_k ON u (k)`)
	mustExec(t, db, `CREATE INDEX u_s ON u (s)`)
	mustExec(t, db, `INSERT INTO u VALUES (1, 1, 'a'), (2, 2, 'b'), (3, 3, 'c')`)
	return db
}

// A statement that fails leaves nothing behind: every row, every index scan
// and the integrity check are as they were, and Exec reports 0 rows.
func TestFailedDMLLeavesNoPrefix(t *testing.T) {
	for _, paged := range []bool{false, true} {
		for _, c := range []struct {
			name   string
			sql    string
			params []sqltypes.Value
		}{
			{"update collision", `UPDATE t SET k = 10 WHERE k >= 1`, nil},
			{"update NOT NULL", `UPDATE t SET k = NULL WHERE id = 3`, nil},
			{"update pkey collision", `UPDATE t SET id = id + 1 WHERE id <= 2`, nil},
			{"insert duplicate in batch", `INSERT INTO t VALUES (10, 10, 0), (11, 11, 0), (12, 10, 0)`, nil},
			{"insert duplicate of existing", `INSERT INTO t VALUES (10, 10, 0), (11, 2, 0)`, nil},
			{"insert NOT NULL", `INSERT INTO t VALUES (7, 7, 0), (8, NULL, 0)`, nil},
			// u_k's key changes and u_s's new key is too large: the size
			// check fails the row before any index is rewritten.
			{"update oversized later key", `UPDATE u SET k = k + 10, s = ? WHERE id = 2`, []sqltypes.Value{oversized}},
			{"insert oversized key", `INSERT INTO u VALUES (4, 4, 'd'), (5, 5, ?)`, []sqltypes.Value{oversized}},
		} {
			t.Run(fmt.Sprintf("paged=%v/%s", paged, c.name), func(t *testing.T) {
				db := withTextIndex(t, denseKeys(t, 3, paged))
				state := func() string { return tableState(t, db, "t") + "\n" + tableState(t, db, "u") }
				before := state()
				n, err := db.Exec(c.sql, c.params...)
				if err == nil {
					t.Fatalf("%s succeeded", c.sql)
				}
				if n != 0 {
					t.Errorf("failed statement reported %d rows", n)
				}
				if after := state(); after != before {
					t.Errorf("table changed by a failed statement\nbefore: %s\nafter:  %s", before, after)
				}
				// The table still takes the statements that are valid.
				mustExec(t, db, `UPDATE t SET k = k + 1 WHERE k >= 1`)
				mustExec(t, db, `INSERT INTO t VALUES (10, 1, 0), (11, 5, 0)`)
				tableState(t, db, "t")
			})
		}
	}
}

// An index key too large for a tree page is an error naming the index, on
// every write path, and the table is left as it was.
func TestOversizedIndexKeyIsAnError(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(fmt.Sprintf("paged=%v", paged), func(t *testing.T) {
			db := Open()
			if paged {
				db = OpenPooled(newTestPool(t, 64))
			}
			withTextIndex(t, db)
			before := tableState(t, db, "u")
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, btree.ErrKeyTooLarge) || !strings.Contains(err.Error(), "u_s") {
					t.Errorf("%s: err = %v, want btree.ErrKeyTooLarge naming u_s", what, err)
				}
				if after := tableState(t, db, "u"); after != before {
					t.Errorf("%s changed the table\nbefore: %s\nafter:  %s", what, before, after)
				}
			}
			_, err := db.Exec(`INSERT INTO u VALUES (4, 4, 'd'), (5, 5, ?), (6, 6, 'f')`, oversized)
			check("multi-row INSERT", err)
			_, err = db.Exec(`UPDATE u SET s = ? WHERE id = 3`, oversized)
			check("UPDATE", err)
			_, err = db.BulkInsert("u", []sqltypes.Row{
				{I(4), I(4), sqltypes.NewText("d")},
				{I(5), I(5), oversized},
			})
			check("BulkInsert", err)
		})
	}
}

// An UPDATE that grows a row past its heap page moves it to a new RID, and
// every index follows it, including those whose columns did not change.
func TestUpdateMovingRowRepointsEveryIndex(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(fmt.Sprintf("paged=%v", paged), func(t *testing.T) {
			db := Open()
			if paged {
				db = OpenPooled(newTestPool(t, 64))
			}
			withTextIndex(t, db)
			for i := int64(4); i <= 150; i++ {
				mustExec(t, db, `INSERT INTO u VALUES (?, ?, ?)`, I(i), I(i), sqltypes.NewText(strings.Repeat("p", 40)))
			}
			tbl := db.Catalog().Table("u")
			ridOf := func() heap.RID {
				var rid heap.RID
				tbl.IndexScan(tbl.Indexes[0], []sqltypes.Value{I(2)}, nil, nil, false, false, func(r heap.RID) bool {
					rid = r
					return false
				})
				return rid
			}
			was := ridOf()
			before := db.Metrics()
			mustExec(t, db, `UPDATE u SET s = ? WHERE id = 2`, sqltypes.NewText(strings.Repeat("g", 3000)))
			if ridOf() == was {
				t.Fatal("the grown row kept its RID; the test needs the heap to move it")
			}
			if n := db.Metrics().Delta(before, "storage.index_writes"); n != int64(len(tbl.Indexes)) {
				t.Errorf("moving the row wrote %d index entries, want one per index (%d)", n, len(tbl.Indexes))
			}
			tableState(t, db, "u")
			for _, q := range []string{`SELECT s FROM u WHERE id = 2`, `SELECT s FROM u WHERE k = 2`} {
				if res := mustQuery(t, db, q); len(res.Rows) != 1 || len(res.Rows[0][0].Text()) != 3000 {
					t.Errorf("%s after the move: %v", q, res.Rows)
				}
			}
		})
	}
}

// TestDMLMatchesModel runs seeded random UPDATE/INSERT/DELETE statements
// against a map model: a statement whose result would duplicate a unique
// key must fail and change nothing; any other succeeds with exactly the
// model's effect, in whatever order the plan visits its rows.
func TestDMLMatchesModel(t *testing.T) {
	type rec struct{ k, v int64 }
	const steps = 150
	for seed := int64(1); seed <= 4; seed++ {
		failed := 0
		r := rand.New(rand.NewSource(seed))
		db := denseKeys(t, 40, seed%2 == 0)
		model := map[int64]rec{}
		for i := int64(1); i <= 40; i++ {
			model[i] = rec{i, i % 3}
		}
		nextID := int64(100)
		for step := 0; step < steps; step++ {
			lo := r.Int63n(50)
			hi := lo + r.Int63n(20)
			d := r.Int63n(7) - 3
			var sql string
			var params []sqltypes.Value
			// apply returns the row's new state, or ok=false when the
			// statement does not match it.
			var apply func(id int64, x rec) (int64, rec, bool)
			inRange := func(x rec) bool { return x.k >= lo && x.k <= hi }
			var inserts [][3]int64
			switch r.Intn(7) {
			case 0:
				sql, params = `UPDATE t SET k = k + ? WHERE k >= ? AND k <= ?`, []sqltypes.Value{I(d), I(lo), I(hi)}
				apply = func(id int64, x rec) (int64, rec, bool) { return id, rec{x.k + d, x.v}, inRange(x) }
			case 1:
				sql, params = `UPDATE t SET k = ? - k WHERE k >= ? AND k <= ?`, []sqltypes.Value{I(lo + hi), I(lo), I(hi)}
				apply = func(id int64, x rec) (int64, rec, bool) { return id, rec{lo + hi - x.k, x.v}, inRange(x) }
			case 2:
				sql, params = `UPDATE t SET k = k + ?, v = v + 1 WHERE v = ?`, []sqltypes.Value{I(d), I(lo % 4)}
				apply = func(id int64, x rec) (int64, rec, bool) { return id, rec{x.k + d, x.v + 1}, x.v == lo%4 }
			case 3:
				sql, params = `UPDATE t SET id = id + ?, k = ? WHERE k >= ? AND k <= ?`, []sqltypes.Value{I(d), I(lo), I(lo), I(hi)}
				apply = func(id int64, x rec) (int64, rec, bool) { return id + d, rec{lo, x.v}, inRange(x) }
			case 4:
				sql, params = `UPDATE t SET k = k + ?`, []sqltypes.Value{I(d)}
				apply = func(id int64, x rec) (int64, rec, bool) { return id, rec{x.k + d, x.v}, true }
			case 5:
				sql, params = `DELETE FROM t WHERE k >= ? AND k <= ?`, []sqltypes.Value{I(lo), I(lo + 2)}
				apply = func(id int64, x rec) (int64, rec, bool) { return 0, x, x.k >= lo && x.k <= lo+2 }
			default:
				for i := 0; i < 1+r.Intn(3); i++ {
					inserts = append(inserts, [3]int64{nextID, r.Int63n(60), r.Int63n(3)})
					nextID++
				}
				ph := strings.TrimSuffix(strings.Repeat("(?, ?, ?), ", len(inserts)), ", ")
				sql = `INSERT INTO t VALUES ` + ph
				for _, in := range inserts {
					params = append(params, I(in[0]), I(in[1]), I(in[2]))
				}
				apply = func(int64, rec) (int64, rec, bool) { return 0, rec{}, false }
			}

			next := map[int64]rec{}
			valid, matched := true, 0
			put := func(id int64, x rec) {
				if _, dup := next[id]; dup {
					valid = false
				}
				next[id] = x
			}
			for id, x := range model {
				nid, nx, ok := apply(id, x)
				switch {
				case !ok:
					put(id, x)
				case strings.HasPrefix(sql, "DELETE"):
					matched++
				default:
					matched++
					put(nid, nx)
				}
			}
			for _, in := range inserts {
				matched++
				put(in[0], rec{in[1], in[2]})
			}
			keys := map[int64]bool{}
			for _, x := range next {
				if keys[x.k] {
					valid = false
				}
				keys[x.k] = true
			}

			n, err := db.Exec(sql, params...)
			switch {
			case valid && err != nil:
				t.Fatalf("seed %d step %d: %s %v failed: %v", seed, step, sql, params, err)
			case !valid && err == nil:
				t.Fatalf("seed %d step %d: %s %v succeeded over a duplicate key", seed, step, sql, params)
			case valid && n != matched:
				t.Fatalf("seed %d step %d: %s reported %d rows, want %d", seed, step, sql, n, matched)
			case !valid && n != 0:
				t.Fatalf("seed %d step %d: failed %s reported %d rows", seed, step, sql, n)
			}
			if valid {
				model = next
			} else {
				failed++
			}

			var want []string
			for id, x := range model {
				want = append(want, fmt.Sprintf("%d|%d|%d", id, x.k, x.v))
			}
			slices.Sort(want)
			got := rowsAsStrings(mustQuery(t, db, `SELECT id, k, v FROM t`))
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d after %s %v:\ngot  %v\nwant %v", seed, step, sql, params, got, want)
			}
			if step%25 == 0 {
				tableState(t, db, "t")
			}
		}
		tableState(t, db, "t")
		// Both outcomes must be exercised, or the model proves little.
		if failed < steps/10 || failed > steps*9/10 {
			t.Errorf("seed %d: %d of %d statements failed", seed, failed, steps)
		}
	}
}

// TestUpdateSetReadsRID checks that SET expressions still see the hidden
// _rid column: an UPDATE keeps its matched rows encoded without it and adds
// it back before evaluating them.
func TestUpdateSetReadsRID(t *testing.T) {
	for _, paged := range []bool{false, true} {
		db := denseKeys(t, 50, paged)
		if n := mustExec(t, db, `UPDATE t SET v = _rid WHERE k > 10`); n != 40 {
			t.Fatalf("paged=%v: updated %d rows, want 40", paged, n)
		}
		seen := map[int64]bool{}
		for _, r := range mustQuery(t, db, `SELECT v FROM t WHERE k > 10`).Rows {
			v := r[0].Int()
			if v < 3 || seen[v] {
				t.Errorf("paged=%v: v = %d, want a distinct packed RID", paged, v)
			}
			seen[v] = true
		}
		tableState(t, db, "t")
	}
}
