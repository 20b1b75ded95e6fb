package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ordxml/internal/core/dewey"
	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

// Plan-order differential testing. The same rows are loaded twice: once into
// tables with the node table's index shapes, once into tables with no index
// at all, where every plan is full scans, hash or nested-loop joins and a
// Sort. A chain join whose ORDER BY the indexed plan delivers without a Sort
// must return the rows the unindexed plan sorts.
//
// Tables n (INT order key) and d (BLOB order key, with 0x00 and 0xFF edge
// bytes) carry the node table's indexes: unique (doc, id), (doc, parent,
// ord), (doc, tag, ord) and unique (doc, ord). Table m has the same columns
// and indexes except the unique (doc, ord): its order keys repeat, and may be
// NULL, so an order on m.ord alone is not strict and a join below it must
// keep its Sort.

var planOrderDDL = []struct{ table, ordType string }{{"n", "INT"}, {"d", "BLOB"}, {"m", "INT"}}

// planOrderDBs returns the indexed and the unindexed database loaded with
// the rows seed generates. With tied set, m's rows 2 and 3 — two of the
// three rows that can have children — share tag 'a' and order key 0.
func planOrderDBs(t testing.TB, seed int64, tied bool) (indexed, plain *DB) {
	t.Helper()
	indexed, plain = Open(), Open()
	r := rand.New(rand.NewSource(seed))
	for _, tb := range planOrderDDL {
		notNull := " NOT NULL"
		if tb.table == "m" {
			notNull = ""
		}
		create := fmt.Sprintf("CREATE TABLE %s (doc INT NOT NULL, id INT NOT NULL, parent INT, tag TEXT, ord %s%s)",
			tb.table, tb.ordType, notNull)
		for _, db := range []*DB{indexed, plain} {
			if _, err := db.Exec(create); err != nil {
				t.Fatal(err)
			}
		}
		indexes := []string{
			"CREATE UNIQUE INDEX %[1]s_id ON %[1]s (doc, id)",
			"CREATE INDEX %[1]s_parent ON %[1]s (doc, parent, ord)",
			"CREATE INDEX %[1]s_tag ON %[1]s (doc, tag, ord)",
		}
		if tb.table != "m" {
			indexes = append(indexes, "CREATE UNIQUE INDEX %[1]s_ord ON %[1]s (doc, ord)")
		}
		for _, ix := range indexes {
			if _, err := indexed.Exec(fmt.Sprintf(ix, tb.table)); err != nil {
				t.Fatal(err)
			}
		}
		for doc := int64(1); doc <= 2; doc++ {
			rows := 4 + r.Intn(9)
			ords := map[string]bool{}
			for id := int64(1); id <= int64(rows); id++ {
				parent := Null()
				if id > 1 && r.Intn(6) > 0 {
					parent = I(1 + r.Int63n(min(id-1, 3))) // few parents, many children
				}
				tag := Null()
				if k := r.Intn(5); k < 4 {
					tag = S("aab"[k%3 : k%3+1])
				}
				var ord sqltypes.Value
				for ord.Type() == sqltypes.Null || ords[ord.String()] {
					switch {
					case tb.table == "m" && r.Intn(8) == 0:
						ord = Null()
					case tb.table == "m":
						ord = I(r.Int63n(2))
					case tb.ordType == "BLOB":
						key := make([]byte, r.Intn(4))
						for i := range key {
							key[i] = []byte{0x00, 0x01, 0x7f, 0xfe, 0xff}[r.Intn(5)]
						}
						ord = B(key)
					default:
						ord = I(r.Int63n(40) - 20)
					}
					if tb.table == "m" {
						break // m's order keys repeat
					}
				}
				if tied && tb.table == "m" && (id == 2 || id == 3) {
					tag, ord = S("a"), I(0)
				}
				ords[ord.String()] = true
				for _, db := range []*DB{indexed, plain} {
					if _, err := db.Exec("INSERT INTO "+tb.table+" VALUES (?, ?, ?, ?, ?)", I(doc), I(id), parent, tag, ord); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return indexed, plain
}

// shape hands out the choices a fuzz input makes, one byte each; an
// exhausted input chooses 0.
type shape []byte

func (s *shape) pick(n int) int {
	if len(*s) == 0 {
		return 0
	}
	v := int((*s)[0]) % n
	*s = (*s)[1:]
	return v
}

// planOrderQuery builds a 1–4-way chain join over n, d and m, optionally led
// by a relation parameter `? c (id, ord)`, whose ORDER BY is a prefix of the
// chain's columns. It returns the SQL, the number of ORDER BY items (the
// leading select items) and whether it has a LIMIT.
//
// An ordered chain is two tables, the second a child of the first, ordered by
// both order keys ascending, with no relation parameter and no second tag
// filter: the shape whose order the planner derives through an IndexNLJoin.
// Led by m, whose keys tie, the children of tied outer rows interleave, and
// only the Sort the planner must keep puts them in order. Uniform choices
// reach that case in about one input of 5,000, ordered chains over tied data
// (see planOrderDBs) in about one of 12.
func planOrderQuery(s *shape, ordered bool) (sql string, keys int, limited bool) {
	var from, where, sel []string
	var chain []string // candidate ORDER BY columns, in chain order
	prev, prevTable := "", ""
	if s.pick(4) == 0 && !ordered {
		from = append(from, "? c (id, ord)")
		chain = append(chain, []string{"c.ord", "c.id"}[s.pick(2)])
		sel = append(sel, "c.id")
		prev = "c"
	}
	k := 1 + s.pick(4)
	if ordered {
		k = 2
	}
	for i := 1; i <= k; i++ {
		tb := []string{"n", "d", "m", "m"}[s.pick(4)]
		a := fmt.Sprintf("a%d", i)
		from = append(from, tb+" "+a)
		where = append(where, a+".doc = 1")
		switch {
		case prev == "":
			where = append(where, []string{a + ".tag = 'a'", a + ".parent = 1", "", a + ".id > 2"}[s.pick(4)])
		case prev == "c":
			where = append(where, []string{a + ".parent = c.id", a + ".id = c.id"}[s.pick(2)])
		default:
			same := tb == prevTable
			switch c := s.pick(4); {
			case ordered:
				where = append(where, a+".parent = "+prev+".id")
			case c == 2 && same:
				where = append(where, a+".parent = "+prev+".parent", a+".ord > "+prev+".ord")
			case c == 3 && same:
				where = append(where, a+".tag = "+prev+".tag", a+".ord > "+prev+".ord")
			case c%2 == 0:
				where = append(where, a+".parent = "+prev+".id")
			default:
				where = append(where, a+".id = "+prev+".parent")
			}
		}
		if s.pick(3) == 0 && !ordered {
			where = append(where, a+".tag = 'b'")
		}
		col := []string{"ord", "ord", "ord", "ord", "id", "parent", "tag"}[s.pick(7)]
		if ordered {
			col = "ord"
		}
		chain = append(chain, a+"."+col)
		sel = append(sel, a+".id")
		prev, prevTable = a, tb
	}
	keys = 1 + s.pick(len(chain))
	if ordered {
		keys = len(chain)
	}
	desc := s.pick(3) == 0 && !ordered
	var order []string
	for _, col := range chain[:keys] {
		if s.pick(5) == 0 && !ordered {
			desc = !desc
		}
		if desc {
			col += " DESC"
		}
		order = append(order, col)
	}
	where = slices.DeleteFunc(where, func(c string) bool { return c == "" })
	sql = "SELECT " + strings.Join(append(slices.Clone(chain[:keys]), sel...), ", ") +
		" FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ") +
		" ORDER BY " + strings.Join(order, ", ")
	if limited = s.pick(5) == 0; limited {
		sql += fmt.Sprintf(" LIMIT %d", 1+s.pick(5))
	}
	return sql, keys, limited
}

// planOrderRelation is the relation parameter's rows: (id, ord) pairs with
// repeated ids and order keys.
func planOrderRelation(seed int64) sqltypes.Value {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	var rel []byte
	for i := 0; i < 4; i++ {
		rel = sqltypes.EncodeRow(rel, []sqltypes.Value{I(1 + r.Int63n(6)), I(r.Int63n(3))})
	}
	return sqltypes.NewBlob(rel)
}

// checkPlanOrder runs one query on both databases. The ORDER BY columns must
// come out in the same sequence, and the whole rows must be the same
// multiset unless a LIMIT cuts a run of ties at a point either plan may pick.
func checkPlanOrder(t *testing.T, indexed, plain *DB, sql string, keys int, limited bool, rel sqltypes.Value) {
	t.Helper()
	var params []sqltypes.Value
	if strings.Contains(sql, "?") {
		params = []sqltypes.Value{rel}
	}
	got, errI := indexed.Query(sql, params...)
	want, errP := plain.Query(sql, params...)
	if (errI != nil) != (errP != nil) {
		t.Fatalf("%s:\nindexed error %v, unindexed error %v", sql, errI, errP)
	}
	if errI != nil {
		return
	}
	plan, _ := indexed.Explain(sql)
	render := func(rows []sqltypes.Row, width int) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			out[i] = row[:width].String()
		}
		return out
	}
	if g, w := render(got.Rows, keys), render(want.Rows, keys); !slices.Equal(g, w) {
		t.Fatalf("%s:\nORDER BY columns %v\nunindexed sort %v\nplan:\n%s", sql, g, w, plan)
	}
	if limited || len(got.Rows) == 0 {
		return
	}
	width := len(got.Rows[0])
	g, w := render(got.Rows, width), render(want.Rows, width)
	slices.Sort(g)
	slices.Sort(w)
	if !slices.Equal(g, w) {
		t.Fatalf("%s:\nrows %v\nunindexed rows %v\nplan:\n%s", sql, g, w, plan)
	}
}

// tieShape builds `FROM m a1, n a2 WHERE a1.doc = 1 AND a1.tag = 'a' AND
// a2.doc = 1 AND a2.parent = a1.id ORDER BY a1.ord, a2.ord`: m's order keys
// tie, so the index join's order is not the ORDER BY and the Sort stays.
// With n leading instead of m (lead 0) the same query needs no Sort.
func tieShape(lead byte) []byte {
	return []byte{
		1,       // no relation parameter
		1,       // two tables
		lead, 0, // a1 is n (0) or m (2), tag = 'a'
		1,    // no extra tag filter
		0,    // order by a1.ord
		0, 0, // a2 is n, child of a1
		1,    // no extra tag filter
		0,    // order by a2.ord
		1,    // two ORDER BY items
		1,    // ascending
		1, 1, // no direction flips
		1, // no LIMIT
	}
}

// FuzzPlanOrder holds every plan that elides a Sort to the rows of the
// unindexed plan that sorts: the first byte picks the data (its low four
// bits) and whether the query is an ordered chain (bit 6), the rest the
// query (see planOrderQuery). With bit 7 set the input is a write script
// instead (see planWriteScript).
func FuzzPlanOrder(f *testing.F) {
	f.Add(append([]byte{3}, tieShape(2)...))
	f.Add(append([]byte{3}, tieShape(0)...))
	for seed := int64(1); seed <= 8; seed++ {
		in := make([]byte, 40)
		rand.New(rand.NewSource(seed)).Read(in)
		in[0] &^= 128 // a read seed whatever the random byte
		f.Add(in)
		in = slices.Clone(in)
		in[0] |= 128
		f.Add(in)
	}
	for _, in := range planWriteSeeds {
		f.Add(in)
	}
	type dbs struct{ indexed, plain *DB }
	cache := map[byte]dbs{}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		if in[0]&128 != 0 {
			planWriteScript(t, int64(in[0]%16), shape(in[1:]))
			return
		}
		seed, biased := in[0]%16, in[0]&64 != 0
		d, ok := cache[in[0]&(64|15)]
		if !ok {
			d.indexed, d.plain = planOrderDBs(t, int64(seed), biased)
			cache[in[0]&(64|15)] = d
		}
		s := shape(in[1:])
		sql, keys, limited := planOrderQuery(&s, biased)
		checkPlanOrder(t, d.indexed, d.plain, sql, keys, limited, planOrderRelation(int64(seed)))
	})
}

// TestPlanOrderTieKeepsSort pins the strictness rule on the seed corpus's
// tie case: a join below m's non-unique order keeps its Sort, the same join
// below n's unique order drops it, and both return the sorted rows.
func TestPlanOrderTieKeepsSort(t *testing.T) {
	indexed, plain := planOrderDBs(t, 3, false)
	for _, c := range []struct {
		lead byte
		sort bool
	}{{2, true}, {0, false}} {
		s := shape(tieShape(c.lead))
		sql, keys, limited := planOrderQuery(&s, false)
		plan, err := indexed.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(plan, "Sort") != c.sort || !strings.Contains(plan, "IndexNLJoin") {
			t.Errorf("%s: want a Sort: %v, over an IndexNLJoin:\n%s", sql, c.sort, plan)
		}
		checkPlanOrder(t, indexed, plain, sql, keys, limited, sqltypes.Value{})
	}
}

// The write side. The same DML statements run on an indexed and a plain
// copy of the same rows; the indexed copy's order-preserving UPDATEs may
// rewrite index runs in place, the plain copy's may not. The plain copy
// keeps only the unique indexes, the constraints whose violations both must
// report alike, and runs each shift spelled so the planner does not see it
// as one (`ord + ? + 0`, `DEWEY_SHIFT(COALESCE(ord), …)`), so it takes the
// row-by-row path. Each statement must match the same number of rows or
// fail with the same error, and leave the same table: the same rows, and
// each index holding the entries the rows give it, in order. Tables w and v have INT order keys —
// w's unique per document, v's repeating and nullable — and p Dewey paths
// (the binary codec) under the root path 1, unique per document; all three
// have the node table's indexes but for v's unique (doc, ord). A TEXT pad
// column fills heap pages, so a row whose order key's encoding widens
// (63 → 64, 8191 → 8192) may move, and w's keys start beside those widths
// and p's sibling ordinals beside the codec's 126 → 127 code length.

// planWriteSeeds are write scripts that cross the row codec's varint widths
// (63 → 64 and 8191 → 8192, so rows grow and may move) and the Dewey codec's
// one-byte code length (126 → 127), and a shift whose upper bound lets keys
// pass the entries above it.
var planWriteSeeds = [][]byte{
	{128 | 1, 0, 0, 2, 0, 0, 3, 3, 2},
	{128 | 2, 0, 0, 5, 0, 0, 3, 2, 2},
	{128 | 2, 1, 1, 4, 3, 0, 4, 7, 2, 0, 0, 5, 0, 0, 3, 2, 1, 1},
	{128 | 3, 2, 0, 1, 2, 0, 0, 0},
	{128 | 4, 2, 1, 1, 0, 10, 19, 1, 2, 0, 1, 0, 3, 1},
	{128 | 1, 0, 0, 1, 7, 20, 3, 3, 0},
	{128 | 1, 0, 0, 2, 0, 0, 3, 1, 0},
	{128 | 1, 0, 0, 2, 0, 0, 3, 5, 2},
	{128 | 5, 1, 0, 2, 0, 3, 3, 0, 2, 0, 0, 1, 2, 4, 1},
}

var planWriteTables = []string{"w", "v", "p"}

// planWriteShift is DEWEY_SHIFT as the update layer registers it: the
// binary Dewey codec's shift of one component.
func init() {
	expr.RegisterIncreasing("DEWEY_SHIFT", func(a []sqltypes.Value) (sqltypes.Value, error) {
		if len(a) != 3 || a[0].Type() != sqltypes.Blob || a[1].Type() != sqltypes.Int || a[2].Type() != sqltypes.Int {
			return sqltypes.Value{}, fmt.Errorf("DEWEY_SHIFT(%v)", a)
		}
		b, err := dewey.ShiftBytes(a[0].Blob(), int(a[1].Int()), a[2].Int())
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewBlob(b), nil
	}, 2)
}

// planWriteDBs returns the indexed and the unindexed write-side databases
// loaded with the rows seed generates.
func planWriteDBs(t testing.TB, seed int64) (indexed, plain *DB) {
	t.Helper()
	indexed, plain = Open(), Open()
	r := rand.New(rand.NewSource(seed))
	for _, tb := range planWriteTables {
		ordType, notNull := "INT", " NOT NULL"
		switch tb {
		case "v":
			notNull = ""
		case "p":
			ordType = "BLOB"
		}
		create := fmt.Sprintf("CREATE TABLE %s (doc INT NOT NULL, id INT NOT NULL, parent INT, tag TEXT, ord %s%s, pad TEXT)", tb, ordType, notNull)
		for _, db := range []*DB{indexed, plain} {
			if _, err := db.Exec(create); err != nil {
				t.Fatal(err)
			}
		}
		indexes := []string{
			"CREATE UNIQUE INDEX %[1]s_id ON %[1]s (doc, id)",
			"CREATE INDEX %[1]s_parent ON %[1]s (doc, parent, ord)",
			"CREATE INDEX %[1]s_tag ON %[1]s (doc, tag, ord)",
		}
		if tb != "v" {
			indexes = append(indexes, "CREATE UNIQUE INDEX %[1]s_ord ON %[1]s (doc, ord)")
		}
		for _, ix := range indexes {
			for _, db := range []*DB{indexed, plain} {
				if db == plain && !strings.Contains(ix, "UNIQUE") {
					continue
				}
				if _, err := db.Exec(fmt.Sprintf(ix, tb)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for doc := int64(1); doc <= 2; doc++ {
			ords := map[string]bool{}
			for id := int64(1); id <= int64(6+r.Intn(14)); id++ {
				parent := Null()
				if id > 1 && r.Intn(5) > 0 {
					parent = I(1 + r.Int63n(min(id-1, 3)))
				}
				tag := Null()
				if k := r.Intn(5); k < 4 {
					tag = S("aab"[k%3 : k%3+1])
				}
				var ord sqltypes.Value
				for ord.Type() == sqltypes.Null || ords[ord.String()] {
					switch {
					case tb == "v" && r.Intn(8) == 0:
						ord = Null()
					case tb == "v":
						ord = I(55 + r.Int63n(6))
					case tb == "p":
						path := dewey.Path{1, uint32(118 + r.Intn(12))}
						if r.Intn(3) == 0 {
							path = append(path, uint32(1+r.Intn(3)))
						}
						ord = B(path.Bytes())
					default:
						ord = I([]int64{-8, 40, 8170}[r.Intn(3)] + r.Int63n(30))
					}
					if tb == "v" {
						break
					}
				}
				ords[ord.String()] = true
				pad := S(strings.Repeat("x", 100+r.Intn(800)))
				for _, db := range []*DB{indexed, plain} {
					if _, err := db.Exec("INSERT INTO "+tb+" VALUES (?, ?, ?, ?, ?, ?)", I(doc), I(id), parent, tag, ord, pad); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return indexed, plain
}

// planWriteStatement builds one DML statement over the write-side tables and
// its parameters: a shift `ord = ord + ?` from a key on, with or without an
// upper bound and a parent, by a delta that is positive, zero or negative; a
// DEWEY_SHIFT of p's sibling ordinals; an UPDATE that reverses keys; or a
// DELETE.
func planWriteStatement(s *shape) (string, []sqltypes.Value) {
	tb := planWriteTables[s.pick(3)]
	doc := I(1 + int64(s.pick(2)))
	if tb == "p" && s.pick(4) > 0 {
		deltas := []int64{1, 2, 9, 0, -1, 126}
		from := dewey.Path{1, uint32(116 + s.pick(14))}
		high := dewey.Path{1, uint32(120 + s.pick(20))}.Bytes()
		if s.pick(3) == 0 {
			high = dewey.Path{1}.PrefixSuccessor()
		}
		return "UPDATE p SET ord = DEWEY_SHIFT(ord, ?, ?) WHERE doc = ? AND ord >= ? AND ord < ?",
			[]sqltypes.Value{I(1), I(deltas[s.pick(len(deltas))]), doc, B(from.Bytes()), B(high)}
	}
	var from, to sqltypes.Value
	if tb == "p" {
		from, to = B(dewey.Path{1, uint32(116 + s.pick(14))}.Bytes()), B(dewey.Path{1, uint32(120 + s.pick(20))}.Bytes())
	} else {
		base := []int64{-10, 30, 50, 60, 8160, 8185}[s.pick(6)]
		from, to = I(base+int64(s.pick(8))), I(base+int64(8+s.pick(30)))
	}
	switch s.pick(6) {
	case 0:
		return "DELETE FROM " + tb + " WHERE doc = ? AND ord >= ? AND ord < ?", []sqltypes.Value{doc, from, to}
	case 1:
		return "DELETE FROM " + tb + " WHERE doc = ? AND id = ?", []sqltypes.Value{doc, I(1 + int64(s.pick(12)))}
	case 2:
		if tb != "p" {
			return "UPDATE " + tb + " SET ord = ? - ord WHERE doc = ? AND ord >= ?", []sqltypes.Value{I(100), doc, from}
		}
	}
	if tb == "p" {
		return "UPDATE p SET ord = DEWEY_SHIFT(ord, ?, ?) WHERE doc = ? AND ord >= ?", []sqltypes.Value{I(1), I(1), doc, from}
	}
	delta := I([]int64{1, 2, 7, 30, 0, -1, -3, 8200}[s.pick(8)])
	switch s.pick(3) {
	case 0:
		return "UPDATE " + tb + " SET ord = ord + ? WHERE doc = ? AND ord >= ? AND ord < ?", []sqltypes.Value{delta, doc, from, to}
	case 1:
		return "UPDATE " + tb + " SET ord = ord + ? WHERE doc = ? AND parent = ? AND ord >= ?", []sqltypes.Value{delta, doc, I(1 + int64(s.pick(3))), from}
	}
	return "UPDATE " + tb + " SET ord = ord + ? WHERE doc = ? AND ord >= ?", []sqltypes.Value{delta, doc, from}
}

// planWriteScript runs the statements s describes on fresh copies of seed's
// rows and checks each against the unindexed copy.
func planWriteScript(t *testing.T, seed int64, s shape) {
	indexed, plain := planWriteDBs(t, seed)
	for step := 0; len(s) > 0 && step < 12; step++ {
		sql, params := planWriteStatement(&s)
		nI, errI := indexed.Exec(sql, params...)
		nP, errP := plain.Exec(strings.NewReplacer("ord + ?", "ord + ? + 0", "DEWEY_SHIFT(ord,", "DEWEY_SHIFT(COALESCE(ord),").Replace(sql), params...)
		if fmt.Sprint(errI) != fmt.Sprint(errP) || nI != nP {
			t.Fatalf("step %d: %s %v:\nindexed: %d rows, %v\nunindexed: %d rows, %v", step, sql, params, nI, errI, nP, errP)
		}
		if problems := indexed.CheckIntegrity(); len(problems) > 0 {
			t.Fatalf("step %d: %s %v: integrity: %v", step, sql, params, problems)
		}
		for _, tb := range planWriteTables {
			if got, want := tableFingerprint(t, indexed, tb, indexed), tableFingerprint(t, plain, tb, indexed); got != want {
				t.Fatalf("step %d: %s %v: table %s\nindexed:   %s\nunindexed: %s", step, sql, params, tb, got, want)
			}
		}
	}
}

// tableFingerprint renders a table's rows in (doc, id) order and, for every
// index the table has in the database like, the entries the rows give it in
// index order: from the tree of db when db has the index, else by sorting
// the rows on their key encodings. Entries with equal keys render alike, so
// the order of RID ties does not show.
func tableFingerprint(t *testing.T, db *DB, name string, like *DB) string {
	t.Helper()
	tbl := db.Catalog().Table(name)
	var rows []sqltypes.Row
	if err := tbl.Scan(func(_ heap.RID, row sqltypes.Row) bool {
		rows = append(rows, row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	key := func(row sqltypes.Row, cols ...int) string {
		var k []byte
		for _, c := range cols {
			k = sqltypes.EncodeKey(k, row[c])
		}
		return string(k)
	}
	var b strings.Builder
	slices.SortFunc(rows, func(x, y sqltypes.Row) int { return strings.Compare(key(x, 0, 1), key(y, 0, 1)) })
	for _, row := range rows {
		b.WriteString(row.String())
	}
	for _, want := range like.Catalog().Table(name).Indexes {
		idx := want.Columns
		var entries []string
		var ix *catalog.Index
		for _, x := range tbl.Indexes {
			if slices.Equal(x.Columns, idx) {
				ix = x
			}
		}
		if ix != nil {
			for it := ix.Tree.Seek(nil, nil); it.Valid(); it.Next() {
				row, err := tbl.Fetch(it.RID())
				if err != nil {
					t.Fatal(err)
				}
				entries = append(entries, key(row, idx...))
			}
		} else {
			for _, row := range rows {
				entries = append(entries, key(row, idx...))
			}
			slices.Sort(entries)
		}
		fmt.Fprintf(&b, " %s:%x", want.Name, entries)
	}
	return b.String()
}
