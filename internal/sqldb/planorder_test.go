package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

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
// query (see planOrderQuery).
func FuzzPlanOrder(f *testing.F) {
	f.Add(append([]byte{3}, tieShape(2)...))
	f.Add(append([]byte{3}, tieShape(0)...))
	for seed := int64(1); seed <= 8; seed++ {
		in := make([]byte, 40)
		rand.New(rand.NewSource(seed)).Read(in)
		f.Add(in)
	}
	type dbs struct{ indexed, plain *DB }
	cache := map[byte]dbs{}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
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
