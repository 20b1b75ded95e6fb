package plan_test

import (
	"strings"
	"testing"

	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
)

// The planner is exercised through the engine facade: execute real SQL and
// assert on EXPLAIN output and on counter-visible behaviour.

func setup(t *testing.T) *sqldb.DB {
	t.Helper()
	db := sqldb.Open()
	stmts := []string{
		"CREATE TABLE n (doc INT NOT NULL, id INT NOT NULL, parent INT, tag TEXT, ord INT NOT NULL)",
		"CREATE UNIQUE INDEX n_ord ON n (doc, ord)",
		"CREATE UNIQUE INDEX n_id ON n (doc, id)",
		"CREATE INDEX n_parent ON n (doc, parent, ord)",
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	const ins = "INSERT INTO n VALUES (1, ?, ?, ?, ?)"
	for i := int64(1); i <= 100; i++ {
		parent := sqldb.Null()
		if i > 1 {
			parent = sqldb.I(1)
		}
		if _, err := db.Exec(ins, sqldb.I(i), parent, sqldb.S("t"), sqldb.I(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func explain(t *testing.T, db *sqldb.DB, sql string) string {
	t.Helper()
	p, err := db.Explain(sql)
	if err != nil {
		t.Fatalf("Explain(%q): %v", sql, err)
	}
	return p
}

// Regression: both range bounds on one index column must become scan bounds
// (an unbounded high end made Dewey subtree scans read to end-of-document).
func TestRangeUsesBothBounds(t *testing.T) {
	db := setup(t)
	before := db.Counters()
	res, err := db.Query("SELECT id FROM n WHERE doc = 1 AND ord >= ? AND ord < ?",
		sqldb.I(200), sqldb.I(300))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	d := db.Counters().Sub(before)
	if d.IndexProbes != 10 {
		t.Errorf("probes = %d, want 10 (upper bound not pushed into scan?)", d.IndexProbes)
	}
	p := explain(t, db, "SELECT id FROM n WHERE doc = 1 AND ord >= 200 AND ord < 300")
	if !strings.Contains(p, "ord>=200") || !strings.Contains(p, "ord<300") {
		t.Errorf("bounds missing from plan:\n%s", p)
	}
	if strings.Contains(p, "filter=") {
		t.Errorf("range became residual filter:\n%s", p)
	}
}

func TestBetweenConsumed(t *testing.T) {
	db := setup(t)
	p := explain(t, db, "SELECT id FROM n WHERE doc = 1 AND ord BETWEEN 200 AND 300")
	if !strings.Contains(p, "ord>=200") || !strings.Contains(p, "ord<=300") || strings.Contains(p, "filter=") {
		t.Errorf("BETWEEN not fully pushed:\n%s", p)
	}
}

func TestEqPrefixPlusRange(t *testing.T) {
	db := setup(t)
	p := explain(t, db, "SELECT id FROM n WHERE doc = 1 AND parent = 1 AND ord > 500")
	if !strings.Contains(p, "using n_parent") {
		t.Errorf("composite index unused:\n%s", p)
	}
	if !strings.Contains(p, "ord>500") {
		t.Errorf("range not pushed:\n%s", p)
	}
}

func TestOrderSatisfiedByIndex(t *testing.T) {
	db := setup(t)
	p := explain(t, db, "SELECT id FROM n WHERE doc = 1 AND parent = 1 ORDER BY ord")
	if strings.Contains(p, "Sort") {
		t.Errorf("sort not elided:\n%s", p)
	}
	// DESC order cannot ride the (ascending) index.
	p = explain(t, db, "SELECT id FROM n WHERE doc = 1 AND parent = 1 ORDER BY ord DESC")
	if !strings.Contains(p, "Sort") {
		t.Errorf("DESC wrongly elided sort:\n%s", p)
	}
}

func TestIndexNLJoinRangePair(t *testing.T) {
	db := setup(t)
	// Correlated range with both bounds from the left row.
	p := explain(t, db, `SELECT b.id FROM n a JOIN n b
		ON b.doc = 1 AND b.ord > a.ord AND b.ord < a.ord + 50
		WHERE a.doc = 1 AND a.id = 5`)
	if !strings.Contains(p, "IndexNLJoin") {
		t.Errorf("correlated range pair did not use IndexNLJoin:\n%s", p)
	}
	if !strings.Contains(p, "ord>a.ord") || !strings.Contains(p, "ord<(a.ord + 50)") {
		t.Errorf("bounds missing:\n%s", p)
	}
	res, err := db.Query(`SELECT b.id FROM n a JOIN n b
		ON b.doc = 1 AND b.ord > a.ord AND b.ord < a.ord + 50
		WHERE a.doc = 1 AND a.id = 5 ORDER BY b.id`)
	if err != nil {
		t.Fatal(err)
	}
	// a.ord = 50; b.ord in (50, 100) -> ids 6..9.
	if len(res.Rows) != 4 || res.Rows[0][0].Int() != 6 || res.Rows[3][0].Int() != 9 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// rel binds rows as a relation parameter: their row encodings back to back.
func rel(rows ...sqltypes.Row) sqltypes.Value {
	var buf []byte
	for _, r := range rows {
		buf = sqltypes.EncodeRow(buf, r)
	}
	return sqltypes.NewBlob(buf)
}

// A relation parameter is the outer side of a correlated index join: the
// plan probes the table's index once per bound row, and is the same plan for
// any number of them.
func TestRelationParameterJoin(t *testing.T) {
	db := setup(t)
	sql := `SELECT c.id, b.id FROM ? c (id, lo, hi), n b
		WHERE b.doc = 1 AND b.ord > c.lo AND b.ord < c.hi ORDER BY b.ord`
	p := explain(t, db, sql)
	if !strings.Contains(p, "IndexNLJoin n using n_ord AS b doc=1 ord>c.lo ord<c.hi") ||
		!strings.Contains(p, "ParamScan ?1 AS c (id, lo, hi)") {
		t.Errorf("relation parameter did not drive an index join:\n%s", p)
	}
	res, err := db.Query(sql, rel(
		sqltypes.Row{sqldb.I(7), sqldb.I(10), sqldb.I(40)},
		sqltypes.Row{sqldb.I(8), sqldb.I(970), sqldb.I(5000)}))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r.String())
	}
	if want := "(7, 2) (7, 3) (8, 98) (8, 99) (8, 100)"; strings.Join(got, " ") != want {
		t.Errorf("rows = %v, want %s", got, want)
	}
	if res, err = db.Query(sql, rel()); err != nil || len(res.Rows) != 0 {
		t.Errorf("empty relation: %v, %v", res, err)
	}
	// As the inner side it has no index: the planner hashes it.
	p = explain(t, db, `SELECT b.id FROM n b, ? c (id) WHERE b.doc = 1 AND b.id = c.id`)
	if !strings.Contains(p, "HashJoin") || !strings.Contains(p, "ParamScan ?1 AS c (id)") {
		t.Errorf("inner relation parameter:\n%s", p)
	}
	// A predicate on the relation alone filters it before the join.
	res, err = db.Query(`SELECT b.id FROM ? c (id), n b WHERE b.doc = 1 AND b.id = c.id AND c.id > 2`,
		rel(sqltypes.Row{sqldb.I(2)}, sqltypes.Row{sqldb.I(3)}))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Errorf("filtered relation: %v, %v", res, err)
	}
}

func TestRelationParameterErrors(t *testing.T) {
	db := setup(t)
	sql := `SELECT b.id FROM ? c (id, lo), n b WHERE b.doc = 1 AND b.id = c.id`
	for name, params := range map[string][]sqltypes.Value{
		"unbound":     nil,
		"not a blob":  {sqldb.I(3)},
		"wrong width": {rel(sqltypes.Row{sqldb.I(3)})},
		"corrupt":     {sqltypes.NewBlob([]byte{2, 1})},
	} {
		if _, err := db.Query(sql, params...); err == nil {
			t.Errorf("%s relation parameter accepted", name)
		}
	}
	if _, err := db.Query(`SELECT 1 FROM ? c (id), ? c (id)`, rel(), rel()); err == nil {
		t.Error("duplicate relation alias accepted")
	}
}

func TestSelfJoinAliases(t *testing.T) {
	db := setup(t)
	res, err := db.Query(`SELECT c.id FROM n p, n c
		WHERE p.doc = 1 AND c.doc = 1 AND p.id = 1 AND c.parent = p.id AND c.ord <= 30
		ORDER BY c.ord`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // children ids 2,3 (ord 20,30)
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestNullBoundYieldsEmpty(t *testing.T) {
	db := setup(t)
	res, err := db.Query("SELECT id FROM n WHERE doc = 1 AND ord > ?", sqldb.Null())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("NULL bound matched %d rows", len(res.Rows))
	}
	res, err = db.Query("SELECT id FROM n WHERE doc = 1 AND id = ?", sqldb.Null())
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("NULL eq matched %d rows, %v", len(res.Rows), err)
	}
}

func TestLikePrefixBoundary(t *testing.T) {
	db := sqldb.Open()
	db.Exec("CREATE TABLE s (v TEXT PRIMARY KEY)")
	for _, v := range []string{"ab", "ab0", "ab\xff", "ac", "b"} {
		if _, err := db.Exec("INSERT INTO s VALUES (?)", sqldb.S(v)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("SELECT COUNT(*) FROM s WHERE v LIKE 'ab%'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("LIKE ab%% matched %v", res.Rows[0][0])
	}
	// Inexact pattern keeps the residual LIKE filter.
	p, _ := db.Explain("SELECT v FROM s WHERE v LIKE 'a%0'")
	if !strings.Contains(p, "IndexScan") || !strings.Contains(p, "filter=") {
		t.Errorf("inexact LIKE plan:\n%s", p)
	}
	res, _ = db.Query("SELECT v FROM s WHERE v LIKE 'a%0'")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "ab0" {
		t.Fatalf("inexact LIKE rows = %v", res.Rows)
	}
}

func TestConflictingRangesStaySound(t *testing.T) {
	db := setup(t)
	// Two lower bounds: one is a scan bound, the other must remain a filter.
	res, err := db.Query("SELECT COUNT(*) FROM n WHERE doc = 1 AND ord > 100 AND ord > 500")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 50 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	// Contradictory bounds yield zero rows, not an error.
	res, err = db.Query("SELECT COUNT(*) FROM n WHERE doc = 1 AND ord > 500 AND ord < 100")
	if err != nil || res.Rows[0][0].Int() != 0 {
		t.Fatalf("contradiction: %v, %v", res.Rows, err)
	}
}

func TestAggregateOverIndexRange(t *testing.T) {
	db := setup(t)
	res, err := db.Query("SELECT MIN(ord), MAX(ord), COUNT(*) FROM n WHERE doc = 1 AND parent = 1")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].Int() != 20 || r[1].Int() != 1000 || r[2].Int() != 99 {
		t.Fatalf("agg row = %v", r)
	}
}
