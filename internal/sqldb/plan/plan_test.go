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
	// DESC order rides the same index backwards, and yields the rows a Sort
	// of the same query yields.
	const desc = "SELECT id FROM n WHERE doc = 1 AND parent = 1 ORDER BY ord DESC"
	p = explain(t, db, desc)
	if strings.Contains(p, "Sort") || !strings.Contains(p, "IndexScan n using n_parent doc=1 parent=1 desc") {
		t.Errorf("DESC not delivered by a backward index scan:\n%s", p)
	}
	const sorted = "SELECT id FROM n WHERE doc = 1 AND parent = 1 ORDER BY ord + 0 DESC"
	if p := explain(t, db, sorted); !strings.Contains(p, "Sort") {
		t.Fatalf("reference query does not sort:\n%s", p)
	}
	if got, want := ids(t, db, desc), ids(t, db, sorted); got != want || !strings.HasPrefix(got, "(100) (99) (98) ") {
		t.Errorf("backward scan rows %q, sorted rows %q", got, want)
	}
}

// An ORDER BY name that is a SELECT alias means the aliased item, even when
// a column has that name too: the index on the column does not deliver it.
func TestOrderByAliasShadowingColumn(t *testing.T) {
	db := setup(t)
	const q = "SELECT 0 - id AS ord FROM n WHERE doc = 1 ORDER BY ord LIMIT 3"
	if p := explain(t, db, q); !strings.Contains(p, "Sort") {
		t.Errorf("the ord column's index stood in for the alias:\n%s", p)
	}
	if got := ids(t, db, q); got != "(-100) (-99) (-98)" {
		t.Errorf("rows = %q", got)
	}
}

// A descending ORDER BY with LIMIT reads only the rows it returns.
func TestDescLimitStopsEarly(t *testing.T) {
	db := setup(t)
	before := db.Counters()
	if got := ids(t, db, "SELECT id FROM n WHERE doc = 1 ORDER BY ord DESC LIMIT 3"); got != "(100) (99) (98)" {
		t.Errorf("rows = %q", got)
	}
	d := db.Counters().Sub(before)
	if examined := d.IndexProbes + d.RowsScanned; examined != 3 {
		t.Errorf("examined %d rows for LIMIT 3", examined)
	}
}

// An ORDER BY whose items mix directions cannot ride one index scan; the
// same items in one direction can, either way.
func TestMixedDirectionOrderSorts(t *testing.T) {
	db := setup(t)
	mixed := "SELECT id FROM n WHERE doc = 1 AND parent = 1 ORDER BY parent, ord DESC"
	if p := explain(t, db, mixed); !strings.Contains(p, "Sort") {
		t.Errorf("mixed directions elided the sort:\n%s", p)
	}
	if got := ids(t, db, mixed); !strings.HasPrefix(got, "(100) (99) ") {
		t.Errorf("mixed-direction rows = %q", got)
	}
	for _, q := range []string{
		"SELECT id FROM n WHERE doc = 1 ORDER BY parent, ord",
		"SELECT id FROM n WHERE doc = 1 ORDER BY parent DESC, ord DESC",
	} {
		if p := explain(t, db, q); strings.Contains(p, "Sort") || !strings.Contains(p, "using n_parent") {
			t.Errorf("%s: not delivered by n_parent:\n%s", q, p)
		}
	}
}

// TestMinMaxEndpoint: a lone MIN or MAX over an indexed column reads one
// index entry, whatever the range holds, and answers what the full
// aggregate answers (a second aggregate keeps the full HashAggregate plan).
func TestMinMaxEndpoint(t *testing.T) {
	db := setup(t)
	// Document 3's rows all have a NULL parent.
	for i := int64(1); i <= 3; i++ {
		if _, err := db.Exec("INSERT INTO n VALUES (3, ?, NULL, 'r', ?)", sqldb.I(i), sqldb.I(i)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		agg, where string
		plan       string // expected scan line fragment
		want       string // expected result
	}{
		{"MAX(id)", "doc = 1", "using n_id doc=1 desc", "100"},
		{"MIN(id)", "doc = 1", "using n_id doc=1\n", "1"},
		{"MAX(ord)", "doc = 1 AND ord < 555", "using n_ord doc=1 ord<555 desc", "550"},
		{"MIN(ord)", "doc = 1 AND ord > 555", "using n_ord doc=1 ord>555\n", "560"},
		{"MAX(ord)", "doc = 1 AND id < 50", "filter=(id < 50)", "490"},
		{"MIN(ord)", "doc = 1 AND tag = 't' AND id > 50", "filter=", "510"},
		// Empty ranges: the aggregate still returns its one NULL row.
		{"MAX(id)", "doc = 2", "using n_id doc=2 desc", "NULL"},
		{"MIN(ord)", "doc = 1 AND ord > 5000", "using n_ord doc=1 ord>5000", "NULL"},
		// NULLs sort first in the index; MIN and MAX skip them.
		{"MIN(parent)", "doc = 1", "filter=(n.parent IS NOT NULL)", "1"},
		{"MAX(parent)", "doc = 1", "desc filter=(n.parent IS NOT NULL)", "1"},
		{"MIN(parent)", "doc = 3", "filter=(n.parent IS NOT NULL)", "NULL"},
		{"MAX(doc)", "", "IndexScan n using n_ord desc", "3"},
	}
	for _, c := range cases {
		where := ""
		if c.where != "" {
			where = " WHERE " + c.where
		}
		q := "SELECT " + c.agg + " FROM n" + where
		p := explain(t, db, q)
		if !strings.Contains(p, "HashAggregate") || !strings.Contains(p, "Limit limit=1") || !strings.Contains(p+"\n", c.plan) {
			t.Errorf("%s: want HashAggregate over Limit 1 over %q:\n%s", q, c.plan, p)
		}
		before := db.Counters()
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		d := db.Counters().Sub(before)
		if len(res.Rows) != 1 || res.Rows[0][0].String() != c.want {
			t.Errorf("%s = %v, want %s", q, res.Rows, c.want)
		}
		full, err := db.Query("SELECT " + c.agg + ", COUNT(*) FROM n" + where)
		if err != nil {
			t.Fatal(err)
		}
		if got, ref := res.Rows[0][0].String(), full.Rows[0][0].String(); got != ref {
			t.Errorf("%s = %s, full aggregate %s", q, got, ref)
		}
		if strings.Contains(c.plan, "filter=") {
			continue // residual filters and skipped NULLs read past the endpoint
		}
		if examined := d.IndexProbes + d.RowsScanned; examined > 1 {
			t.Errorf("%s examined %d rows", q, examined)
		}
	}
	for _, q := range []string{
		"SELECT MIN(ord), MAX(ord) FROM n WHERE doc = 1",
		"SELECT MAX(ord) FROM n WHERE doc = 1 GROUP BY parent",
		"SELECT MAX(tag) FROM n WHERE doc = 1",
	} {
		if p := explain(t, db, q); strings.Contains(p, "Limit") {
			t.Errorf("%s: endpoint rule applied:\n%s", q, p)
		}
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

// valueDB is an edge table with a (doc, tag) index: a step tag and a
// predicate tag to join by parent, in the shape the XPath translator emits.
func valueDB(t *testing.T) *sqldb.DB {
	t.Helper()
	db := sqldb.Open()
	for _, s := range []string{
		"CREATE TABLE n (doc INT NOT NULL, id INT NOT NULL, parent INT, grp INT, tag TEXT, value TEXT)",
		"CREATE UNIQUE INDEX n_id ON n (doc, id)",
		"CREATE INDEX n_parent ON n (doc, parent)",
		"CREATE INDEX n_tag ON n (doc, tag)",
		"CREATE INDEX n_grp ON n (doc, grp)",
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// valueRows bulk-loads rows (id, parent, tag, value) into valueDB's table in
// document 1, with grp 0.
func valueRows(t *testing.T, db *sqldb.DB, rows [][4]any) {
	t.Helper()
	var batch []sqltypes.Row
	for _, r := range rows {
		parent := sqldb.Null()
		if p := r[1].(int); p > 0 {
			parent = sqldb.I(int64(p))
		}
		batch = append(batch, sqltypes.Row{sqldb.I(1), sqldb.I(int64(r[0].(int))), parent, sqldb.I(0),
			sqldb.S(r[2].(string)), sqldb.S(r[3].(string))})
	}
	if _, err := db.BulkInsert("n", batch); err != nil {
		t.Fatal(err)
	}
}

const valueSQL = `SELECT s.id FROM n s, n p WHERE s.doc = 1 AND s.tag = 'step'
	AND p.doc = 1 AND p.parent = s.id AND p.tag = 'pred' AND p.value = 'v' ORDER BY s.id`

// driver names the alias of the scan at the bottom of a plan: the table that
// drives its joins.
func driver(t *testing.T, db *sqldb.DB, sql string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(explain(t, db, sql)), "\n")
	last := lines[len(lines)-1]
	i := strings.Index(last, " AS ")
	if i < 0 {
		t.Fatalf("no alias in the driver line %q", last)
	}
	return strings.Fields(last[i+4:])[0]
}

func ids(t *testing.T, db *sqldb.DB, sql string) string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range res.Rows {
		out = append(out, r.String())
	}
	return strings.Join(out, " ")
}

// One statement, two data sets: where the predicate tag is rarer than the
// step tag the predicate drives, where it is commoner the step does — and
// both plans return the rows of a FROM-order join.
func TestJoinOrderFollowsData(t *testing.T) {
	rare := valueDB(t)
	var rows [][4]any
	id := 1
	for s := 0; s < 200; s++ { // 200 steps with four other children each
		step := id
		rows = append(rows, [4]any{step, 0, "step", ""})
		id++
		for c := 0; c < 4; c++ {
			rows = append(rows, [4]any{id, step, "other", ""})
			id++
		}
		if s%70 == 0 { // and three predicate children in all
			rows = append(rows, [4]any{id, step, "pred", "v"})
			id++
		}
	}
	valueRows(t, rare, rows)
	if got := driver(t, rare, valueSQL); got != "p" {
		t.Errorf("rare predicate: driver %s, want p\n%s", got, explain(t, rare, valueSQL))
	}
	if got, want := ids(t, rare, valueSQL), "(1) (352) (703)"; got != want {
		t.Errorf("rare predicate rows %s, want %s", got, want)
	}

	common := valueDB(t)
	rows = nil
	for s := 1; s <= 3; s++ { // three steps with a predicate child each
		rows = append(rows, [4]any{s, 0, "step", ""}, [4]any{10 + s, s, "pred", "v"})
	}
	for i := 0; i < 300; i++ { // 300 predicates elsewhere
		rows = append(rows, [4]any{100 + i, 99, "pred", "v"})
	}
	valueRows(t, common, rows)
	if got := driver(t, common, valueSQL); got != "s" {
		t.Errorf("common predicate: driver %s, want s\n%s", got, explain(t, common, valueSQL))
	}
	if got, want := ids(t, common, valueSQL), "(1) (2) (3)"; got != want {
		t.Errorf("common predicate rows %s, want %s", got, want)
	}
}

// Statements the orderer does not price plan in FROM order: a relation
// parameter, a LEFT JOIN, a single table — and a join whose alternative is
// not cheaper by the tie factor.
func TestJoinOrderKeepsFromOrder(t *testing.T) {
	db := valueDB(t)
	var rows [][4]any
	for s := 1; s <= 200; s++ {
		rows = append(rows, [4]any{s, 0, "step", ""}, [4]any{1000 + s, s, "other", ""})
	}
	rows = append(rows, [4]any{5000, 7, "pred", "v"})
	valueRows(t, db, rows)
	if got := driver(t, db, valueSQL); got != "p" {
		t.Fatalf("inner join: driver %s, want p (the case the rules below must override)", got)
	}
	rel := explain(t, db, `SELECT s.id FROM ? c (id), n s, n p WHERE c.id = s.id AND s.doc = 1
		AND s.tag = 'step' AND p.doc = 1 AND p.parent = s.id AND p.tag = 'pred' AND p.value = 'v'`)
	if !strings.HasSuffix(strings.TrimSpace(rel), "ParamScan ?1 AS c (id)") {
		t.Errorf("relation parameter: the relation does not drive\n%s", rel)
	}
	scalar := `SELECT s.id FROM n s, n p WHERE s.doc = 1 AND s.tag = ?
		AND p.doc = 1 AND p.parent = s.id AND p.tag = 'pred' AND p.value = 'v'`
	if got := driver(t, db, scalar); got != "s" {
		t.Errorf("scalar parameter: driver %s, want s", got)
	}
	left := explain(t, db, `SELECT s.id FROM n s LEFT JOIN n p ON p.doc = 1 AND p.parent = s.id
		AND p.tag = 'pred' WHERE s.doc = 1 AND s.tag = 'step'`)
	if !strings.Contains(left, "LeftJoin s.id=p.parent") || !strings.Contains(left, "IndexScan n using n_tag AS s") {
		t.Errorf("left join: not FROM order\n%s", left)
	}
	if single := explain(t, db, "SELECT id FROM n WHERE doc = 1 AND tag = 'pred'"); !strings.Contains(single, "IndexScan n using n_tag doc=1 tag='pred'") {
		t.Errorf("single table:\n%s", single)
	}

	// A tie: five steps with one predicate child each cost the same from
	// either side, and FROM order stays.
	tie := valueDB(t)
	rows = nil
	for s := 1; s <= 5; s++ {
		rows = append(rows, [4]any{s, 0, "step", ""}, [4]any{10 + s, s, "pred", "v"})
	}
	valueRows(t, tie, rows)
	if got := driver(t, tie, valueSQL); got != "s" {
		t.Errorf("tie: driver %s, want s (FROM order)\n%s", got, explain(t, tie, valueSQL))
	}
}

// A driver whose access range is its whole table — p below has only
// doc = 1, the one document — never replaces a driver with a selective
// prefix, even where its estimate is lower: 50 steps share one group, so
// every step probes the same 100 rows.
func TestWholeTableDriverNeverLeads(t *testing.T) {
	db := valueDB(t)
	var batch []sqltypes.Row
	for i := 1; i <= 150; i++ {
		tag, value := "step", ""
		if i > 50 {
			tag, value = "member", "x"
		}
		if i == 150 {
			value = "v"
		}
		batch = append(batch, sqltypes.Row{sqldb.I(1), sqldb.I(int64(i)), sqldb.Null(), sqldb.I(1),
			sqldb.S(tag), sqldb.S(value)})
	}
	if _, err := db.BulkInsert("n", batch); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT s.id FROM n s, n p WHERE s.doc = 1 AND s.tag = 'step'
		AND p.doc = 1 AND p.grp = s.grp AND p.value = 'v'`
	if got := driver(t, db, sql); got != "s" {
		t.Errorf("driver %s, want s\n%s", got, explain(t, db, sql))
	}
	res, err := db.Query(sql)
	if err != nil || len(res.Rows) != 50 {
		t.Fatalf("%v rows, %v", res, err)
	}
}

// Pricing a join order runs sample plans, but they are not statements:
// planning adds nothing to sqldb.queries or to the storage counters, so a
// cold run of a reordered statement counts exactly what a warm one does.
func TestJoinOrderSamplingIsUncounted(t *testing.T) {
	db := valueDB(t)
	var rows [][4]any
	for s := 1; s <= 200; s++ {
		rows = append(rows, [4]any{s, 0, "step", ""}, [4]any{1000 + s, s, "other", ""})
	}
	rows = append(rows, [4]any{5000, 7, "pred", "v"})
	valueRows(t, db, rows)
	run := func() (storage map[string]int64, queries int64) {
		before := db.Metrics()
		if got := ids(t, db, valueSQL); got != "(7)" {
			t.Fatalf("rows %s", got)
		}
		after := db.Metrics()
		storage = map[string]int64{}
		for name, v := range after.Gauges {
			if strings.HasPrefix(name, "storage.") {
				storage[name] = v - before.Gauges[name]
			}
		}
		return storage, after.Counters["sqldb.queries"] - before.Counters["sqldb.queries"]
	}
	cold, coldQueries := run()
	warm, warmQueries := run()
	if coldQueries != 1 || warmQueries != 1 {
		t.Errorf("sqldb.queries moved %d cold, %d warm; want 1", coldQueries, warmQueries)
	}
	for name, v := range warm {
		if cold[name] != v {
			t.Errorf("%s: cold run %d, warm run %d", name, cold[name], v)
		}
	}
	if warm["storage.index_probes"] == 0 {
		t.Errorf("no storage counter moved: %v", warm)
	}
}
