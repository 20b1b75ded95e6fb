package sqldb

import (
	"fmt"
	"strings"
	"testing"

	"ordxml/internal/sqldb/sqltypes"
)

// mustExec fails the test on error.
func mustExec(t *testing.T, db *DB, sql string, params ...sqltypes.Value) int {
	t.Helper()
	n, err := db.Exec(sql, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, sql string, params ...sqltypes.Value) *Result {
	t.Helper()
	res, err := db.Query(sql, params...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

// rowsAsStrings renders rows for compact comparison.
func rowsAsStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func wantRows(t *testing.T, res *Result, want ...string) {
	t.Helper()
	got := rowsAsStrings(res)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

func setupEmployees(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE dept (id INT PRIMARY KEY, name TEXT NOT NULL)`)
	mustExec(t, db, `CREATE TABLE emp (
		id INT PRIMARY KEY, name TEXT NOT NULL, dept INT, salary INT, title TEXT)`)
	mustExec(t, db, `CREATE INDEX emp_dept ON emp (dept, salary)`)
	mustExec(t, db, `INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')`)
	mustExec(t, db, `INSERT INTO emp VALUES
		(1, 'ann', 1, 100, 'dev'),
		(2, 'bob', 1, 90, 'dev'),
		(3, 'cal', 2, 80, 'rep'),
		(4, 'dee', 2, 120, 'mgr'),
		(5, 'eve', NULL, 70, 'tmp')`)
	return db
}

func TestBasicSelect(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT name, salary FROM emp WHERE salary >= 90 ORDER BY salary DESC")
	wantRows(t, res, "dee|120", "ann|100", "bob|90")
	if res.Columns[0] != "name" || res.Columns[1] != "salary" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT * FROM dept ORDER BY id")
	wantRows(t, res, "1|eng", "2|sales", "3|empty")
}

func TestParams(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT name FROM emp WHERE dept = ? AND salary > ? ORDER BY name",
		I(1), I(95))
	wantRows(t, res, "ann")
}

func TestExpressionsInSelect(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT name || '!' , salary * 2 FROM emp WHERE id = 1")
	wantRows(t, res, "ann!|200")
}

func TestInnerJoin(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, `SELECT e.name, d.name FROM emp e
		JOIN dept d ON e.dept = d.id WHERE e.salary > 85 ORDER BY e.name`)
	wantRows(t, res, "ann|eng", "bob|eng", "dee|sales")
}

func TestCommaJoin(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, `SELECT e.name, d.name FROM emp e, dept d
		WHERE e.dept = d.id AND d.name = 'sales' ORDER BY e.name`)
	wantRows(t, res, "cal|sales", "dee|sales")
}

func TestLeftJoin(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, `SELECT d.name, e.name FROM dept d
		LEFT JOIN emp e ON e.dept = d.id ORDER BY d.name, e.name`)
	wantRows(t, res, "empty|NULL", "eng|ann", "eng|bob", "sales|cal", "sales|dee")
}

func TestLeftJoinWhereAfter(t *testing.T) {
	db := setupEmployees(t)
	// WHERE on the nullable side applies after the join: drops NULL-extended rows.
	res := mustQuery(t, db, `SELECT d.name, e.name FROM dept d
		LEFT JOIN emp e ON e.dept = d.id WHERE e.salary > 100 ORDER BY d.name`)
	wantRows(t, res, "sales|dee")
}

func TestGroupBy(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, `SELECT dept, COUNT(*), SUM(salary), MIN(salary), MAX(salary)
		FROM emp WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept`)
	wantRows(t, res, "1|2|190|90|100", "2|2|200|80|120")
}

func TestGroupByHaving(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, `SELECT title, COUNT(*) FROM emp
		GROUP BY title HAVING COUNT(*) > 1 ORDER BY title`)
	wantRows(t, res, "dev|2")
}

func TestGlobalAggregate(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT COUNT(*), AVG(salary) FROM emp")
	wantRows(t, res, "5|92")
	// Global aggregate over an empty selection still yields one row.
	res = mustQuery(t, db, "SELECT COUNT(*), SUM(salary) FROM emp WHERE salary > 1000")
	wantRows(t, res, "0|NULL")
}

func TestOrderByAggregate(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, `SELECT title, COUNT(*) c FROM emp GROUP BY title
		ORDER BY c DESC, title LIMIT 2`)
	wantRows(t, res, "dev|2", "mgr|1")
}

func TestDistinct(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT DISTINCT title FROM emp ORDER BY title")
	wantRows(t, res, "dev", "mgr", "rep", "tmp")
}

func TestCountDistinct(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT COUNT(DISTINCT title) FROM emp")
	wantRows(t, res, "4")
}

func TestLimitOffset(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT name FROM emp ORDER BY salary LIMIT 2 OFFSET 1")
	wantRows(t, res, "cal", "bob")
	res = mustQuery(t, db, "SELECT name FROM emp ORDER BY salary LIMIT ?", I(1))
	wantRows(t, res, "eve")
}

func TestLikeAndFunctions(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT UPPER(name) FROM emp WHERE name LIKE 'a%'")
	wantRows(t, res, "ANN")
	res = mustQuery(t, db, "SELECT name FROM emp WHERE LENGTH(title) = 3 AND name NOT LIKE '%e%' ORDER BY name")
	wantRows(t, res, "ann", "bob", "cal")
}

func TestInBetween(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT name FROM emp WHERE salary BETWEEN 80 AND 100 ORDER BY name")
	wantRows(t, res, "ann", "bob", "cal")
	res = mustQuery(t, db, "SELECT name FROM emp WHERE title IN ('mgr', 'rep') ORDER BY name")
	wantRows(t, res, "cal", "dee")
}

func TestNullHandling(t *testing.T) {
	db := setupEmployees(t)
	// dept = NULL never matches; IS NULL does.
	res := mustQuery(t, db, "SELECT name FROM emp WHERE dept = NULL")
	wantRows(t, res)
	res = mustQuery(t, db, "SELECT name FROM emp WHERE dept IS NULL")
	wantRows(t, res, "eve")
}

func TestUpdate(t *testing.T) {
	db := setupEmployees(t)
	n := mustExec(t, db, "UPDATE emp SET salary = salary + 10 WHERE dept = 1")
	if n != 2 {
		t.Fatalf("updated %d rows", n)
	}
	res := mustQuery(t, db, "SELECT salary FROM emp WHERE id IN (1, 2) ORDER BY id")
	wantRows(t, res, "110", "100")
	// Update via unique index must keep the index consistent.
	mustExec(t, db, "UPDATE emp SET id = 10 WHERE id = 1")
	res = mustQuery(t, db, "SELECT name FROM emp WHERE id = 10")
	wantRows(t, res, "ann")
	res = mustQuery(t, db, "SELECT name FROM emp WHERE id = 1")
	wantRows(t, res)
}

func TestDelete(t *testing.T) {
	db := setupEmployees(t)
	n := mustExec(t, db, "DELETE FROM emp WHERE salary < 85")
	if n != 2 {
		t.Fatalf("deleted %d rows", n)
	}
	res := mustQuery(t, db, "SELECT COUNT(*) FROM emp")
	wantRows(t, res, "3")
	n = mustExec(t, db, "DELETE FROM emp")
	if n != 3 {
		t.Fatalf("deleted %d rows", n)
	}
	res = mustQuery(t, db, "SELECT COUNT(*) FROM emp")
	wantRows(t, res, "0")
}

func TestUniqueViolation(t *testing.T) {
	db := setupEmployees(t)
	if _, err := db.Exec("INSERT INTO emp VALUES (1, 'dup', 1, 1, 'x')"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	if _, err := db.Exec("UPDATE emp SET id = 2 WHERE id = 1"); err == nil {
		t.Fatal("duplicate key via update accepted")
	}
}

func TestIndexScanChosen(t *testing.T) {
	db := setupEmployees(t)
	p, err := db.Explain("SELECT name FROM emp WHERE dept = 1 AND salary > 50")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "IndexScan emp using emp_dept") {
		t.Errorf("plan does not use composite index:\n%s", p)
	}
	// Equality on pk.
	p, _ = db.Explain("SELECT name FROM emp WHERE id = 3")
	if !strings.Contains(p, "IndexScan emp using emp_pkey") {
		t.Errorf("plan does not use pkey:\n%s", p)
	}
	// No usable index -> seq scan.
	p, _ = db.Explain("SELECT name FROM emp WHERE salary = 100")
	if !strings.Contains(p, "SeqScan") {
		t.Errorf("expected seq scan:\n%s", p)
	}
}

func TestIndexProvidesOrder(t *testing.T) {
	db := setupEmployees(t)
	p, err := db.Explain("SELECT name FROM emp WHERE dept = 1 ORDER BY salary")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p, "Sort") {
		t.Errorf("sort not elided by index order:\n%s", p)
	}
	res := mustQuery(t, db, "SELECT name FROM emp WHERE dept = 1 ORDER BY salary")
	wantRows(t, res, "bob", "ann")
}

func TestLikePrefixUsesIndex(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE paths (p TEXT PRIMARY KEY, v INT)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, "INSERT INTO paths VALUES (?, ?)", S(fmt.Sprintf("1.%d", i)), I(int64(i)))
	}
	mustExec(t, db, "INSERT INTO paths VALUES ('2.1', 99)")
	p, err := db.Explain("SELECT v FROM paths WHERE p LIKE '1.4%'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "IndexScan") {
		t.Errorf("LIKE prefix did not use index:\n%s", p)
	}
	res := mustQuery(t, db, "SELECT v FROM paths WHERE p LIKE '1.4%' ORDER BY v")
	wantRows(t, res, "4", "40", "41", "42", "43", "44", "45", "46", "47", "48", "49")
}

func TestJoinAlgorithmChoice(t *testing.T) {
	db := setupEmployees(t)
	// Inner table with a matching index: correlated index nested loops.
	p, err := db.Explain("SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "IndexNLJoin dept using dept_pkey") {
		t.Errorf("equi join with inner index did not use IndexNLJoin:\n%s", p)
	}
	// A correlated range also drives IndexNLJoin.
	p, _ = db.Explain("SELECT e.name FROM emp e JOIN dept d ON e.dept < d.id")
	if !strings.Contains(p, "IndexNLJoin dept using dept_pkey") {
		t.Errorf("range join with inner index did not use IndexNLJoin:\n%s", p)
	}
	// No usable inner index: hash join for equality.
	mustExec(t, db, "CREATE TABLE noix (k INT, v TEXT)")
	mustExec(t, db, "INSERT INTO noix VALUES (1, 'x')")
	p, _ = db.Explain("SELECT e.name FROM emp e JOIN noix n ON n.k = e.dept")
	if !strings.Contains(p, "HashJoin") {
		t.Errorf("equi join without inner index did not use hash join:\n%s", p)
	}
	// Neither index nor equality: nested loops.
	p, _ = db.Explain("SELECT e.name FROM emp e JOIN noix n ON n.k < e.dept")
	if !strings.Contains(p, "NestedLoopJoin") {
		t.Errorf("non-equi join without index did not use NL join:\n%s", p)
	}
}

func TestIndexNLJoinResults(t *testing.T) {
	db := setupEmployees(t)
	// Same queries as TestInnerJoin but verifying correctness through the
	// IndexNLJoin path.
	res := mustQuery(t, db, `SELECT e.name, d.name FROM emp e
		JOIN dept d ON e.dept = d.id WHERE e.salary > 85 ORDER BY e.name`)
	wantRows(t, res, "ann|eng", "bob|eng", "dee|sales")
	// NULL join keys never match.
	res = mustQuery(t, db, `SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id
		WHERE e.name = 'eve'`)
	wantRows(t, res)
	// Correlated range join.
	res = mustQuery(t, db, `SELECT e.name, d.id FROM emp e JOIN dept d ON d.id > e.dept
		WHERE e.name = 'ann' ORDER BY d.id`)
	wantRows(t, res, "ann|2", "ann|3")
}

// A NULL bound matches nothing in every plan shape. PREFIX_SUCC of an
// all-0xFF blob is NULL, so `k < PREFIX_SUCC(?)` holds for no row: an
// IndexScan, an IndexNLJoin whose upper bound comes from the left row, and a
// NestedLoopJoin over an unindexed copy must all return no rows.
func TestNullBoundMatchesNothing(t *testing.T) {
	db := Open()
	for _, tbl := range []string{"t", "u"} {
		mustExec(t, db, "CREATE TABLE "+tbl+" (id INT PRIMARY KEY, k BLOB)")
		for i, k := range []string{"\xfe", "\xff", "\xff\x01", "\xff\xff"} {
			mustExec(t, db, "INSERT INTO "+tbl+" VALUES (?, ?)", I(int64(i)), sqltypes.NewBlob([]byte(k)))
		}
	}
	mustExec(t, db, "CREATE INDEX t_k ON t (k)")
	ff := sqltypes.NewBlob([]byte{0xFF})
	for _, c := range []struct{ sql, op string }{
		{"SELECT k FROM t WHERE k > ? AND k < PREFIX_SUCC(?)", "IndexScan t using t_k"},
		{"SELECT b.k FROM t a, t b WHERE a.k = ? AND b.k > a.k AND b.k < PREFIX_SUCC(a.k)", "IndexNLJoin t using t_k"},
		{"SELECT b.k FROM u a, u b WHERE a.k = ? AND b.k > a.k AND b.k < PREFIX_SUCC(a.k)", "NestedLoopJoin"},
	} {
		p, err := db.Explain(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(p, c.op) {
			t.Fatalf("%s: plan lacks %s:\n%s", c.sql, c.op, p)
		}
		params := []sqltypes.Value{ff, ff}[:strings.Count(c.sql, "?")]
		wantRows(t, mustQuery(t, db, c.sql, params...))
	}
}

// A range comparison never holds for NULL. NULL sorts first in an index, so
// a range with only an upper bound must start past the NULL entries: in an
// IndexScan, in an IndexNLJoin probe, and as on an unindexed copy.
func TestUpperBoundSkipsNulls(t *testing.T) {
	db := Open()
	for _, tbl := range []string{"t", "u"} {
		mustExec(t, db, "CREATE TABLE "+tbl+" (id INT PRIMARY KEY, p INT, k INT)")
		mustExec(t, db, "INSERT INTO "+tbl+" VALUES (1, 1, NULL), (2, 1, 3), (3, 1, 9)")
	}
	mustExec(t, db, "CREATE INDEX t_pk ON t (p, k)")
	for _, c := range []struct{ sql, op string }{
		{"SELECT id FROM t WHERE p = 1 AND k < 5", "IndexScan t using t_pk"},
		{"SELECT b.id FROM t a, t b WHERE a.id = 3 AND b.p = a.p AND b.k < a.k", "IndexNLJoin t using t_pk"},
		{"SELECT b.id FROM u a, u b WHERE a.id = 3 AND b.p = a.p AND b.k < a.k", "HashJoin"},
	} {
		p, err := db.Explain(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(p, c.op) {
			t.Fatalf("%s: plan lacks %s:\n%s", c.sql, c.op, p)
		}
		wantRows(t, mustQuery(t, db, c.sql), "2")
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE a (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, db, "CREATE TABLE b (id INT PRIMARY KEY, aid INT)")
	mustExec(t, db, "CREATE TABLE c (id INT PRIMARY KEY, bid INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 'x'), (2, 'y')")
	mustExec(t, db, "INSERT INTO b VALUES (10, 1), (11, 2)")
	mustExec(t, db, "INSERT INTO c VALUES (100, 10), (101, 11), (102, 10)")
	res := mustQuery(t, db, `SELECT a.v, c.id FROM a
		JOIN b ON b.aid = a.id JOIN c ON c.bid = b.id ORDER BY c.id`)
	wantRows(t, res, "x|100", "y|101", "x|102")
}

// TestRepeatedStatement: statement text and parameters are the whole
// interface. Re-running a text with new parameters binds them afresh, and
// every run after the first is a plan-cache hit — no parse, no plan.
func TestRepeatedStatement(t *testing.T) {
	db := setupEmployees(t)
	const q = "SELECT name FROM emp WHERE id = ?"
	wantRows(t, mustQuery(t, db, q, I(1)), "ann")
	before := db.Metrics()
	wantRows(t, mustQuery(t, db, q, I(3)), "cal")
	for _, id := range []int64{7, 8} {
		if _, err := db.Exec("INSERT INTO dept VALUES (?, ?)", I(id), S("ops")); err != nil {
			t.Fatal(err)
		}
	}
	after := db.Metrics()
	if got := after.Counters["sqldb.plancache.hits"] - before.Counters["sqldb.plancache.hits"]; got != 2 {
		t.Errorf("plan-cache hits = %d, want 2 (the second SELECT and the second INSERT)", got)
	}
	if got := after.Counters["sqldb.plancache.misses"] - before.Counters["sqldb.plancache.misses"]; got != 1 {
		t.Errorf("plan-cache misses = %d, want 1 (the first INSERT)", got)
	}
	wantRows(t, mustQuery(t, db, "SELECT name FROM dept WHERE id = 8"), "ops")
}

func TestErrors(t *testing.T) {
	db := setupEmployees(t)
	bad := []string{
		"SELECT nope FROM emp",
		"SELECT name FROM nope",
		"SELECT e.name FROM emp e JOIN emp e ON 1 = 1", // duplicate alias
		"SELECT name, COUNT(*) FROM emp",               // bare column with aggregate
		"INSERT INTO emp (nope) VALUES (1)",
		"INSERT INTO emp (id, id) VALUES (1, 2)",
		"INSERT INTO emp VALUES (1)",
		"UPDATE emp SET nope = 1",
		"UPDATE emp SET id = 1, id = 2",
		"DELETE FROM nope",
		"SELECT name FROM emp LIMIT name",
		"SELECT name FROM emp ORDER BY salary LIMIT salary",
	}
	for _, sql := range bad {
		_, qerr := db.Query(sql)
		_, eerr := db.Exec(sql)
		if qerr == nil && eerr == nil {
			t.Errorf("%q did not error", sql)
		}
	}
	if _, err := db.Exec("SELECT name FROM emp"); err == nil {
		t.Error("Exec accepted SELECT")
	}
	if _, err := db.Query("DELETE FROM emp"); err == nil {
		t.Error("Query accepted DELETE")
	}
}

func TestAliasInOrderBy(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT name, salary * 2 AS double FROM emp ORDER BY double DESC LIMIT 1")
	wantRows(t, res, "dee|240")
}

func TestOrderByExpressionNotInSelect(t *testing.T) {
	db := setupEmployees(t)
	res := mustQuery(t, db, "SELECT name FROM emp ORDER BY salary % 7, name LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", rowsAsStrings(res))
	}
	// Hidden sort column must not leak.
	if len(res.Columns) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("hidden sort key leaked: %v / %v", res.Columns, res.Rows[0])
	}
}

func TestCounters(t *testing.T) {
	db := setupEmployees(t)
	before := db.Counters()
	mustQuery(t, db, "SELECT name FROM emp WHERE dept = 1")
	d := db.Counters().Sub(before)
	if d.IndexProbes == 0 {
		t.Errorf("index query did no probes: %+v", d)
	}
	if d.RowsScanned != 0 {
		t.Errorf("index query did a seq scan: %+v", d)
	}
	before = db.Counters()
	mustQuery(t, db, "SELECT name FROM emp WHERE salary = 100")
	d = db.Counters().Sub(before)
	if d.RowsScanned != 5 {
		t.Errorf("seq scan scanned %d rows", d.RowsScanned)
	}
}

func TestExplainDML(t *testing.T) {
	db := setupEmployees(t)
	p, err := db.Explain("EXPLAIN UPDATE emp SET salary = 1 WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "Update emp") || !strings.Contains(p, "IndexScan") {
		t.Errorf("explain update:\n%s", p)
	}
	p, _ = db.Explain("DELETE FROM emp WHERE id = 2")
	if !strings.Contains(p, "Delete emp") {
		t.Errorf("explain delete:\n%s", p)
	}
	p, _ = db.Explain("INSERT INTO dept VALUES (9, 'x')")
	if !strings.Contains(p, "Insert dept") {
		t.Errorf("explain insert:\n%s", p)
	}
}

func TestDDLRoundTrip(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "CREATE INDEX i ON t (a)")
	mustExec(t, db, "DROP INDEX i")
	mustExec(t, db, "DROP TABLE t")
	if _, err := db.Exec("DROP TABLE t"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestValueHelpers(t *testing.T) {
	if I(1).Int() != 1 || S("x").Text() != "x" || F(1.5).Real() != 1.5 ||
		string(B([]byte("b")).Blob()) != "b" || !Null().IsNull() {
		t.Error("value helpers broken")
	}
}
