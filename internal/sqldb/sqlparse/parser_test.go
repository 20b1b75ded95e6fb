package sqlparse

import (
	"reflect"
	"strings"
	"testing"

	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqltypes"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestCreateTable(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE users (
		id INT PRIMARY KEY,
		name TEXT NOT NULL,
		age INT,
		bio BLOB
	)`).(*CreateTable)
	if stmt.Name != "users" || len(stmt.Columns) != 4 {
		t.Fatalf("stmt = %+v", stmt)
	}
	if !stmt.Columns[0].PrimaryKey || !stmt.Columns[0].NotNull {
		t.Error("PRIMARY KEY flags not set")
	}
	if !stmt.Columns[1].NotNull || stmt.Columns[1].Type != sqltypes.Text {
		t.Error("NOT NULL TEXT column wrong")
	}
	if stmt.Columns[3].Type != sqltypes.Blob {
		t.Error("BLOB type wrong")
	}
}

func TestCreateIndex(t *testing.T) {
	stmt := mustParse(t, "CREATE UNIQUE INDEX ux ON t (a, b)").(*CreateIndex)
	if !stmt.Unique || stmt.Name != "ux" || stmt.Table != "t" || len(stmt.Columns) != 2 {
		t.Fatalf("stmt = %+v", stmt)
	}
	stmt2 := mustParse(t, "CREATE INDEX ix ON t (a)").(*CreateIndex)
	if stmt2.Unique {
		t.Error("non-unique index parsed as unique")
	}
}

func TestDrop(t *testing.T) {
	if s := mustParse(t, "DROP TABLE t").(*DropTable); s.Name != "t" {
		t.Errorf("DropTable = %+v", s)
	}
	if s := mustParse(t, "DROP INDEX i").(*DropIndex); s.Name != "i" {
		t.Errorf("DropIndex = %+v", s)
	}
}

func TestInsert(t *testing.T) {
	stmt := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (?, NULL)").(*Insert)
	if stmt.Table != "t" || len(stmt.Columns) != 2 || len(stmt.Rows) != 2 {
		t.Fatalf("stmt = %+v", stmt)
	}
	if p, ok := stmt.Rows[1][0].(*expr.Param); !ok || p.Index != 0 {
		t.Errorf("param = %+v", stmt.Rows[1][0])
	}
	// Without column list.
	stmt2 := mustParse(t, "INSERT INTO t VALUES (1)").(*Insert)
	if stmt2.Columns != nil {
		t.Error("column list not empty")
	}
}

func TestParamNumbering(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE a = ? AND b = ? AND c = ?").(*Select)
	// Walk the WHERE tree collecting params.
	var idxs []int
	expr.Walk(stmt.Where, func(e expr.Expr) bool {
		if p, ok := e.(*expr.Param); ok {
			idxs = append(idxs, p.Index)
		}
		return true
	})
	if len(idxs) != 3 || idxs[0] != 0 || idxs[1] != 1 || idxs[2] != 2 {
		t.Errorf("param indexes = %v", idxs)
	}
}

func TestSelectFull(t *testing.T) {
	stmt := mustParse(t, `SELECT DISTINCT t.a, u.b AS bee, COUNT(*) cnt
		FROM t1 t
		JOIN t2 AS u ON t.id = u.id
		LEFT JOIN t3 v ON v.k = t.id
		WHERE t.a > 5 AND u.b LIKE 'x%'
		GROUP BY t.a, u.b
		HAVING COUNT(*) > 1
		ORDER BY t.a DESC, bee
		LIMIT 10 OFFSET 5`).(*Select)
	if !stmt.Distinct || len(stmt.Items) != 3 {
		t.Fatalf("items = %+v", stmt.Items)
	}
	if stmt.Items[1].Alias != "bee" || stmt.Items[2].Alias != "cnt" {
		t.Errorf("aliases = %q, %q", stmt.Items[1].Alias, stmt.Items[2].Alias)
	}
	if stmt.From.Table != "t1" || stmt.From.Alias != "t" {
		t.Errorf("from = %+v", stmt.From)
	}
	if len(stmt.Joins) != 2 || stmt.Joins[0].Kind != JoinInner || stmt.Joins[1].Kind != JoinLeft {
		t.Fatalf("joins = %+v", stmt.Joins)
	}
	if stmt.Where == nil || len(stmt.GroupBy) != 2 || stmt.Having == nil {
		t.Error("where/group/having missing")
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Errorf("order = %+v", stmt.OrderBy)
	}
	if stmt.Limit == nil || stmt.Offset == nil {
		t.Error("limit/offset missing")
	}
}

func TestSelectStar(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t").(*Select)
	if !stmt.Items[0].Star || stmt.Items[0].StarTable != "" {
		t.Errorf("items = %+v", stmt.Items)
	}
	stmt2 := mustParse(t, "SELECT u.*, a FROM t u").(*Select)
	if !stmt2.Items[0].Star || stmt2.Items[0].StarTable != "u" {
		t.Errorf("items = %+v", stmt2.Items)
	}
	if stmt2.Items[1].Star {
		t.Error("plain column parsed as star")
	}
}

func TestCommaJoin(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t, u WHERE t.id = u.id").(*Select)
	if len(stmt.Joins) != 1 {
		t.Fatalf("joins = %+v", stmt.Joins)
	}
	if lit, ok := stmt.Joins[0].On.(*expr.Literal); !ok || !lit.Val.Bool() {
		t.Error("comma join ON is not TRUE literal")
	}
}

func TestRelationParameter(t *testing.T) {
	stmt := mustParse(t, "SELECT c.id, n.v FROM ? c (id, ord), nodes n JOIN ? AS d (k) ON d.k = n.id WHERE n.doc = ? AND n.id = c.id").(*Select)
	if want := (TableRef{Alias: "c", Param: 0, Cols: []string{"id", "ord"}}); !reflect.DeepEqual(stmt.From, want) {
		t.Errorf("FROM = %+v, want %+v", stmt.From, want)
	}
	if want := (TableRef{Alias: "d", Param: 1, Cols: []string{"k"}}); !reflect.DeepEqual(stmt.Joins[1].Table, want) {
		t.Errorf("JOIN = %+v, want %+v", stmt.Joins[1].Table, want)
	}
	// Scalar and relation parameters share one numbering, in text order.
	var idx []int
	expr.Walk(stmt.Where, func(e expr.Expr) bool {
		if p, ok := e.(*expr.Param); ok {
			idx = append(idx, p.Index)
		}
		return true
	})
	if !reflect.DeepEqual(idx, []int{2}) {
		t.Errorf("scalar parameter indexes = %v, want [2]", idx)
	}
	for _, bad := range []string{
		"SELECT 1 FROM ?",          // no alias
		"SELECT 1 FROM ? c",        // no column list
		"SELECT 1 FROM ? c ()",     // empty column list
		"SELECT 1 FROM ? c (a,)",   // dangling comma
		"UPDATE ? c (a) SET a = 1", // a SELECT source only
		"DELETE FROM ? c (a)",      // a SELECT source only
		"INSERT INTO ? c (a) VALUES (1)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestUpdateDelete(t *testing.T) {
	u := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").(*Update)
	if u.Table.Table != "t" || len(u.Sets) != 2 || u.Where == nil {
		t.Fatalf("update = %+v", u)
	}
	d := mustParse(t, "DELETE FROM t WHERE a < 5").(*Delete)
	if d.Table.Table != "t" || d.Where == nil {
		t.Fatalf("delete = %+v", d)
	}
	d2 := mustParse(t, "DELETE FROM t").(*Delete)
	if d2.Where != nil {
		t.Error("bare delete has WHERE")
	}
}

func TestExplain(t *testing.T) {
	e := mustParse(t, "EXPLAIN SELECT a FROM t").(*Explain)
	if _, ok := e.Stmt.(*Select); !ok {
		t.Fatalf("explain wraps %T", e.Stmt)
	}
}

func TestExprPrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE a + 1 * 2 = 3 OR NOT b = 4 AND c < 5").(*Select)
	// Expect: (((a + (1*2)) = 3) OR ((NOT (b=4)) AND (c<5)))
	want := "(((a + (1 * 2)) = 3) OR (NOT (b = 4) AND (c < 5)))"
	if got := stmt.Where.String(); got != want {
		t.Errorf("precedence tree = %s, want %s", got, want)
	}
}

func TestExprForms(t *testing.T) {
	cases := map[string]string{
		"a BETWEEN 1 AND 2":     "(a BETWEEN 1 AND 2)",
		"a NOT BETWEEN 1 AND 2": "(a NOT BETWEEN 1 AND 2)",
		"a IN (1, 2, 3)":        "(a IN (1, 2, 3))",
		"a NOT IN (1)":          "(a NOT IN (1))",
		"a IS NULL":             "(a IS NULL)",
		"a IS NOT NULL":         "(a IS NOT NULL)",
		"a LIKE 'x%'":           "(a LIKE 'x%')",
		"a NOT LIKE 'x%'":       "NOT (a LIKE 'x%')",
		"name || '!'":           "(name || '!')",
		"-a":                    "-a",
		"-5":                    "-5",
		"-2.5":                  "-2.5",
		"LENGTH(a)":             "LENGTH(a)",
		"SUBSTR(a, 1, 2)":       "SUBSTR(a, 1, 2)",
		"COUNT(DISTINCT a)":     "COUNT(DISTINCT a)",
		"MIN(a + 1)":            "MIN((a + 1))",
		"TRUE":                  "TRUE",
		"(a = 1)":               "(a = 1)",
		"'it''s'":               "'it''s'",
		"a % 2 = 0":             "((a % 2) = 0)",
		"t.a <> u.b":            "(t.a <> u.b)",
		"a != 1":                "(a <> 1)",
	}
	for in, want := range cases {
		stmt := mustParse(t, "SELECT "+in+" x FROM t").(*Select)
		if got := stmt.Items[0].Expr.String(); got != want {
			t.Errorf("%q parsed to %s, want %s", in, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a t", // missing FROM
		"INSERT t VALUES (1)",
		"INSERT INTO t VALUES 1",
		"INSERT INTO t VALUES (1",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a FROB)",
		"CREATE UNIQUE TABLE t (a INT)",
		"CREATE INDEX i ON t a",
		"DROP VIEW v",
		"UPDATE t SET",
		"UPDATE t SET a",
		"DELETE t",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t ORDER a",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT a FROM t WHERE a @ 1",
		"SELECT SUM(*) FROM t",
		"SELECT NOPE(a) FROM t",
		"SELECT a FROM t JOIN u",
		"SELECT a FROM t extra garbage here",
		"SELECT a FROM t WHERE a IS 1",
		"SELECT a FROM t WHERE a IN ()",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestKeywordCaseInsensitive(t *testing.T) {
	stmt := mustParse(t, "select a from t where a = 1 order by a desc limit 2").(*Select)
	if len(stmt.OrderBy) != 1 || !stmt.OrderBy[0].Desc || stmt.Limit == nil {
		t.Fatalf("lower-case SQL misparsed: %+v", stmt)
	}
}

func TestComments(t *testing.T) {
	stmt := mustParse(t, "SELECT a -- trailing comment\nFROM t -- another\n").(*Select)
	if stmt.From.Table != "t" {
		t.Fatalf("comment handling broke FROM: %+v", stmt)
	}
}

func TestQuotedIdent(t *testing.T) {
	stmt := mustParse(t, `SELECT "select" FROM "order"`).(*Select)
	if stmt.From.Table != "order" {
		t.Errorf("quoted table = %q", stmt.From.Table)
	}
	if c, ok := stmt.Items[0].Expr.(*expr.ColRef); !ok || c.Column != "select" {
		t.Errorf("quoted column = %+v", stmt.Items[0].Expr)
	}
}

func TestNumericLiterals(t *testing.T) {
	stmt := mustParse(t, "SELECT 1, 2.5, 1e3, 2E-2 FROM t").(*Select)
	wantTypes := []sqltypes.Type{sqltypes.Int, sqltypes.Real, sqltypes.Real, sqltypes.Real}
	for i, w := range wantTypes {
		l, ok := stmt.Items[i].Expr.(*expr.Literal)
		if !ok || l.Val.Type() != w {
			t.Errorf("literal %d = %v, want %v", i, stmt.Items[i].Expr, w)
		}
	}
	if stmt.Items[2].Expr.(*expr.Literal).Val.Real() != 1000 {
		t.Error("1e3 misparsed")
	}
}

func TestErrorMessagesMentionPosition(t *testing.T) {
	_, err := Parse("SELECT a FROM t WHERE a ~ 1")
	if err == nil || !strings.Contains(err.Error(), "byte") {
		t.Errorf("error lacks position: %v", err)
	}
}
