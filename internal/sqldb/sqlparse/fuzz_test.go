package sqlparse

import "testing"

// FuzzParse checks the SQL parser never panics on arbitrary input.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT a FROM t",
		"SELECT a, b FROM t WHERE a = 1 AND b LIKE 'x%' ORDER BY a DESC LIMIT 3",
		"INSERT INTO t (a) VALUES (1), (?)",
		"UPDATE t SET a = a + 1 WHERE b IN (1, 2)",
		"DELETE FROM t WHERE a BETWEEN 1 AND 2",
		"CREATE TABLE t (a INT PRIMARY KEY, b TEXT NOT NULL)",
		"CREATE UNIQUE INDEX i ON t (a, b)",
		"SELECT COUNT(DISTINCT a) FROM t GROUP BY b HAVING COUNT(*) > 1",
		"SELECT * FROM t JOIN u ON t.a = u.b LEFT JOIN v ON 1 = 1",
		"EXPLAIN SELECT 'it''s' || x FROM \"order\"",
		"SELECT -1.5e3 FROM t -- comment",
		"SELECT c.id, n.v FROM ? c (id, ord), t n WHERE n.id = c.id AND n.v > c.ord",
		"SELEC",
		"SELECT a FROM t WHERE a = 'unterminated",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = Parse(input) // must not panic
	})
}
