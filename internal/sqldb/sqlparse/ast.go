package sqlparse

import (
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface{ isStmt() }

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       sqltypes.Type
	NotNull    bool
	PrimaryKey bool
}

// CreateTable is CREATE TABLE name (cols...).
type CreateTable struct {
	Name    string
	Columns []ColumnDef
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (cols...).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

// DropIndex is DROP INDEX name.
type DropIndex struct{ Name string }

// Insert is INSERT INTO table [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string // empty = declaration order
	Rows    [][]expr.Expr
}

// TableRef names a FROM-clause source: a base table with an optional alias,
// or — when Cols is non-empty — a relation parameter `? alias (col, ...)`,
// whose rows the caller binds to parameter Param (one BLOB of their
// sqltypes.EncodeRow encodings, back to back) and whose columns take the
// listed names. Statement text, and so the cached plan, is the same for any
// number of bound rows.
type TableRef struct {
	Table string
	Alias string // defaults to Table; required for a relation parameter
	Param int    // parameter index (0-based) of a relation parameter
	Cols  []string
}

// Name returns the visible name of the reference.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinKind distinguishes inner and left outer joins.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
)

// Join is one JOIN clause attached to a Select.
type Join struct {
	Kind  JoinKind
	Table TableRef
	On    expr.Expr
}

// SelectItem is one output expression; Star marks `*` (Expr nil).
type SelectItem struct {
	Expr  expr.Expr
	Alias string
	Star  bool
	// StarTable qualifies `t.*`; empty for bare `*`.
	StarTable string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr expr.Expr
	Desc bool
}

// Select is a SELECT statement over base tables with optional joins.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []Join
	Where    expr.Expr
	GroupBy  []expr.Expr
	Having   expr.Expr
	OrderBy  []OrderItem
	Limit    expr.Expr // nil = none
	Offset   expr.Expr // nil = none
}

// SetClause is one column assignment in UPDATE.
type SetClause struct {
	Column string
	Value  expr.Expr
}

// Update is UPDATE table SET ... [WHERE ...].
type Update struct {
	Table TableRef
	Sets  []SetClause
	Where expr.Expr
}

// Delete is DELETE FROM table [WHERE ...].
type Delete struct {
	Table TableRef
	Where expr.Expr
}

// Explain wraps a statement for plan display. With Analyze set the wrapped
// statement is executed with per-operator instrumentation (EXPLAIN ANALYZE).
type Explain struct {
	Stmt    Statement
	Analyze bool
}

func (*CreateTable) isStmt() {}
func (*CreateIndex) isStmt() {}
func (*DropTable) isStmt()   {}
func (*DropIndex) isStmt()   {}
func (*Insert) isStmt()      {}
func (*Select) isStmt()      {}
func (*Update) isStmt()      {}
func (*Delete) isStmt()      {}
func (*Explain) isStmt()     {}
