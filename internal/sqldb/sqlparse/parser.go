package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqltypes"
)

// Parse parses one SQL statement.
func Parse(sql string) (Statement, error) {
	p := &parser{lex: lexer{src: sql}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.unexpected("end of statement")
	}
	return stmt, nil
}

type parser struct {
	lex       lexer
	tok       token
	numParams int
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) unexpected(want string) error {
	return fmt.Errorf("SQL syntax error at byte %d: unexpected %s, want %s", p.tok.pos, p.tok, want)
}

// isKw reports whether the current token is the given keyword.
func (p *parser) isKw(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(kw string) (bool, error) {
	if p.isKw(kw) {
		return true, p.advance()
	}
	return false, nil
}

// expectKw requires the keyword.
func (p *parser) expectKw(kw string) error {
	if !p.isKw(kw) {
		return p.unexpected(kw)
	}
	return p.advance()
}

// isOp reports whether the current token is the given operator.
func (p *parser) isOp(op string) bool {
	return p.tok.kind == tokOp && p.tok.text == op
}

func (p *parser) acceptOp(op string) (bool, error) {
	if p.isOp(op) {
		return true, p.advance()
	}
	return false, nil
}

func (p *parser) expectOp(op string) error {
	if !p.isOp(op) {
		return p.unexpected(fmt.Sprintf("%q", op))
	}
	return p.advance()
}

// ident requires an identifier (or non-reserved keyword used as a name).
func (p *parser) ident() (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.unexpected("identifier")
	}
	name := p.tok.text
	return name, p.advance()
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKw("SELECT"):
		return p.parseSelect()
	case p.isKw("INSERT"):
		return p.parseInsert()
	case p.isKw("UPDATE"):
		return p.parseUpdate()
	case p.isKw("DELETE"):
		return p.parseDelete()
	case p.isKw("CREATE"):
		return p.parseCreate()
	case p.isKw("DROP"):
		return p.parseDrop()
	case p.isKw("EXPLAIN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		analyze, err := p.acceptKw("ANALYZE")
		if err != nil {
			return nil, err
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner, Analyze: analyze}, nil
	default:
		return nil, p.unexpected("statement keyword")
	}
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.advance(); err != nil { // CREATE
		return nil, err
	}
	unique, err := p.acceptKw("UNIQUE")
	if err != nil {
		return nil, err
	}
	switch {
	case p.isKw("TABLE"):
		if unique {
			return nil, p.unexpected("INDEX after UNIQUE")
		}
		return p.parseCreateTable()
	case p.isKw("INDEX"):
		return p.parseCreateIndex(unique)
	default:
		return nil, p.unexpected("TABLE or INDEX")
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	if err := p.advance(); err != nil { // TABLE
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		tname, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ, err := sqltypes.ParseType(tname)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", cname, err)
		}
		col := ColumnDef{Name: cname, Type: typ}
		for {
			switch {
			case p.isKw("NOT"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectKw("NULL"); err != nil {
					return nil, err
				}
				col.NotNull = true
			case p.isKw("PRIMARY"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectKw("KEY"); err != nil {
					return nil, err
				}
				col.PrimaryKey = true
				col.NotNull = true
			default:
				goto colDone
			}
		}
	colDone:
		cols = append(cols, col)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Columns: cols}, nil
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	if err := p.advance(); err != nil { // INDEX
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols, Unique: unique}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.advance(); err != nil { // DROP
		return nil, err
	}
	switch {
	case p.isKw("TABLE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.isKw("INDEX"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name}, nil
	default:
		return nil, p.unexpected("TABLE or INDEX")
	}
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.advance(); err != nil { // INSERT
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &Insert{Table: table}
	if ok, err := p.acceptOp("("); err != nil {
		return nil, err
	} else if ok {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, c)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if ok, err := p.acceptKw("AS"); err != nil {
		return TableRef{}, err
	} else if ok {
		alias, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
		return ref, nil
	}
	if p.tok.kind == tokIdent {
		ref.Alias = p.tok.text
		if err := p.advance(); err != nil {
			return TableRef{}, err
		}
	}
	return ref, nil
}

// parseSource parses one SELECT source: a table reference or a relation
// parameter, ? [AS] alias (col, ...).
func (p *parser) parseSource() (TableRef, error) {
	if p.tok.kind != tokParam {
		return p.parseTableRef()
	}
	ref := TableRef{Param: p.numParams}
	p.numParams++
	if err := p.advance(); err != nil { // ?
		return TableRef{}, err
	}
	if _, err := p.acceptKw("AS"); err != nil {
		return TableRef{}, err
	}
	var err error
	if ref.Alias, err = p.ident(); err != nil {
		return TableRef{}, err
	}
	if err := p.expectOp("("); err != nil {
		return TableRef{}, err
	}
	for {
		c, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Cols = append(ref.Cols, c)
		if ok, err := p.acceptOp(","); err != nil {
			return TableRef{}, err
		} else if !ok {
			break
		}
	}
	return ref, p.expectOp(")")
}

func (p *parser) parseSelect() (Statement, error) {
	if err := p.advance(); err != nil { // SELECT
		return nil, err
	}
	stmt := &Select{}
	var err error
	if stmt.Distinct, err = p.acceptKw("DISTINCT"); err != nil {
		return nil, err
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	if stmt.From, err = p.parseSource(); err != nil {
		return nil, err
	}
	// JOINs (explicit) and comma joins (cross with WHERE).
	for {
		switch {
		case p.isKw("JOIN") || p.isKw("INNER") || p.isKw("LEFT"):
			j := Join{Kind: JoinInner}
			if ok, err := p.acceptKw("LEFT"); err != nil {
				return nil, err
			} else if ok {
				j.Kind = JoinLeft
				if _, err := p.acceptKw("OUTER"); err != nil {
					return nil, err
				}
			} else if _, err := p.acceptKw("INNER"); err != nil {
				return nil, err
			}
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			if j.Table, err = p.parseSource(); err != nil {
				return nil, err
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			if j.On, err = p.parseExpr(); err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, j)
		case p.isOp(","):
			if err := p.advance(); err != nil {
				return nil, err
			}
			ref, err := p.parseSource()
			if err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, Join{Kind: JoinInner, Table: ref,
				On: &expr.Literal{Val: sqltypes.NewBool(true)}})
		default:
			goto fromDone
		}
	}
fromDone:
	if ok, err := p.acceptKw("WHERE"); err != nil {
		return nil, err
	} else if ok {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if ok, err := p.acceptKw("GROUP"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	if ok, err := p.acceptKw("HAVING"); err != nil {
		return nil, err
	} else if ok {
		if stmt.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if ok, err := p.acceptKw("ORDER"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if ok, err := p.acceptKw("DESC"); err != nil {
				return nil, err
			} else if ok {
				item.Desc = true
			} else if _, err := p.acceptKw("ASC"); err != nil {
				return nil, err
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	if ok, err := p.acceptKw("LIMIT"); err != nil {
		return nil, err
	} else if ok {
		if stmt.Limit, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if ok, err := p.acceptKw("OFFSET"); err != nil {
			return nil, err
		} else if ok {
			if stmt.Offset, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if ok, err := p.acceptOp("*"); err != nil {
		return SelectItem{}, err
	} else if ok {
		return SelectItem{Star: true}, nil
	}
	// t.* needs two-token lookahead; handle it by peeking after parsing an
	// identifier followed by `.` `*`.
	if p.tok.kind == tokIdent {
		save := *p
		name := p.tok.text
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		if p.isOp(".") {
			if err := p.advance(); err != nil {
				return SelectItem{}, err
			}
			if ok, err := p.acceptOp("*"); err != nil {
				return SelectItem{}, err
			} else if ok {
				return SelectItem{Star: true, StarTable: name}, nil
			}
		}
		*p = save // not t.*: rewind and parse as expression
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if ok, err := p.acceptKw("AS"); err != nil {
		return SelectItem{}, err
	} else if ok {
		if item.Alias, err = p.ident(); err != nil {
			return SelectItem{}, err
		}
	} else if p.tok.kind == tokIdent {
		item.Alias = p.tok.text
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
	}
	return item, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.advance(); err != nil { // UPDATE
		return nil, err
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	stmt := &Update{Table: ref}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Column: col, Value: val})
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if ok, err := p.acceptKw("WHERE"); err != nil {
		return nil, err
	} else if ok {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.advance(); err != nil { // DELETE
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt := &Delete{Table: ref}
	if ok, err := p.acceptKw("WHERE"); err != nil {
		return nil, err
	} else if ok {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// Expression grammar, loosest first:
//
//	expr      := orExpr
//	orExpr    := andExpr (OR andExpr)*
//	andExpr   := notExpr (AND notExpr)*
//	notExpr   := NOT notExpr | predicate
//	predicate := addExpr ((=|<>|<|<=|>|>=|LIKE) addExpr
//	           | [NOT] BETWEEN addExpr AND addExpr
//	           | [NOT] IN (expr, ...)
//	           | IS [NOT] NULL)?
//	addExpr   := mulExpr ((+|-|'||') mulExpr)*
//	mulExpr   := unary ((*|/|%) unary)*
//	unary     := - unary | primary
//	primary   := literal | ? | name | name.name | func(args) | (expr)

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKw("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: expr.OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKw("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: expr.OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.isKw("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: expr.OpNot, X: x}, nil
	}
	return p.parsePredicate()
}

var cmpOps = map[string]expr.Op{
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt, "<=": expr.OpLe,
	">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parsePredicate() (expr.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// Comparison operators.
	if p.tok.kind == tokOp {
		if op, ok := cmpOps[p.tok.text]; ok {
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &expr.Binary{Op: op, L: left, R: right}, nil
		}
	}
	not := false
	if p.isKw("NOT") {
		// Lookahead for NOT BETWEEN / NOT IN / NOT LIKE.
		save := *p
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isKw("BETWEEN") && !p.isKw("IN") && !p.isKw("LIKE") {
			*p = save
			return left, nil
		}
		not = true
	}
	switch {
	case p.isKw("LIKE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		var e expr.Expr = &expr.Binary{Op: expr.OpLike, L: left, R: right}
		if not {
			e = &expr.Unary{Op: expr.OpNot, X: e}
		}
		return e, nil
	case p.isKw("BETWEEN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &expr.Between{X: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.isKw("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &expr.In{X: left, List: list, Not: not}, nil
	case p.isKw("IS"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		isNot, err := p.acceptKw("NOT")
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNull{X: left, Not: isNot}, nil
	}
	return left, nil
}

func (p *parser) parseAdd() (expr.Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-" || p.tok.text == "||") {
		op := expr.OpAdd
		switch p.tok.text {
		case "-":
			op = expr.OpSub
		case "||":
			op = expr.OpConcat
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMul() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/" || p.tok.text == "%") {
		op := expr.OpMul
		switch p.tok.text {
		case "/":
			op = expr.OpDiv
		case "%":
			op = expr.OpMod
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.isOp("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if l, ok := x.(*expr.Literal); ok {
			// Fold -literal for numeric literals.
			switch l.Val.Type() {
			case sqltypes.Int:
				return &expr.Literal{Val: sqltypes.NewInt(-l.Val.Int())}, nil
			case sqltypes.Real:
				return &expr.Literal{Val: sqltypes.NewReal(-l.Val.Real())}, nil
			}
		}
		return &expr.Unary{Op: expr.OpNeg, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	switch p.tok.kind {
	case tokInt:
		v, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer literal %q: %w", p.tok.text, err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &expr.Literal{Val: sqltypes.NewInt(v)}, nil
	case tokFloat:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float literal %q: %w", p.tok.text, err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &expr.Literal{Val: sqltypes.NewReal(v)}, nil
	case tokString:
		v := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &expr.Literal{Val: sqltypes.NewText(v)}, nil
	case tokParam:
		idx := p.numParams
		p.numParams++
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &expr.Param{Index: idx}, nil
	case tokKeyword:
		switch p.tok.text {
		case "NULL":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &expr.Literal{Val: sqltypes.NullValue()}, nil
		case "TRUE":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &expr.Literal{Val: sqltypes.NewBool(true)}, nil
		case "FALSE":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &expr.Literal{Val: sqltypes.NewBool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseAggregate()
		}
		return nil, p.unexpected("expression")
	case tokOp:
		if p.tok.text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.unexpected("expression")
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch {
		case p.isOp("("): // function call
			if err := p.advance(); err != nil {
				return nil, err
			}
			upper := strings.ToUpper(name)
			var args []expr.Expr
			if !p.isOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if ok, err := p.acceptOp(","); err != nil {
						return nil, err
					} else if !ok {
						break
					}
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			if !expr.IsScalarFunc(upper) {
				return nil, fmt.Errorf("unknown function %s", name)
			}
			return &expr.Call{Name: upper, Args: args}, nil
		case p.isOp("."):
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &expr.ColRef{Table: name, Column: col, Idx: -1}, nil
		default:
			return &expr.ColRef{Column: name, Idx: -1}, nil
		}
	default:
		return nil, p.unexpected("expression")
	}
}

func (p *parser) parseAggregate() (expr.Expr, error) {
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	agg := &expr.Aggregate{Name: name, Idx: -1}
	if ok, err := p.acceptOp("*"); err != nil {
		return nil, err
	} else if ok {
		if name != "COUNT" {
			return nil, fmt.Errorf("%s(*) is not valid", name)
		}
		agg.Star = true
	} else {
		if agg.Distinct, err = p.acceptKw("DISTINCT"); err != nil {
			return nil, err
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		agg.Arg = arg
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return agg, nil
}
