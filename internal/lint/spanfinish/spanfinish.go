// Package spanfinish implements the span-finish analyzer: every request-
// tracer span must be finished — via `defer sp.End()` or an `sp.End()` call
// on every path out of the block that owns the span.
//
// An unfinished span is silent: an unended *ActiveSpan never reaches the
// trace buffer, so the stage or request simply vanishes from the Chrome
// export without any error. The analyzer recognizes span values
// structurally (the named type `ActiveSpan` declared in a package named
// `obs`, produced by StartSpan, StartRoot or StartChild —
// including the two-value `ctx, sp := ...` forms) and then runs a
// conservative path walk:
//
//   - a deferred End anywhere in the function discharges the span;
//   - otherwise every return statement — and the fall-through exit of the
//     statement list that owns the span — must be preceded by an End call;
//   - a span that escapes (passed to a call, returned, stored, captured by a
//     closure) is assumed to be finished elsewhere and is not flagged;
//   - a span started and immediately discarded is always flagged.
package spanfinish

import (
	"go/ast"
	"go/types"
	"strings"

	"ordxml/internal/lint/framework"
)

// Analyzer is the span-finish pass.
var Analyzer = &framework.Analyzer{
	Name: "spanfinish",
	Doc:  "every obs span started must be finished on all paths (defer sp.End() or End before every exit)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				checkFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

// isSpanType reports whether t is (a pointer to) the named type ActiveSpan
// declared in a package named obs.
func isSpanType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "ActiveSpan" {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Name() == "obs"
}

// startNames are the function/method names that mint spans.
var startNames = map[string]bool{
	"StartSpan":  true,
	"StartRoot":  true,
	"StartChild": true,
}

// isStartCall reports whether call produces a span via one of the start
// constructors. Two-value constructors (StartRoot, StartSpan return
// (context, span)) yield a tuple; the span is the last result.
func isStartCall(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !startNames[sel.Sel.Name] {
		return false
	}
	t := pass.TypeOf(call)
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return t != nil && isSpanType(t)
}

// checkFunc analyzes one function body. Nested function literals are walked
// separately by run (their spans are their own), and identifiers inside them
// count as escapes for outer spans.
func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	// Collect the span definitions owned by this function: statements of the
	// form `sp := x.StartChild(...)` (or plain assignment), plus dropped spans.
	type spanDef struct {
		obj   types.Object
		start *ast.CallExpr
		owner []ast.Stmt // statement list containing the definition
		index int        // position of the definition within owner
	}
	var defs []spanDef
	var walkList func(list []ast.Stmt)
	var walkStmt func(s ast.Stmt)
	walkList = func(list []ast.Stmt) {
		for i, s := range list {
			if as, ok := s.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && len(as.Lhs) >= 1 {
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok && isStartCall(pass, call) {
					// The span is the last (or only) result: `sp := x.StartChild(...)`
					// or `ctx, sp := tr.StartRoot(ctx, ...)`.
					if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.ObjectOf(id); obj != nil {
							defs = append(defs, spanDef{obj: obj, start: call, owner: list, index: i})
						}
						continue
					}
				}
			}
			if es, ok := s.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok && isStartCall(pass, call) {
					pass.Reportf(call.Pos(), "span started and immediately dropped: assign it and call End, or remove the Start")
					continue
				}
			}
			walkStmt(s)
		}
	}
	walkStmt = func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.BlockStmt:
			walkList(st.List)
		case *ast.IfStmt:
			walkList(st.Body.List)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *ast.ForStmt:
			walkList(st.Body.List)
		case *ast.RangeStmt:
			walkList(st.Body.List)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.LabeledStmt:
			walkStmt(st.Stmt)
		}
	}
	walkList(body.List)

	for _, d := range defs {
		if hasDeferredEnd(pass, body, d.obj) {
			continue
		}
		if escapes(pass, body, d.obj) {
			continue
		}
		w := &walker{pass: pass, obj: d.obj}
		ended, terminated := w.walkList(d.owner[d.index+1:], false)
		if w.violated || (!ended && !terminated) {
			pass.Reportf(d.start.Pos(),
				"span %s is not finished on all paths: defer %s.End() or call End before every exit",
				d.obj.Name(), d.obj.Name())
		}
	}
}

// isEndCall reports whether e is obj.End() or obj.Finish().
func isEndCall(pass *framework.Pass, e ast.Expr, obj types.Object) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "End" && sel.Sel.Name != "Finish") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && pass.ObjectOf(id) == obj
}

// hasDeferredEnd reports whether the function defers obj.End(), directly or
// through a deferred closure that calls it.
func hasDeferredEnd(pass *framework.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if isEndCall(pass, ds.Call, obj) {
			found = true
			return false
		}
		if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if e, ok := m.(ast.Expr); ok && isEndCall(pass, e, obj) {
					found = true
					return false
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// escapes reports whether obj is used anywhere other than as the receiver of
// an End/Finish call (or its own definition): passed as an argument,
// returned, stored, reassigned, captured, etc. Escaped spans are assumed to
// be finished by their new owner.
func escapes(pass *framework.Pass, body *ast.BlockStmt, obj types.Object) bool {
	benign := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "End" && sel.Sel.Name != "Finish") {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			benign[id] = true
		}
		return true
	})
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.ObjectOf(id) != obj || benign[id] {
			return true
		}
		if pass.TypesInfo != nil && pass.TypesInfo.Defs[id] == obj {
			return true // the definition itself
		}
		escaped = true
		return false
	})
	return escaped
}

// walker performs the conservative all-paths-end analysis for one span.
type walker struct {
	pass     *framework.Pass
	obj      types.Object
	violated bool
}

// walkList walks a statement list with the given entry state and returns
// whether the span is definitely ended at the fall-through exit, and whether
// control cannot fall through (all paths returned or panicked).
func (w *walker) walkList(list []ast.Stmt, ended bool) (bool, bool) {
	terminated := false
	for _, s := range list {
		if terminated {
			break // unreachable
		}
		ended, terminated = w.walkStmt(s, ended)
	}
	return ended, terminated
}

func (w *walker) walkStmt(s ast.Stmt, ended bool) (bool, bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if isEndCall(w.pass, st.X, w.obj) {
			return true, false
		}
		if isTerminalCall(st.X) {
			return ended, true
		}
	case *ast.DeferStmt:
		if isEndCall(w.pass, st.Call, w.obj) {
			return true, false
		}
	case *ast.ReturnStmt:
		if !ended {
			w.violated = true
		}
		return ended, true
	case *ast.BranchStmt:
		// break/continue/goto leave this list; the span may still be ended on
		// the resumed path, which a one-pass walk cannot see. Treat as a
		// terminator without judgement (conservatively no violation).
		return ended, true
	case *ast.BlockStmt:
		return w.walkList(st.List, ended)
	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt, ended)
	case *ast.IfStmt:
		bEnded, bTerm := w.walkList(st.Body.List, ended)
		if st.Else == nil {
			return ended, false
		}
		eEnded, eTerm := w.walkStmt(st.Else, ended)
		merged := ended || ((bEnded || bTerm) && (eEnded || eTerm))
		return merged, bTerm && eTerm
	case *ast.ForStmt:
		w.walkList(st.Body.List, ended)
		return ended, false
	case *ast.RangeStmt:
		w.walkList(st.Body.List, ended)
		return ended, false
	case *ast.SwitchStmt:
		w.walkCases(st.Body, ended)
		return ended, false
	case *ast.TypeSwitchStmt:
		w.walkCases(st.Body, ended)
		return ended, false
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkList(cc.Body, ended)
			}
		}
		return ended, false
	}
	return ended, false
}

func (w *walker) walkCases(body *ast.BlockStmt, ended bool) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			w.walkList(cc.Body, ended)
		}
	}
}

// isTerminalCall reports whether e is a call that never returns: panic, or a
// Fatal/Exit-style function.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		return strings.HasPrefix(fn.Sel.Name, "Fatal") ||
			strings.HasPrefix(fn.Sel.Name, "Panic") || fn.Sel.Name == "Exit"
	}
	return false
}
