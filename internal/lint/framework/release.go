package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Release is the all-paths release check, configured per resource: every
// value of type Pkg.Type that a producing call hands to a function must be
// released, via a deferred Method call or a Method call on every path out
// of the statement list that owns it. pinpair (buffer-pool frames, Unpin)
// and spanfinish (tracer spans, End) are two configurations of it.
//
// The walk is conservative:
//
//   - a deferred release anywhere in the function, direct or inside a
//     deferred closure, discharges the obligation;
//   - otherwise every return statement — and the fall-through exit of the
//     statement list that owns the value — must be preceded by a release;
//     a call to panic or a Fatal/Panic/Exit-style function ends a path;
//   - after `v, err := producer()`, the `err != nil` branch holds nothing
//     to release: the producer failed;
//   - a value that escapes (passed to a call, returned, stored, reassigned,
//     captured) is assumed to be released by its new owner;
//   - a producing call whose value is dropped is always reported.
//
// Function literals are checked as bodies of their own; a use inside one
// is an escape for the enclosing function's values.
type Release struct {
	// Pkg and Type name the tracked type structurally: a named type Type
	// (or a pointer to it) declared in a package named Pkg.
	Pkg, Type string
	// Producers are the method or function names whose call yields a value
	// of the tracked type — alone or as one result of several — that the
	// caller must release.
	Producers []string
	// Method is the release method: v.Method() discharges v.
	Method string
	// Acquire, if set, is a method that takes a new obligation on its
	// receiver: v.Acquire() must be paired with v.Method() like a producer.
	Acquire string
	// AnyMethodIsUse counts every method call on the value as ordinary use.
	// Otherwise only Method calls do, and any other use is an escape.
	AnyMethodIsUse bool
	// DiscardUnbound reports a produced value assigned to anything but a
	// named variable (the blank identifier, a field) as discarded.
	// Otherwise such an assignment is a deliberate drop or a hand-off.
	DiscardUnbound bool
	// Discarded is the message for a producing call whose value is dropped.
	Discarded string
	// Leaked is the format for a value not released on all paths; each %s
	// verb takes the variable's name.
	Leaked string
}

// Run is the Analyzer.Run of a Release configuration.
func (r *Release) Run(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					r.checkBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				r.checkBody(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// obligation is one value a function body must release.
type obligation struct {
	obj    types.Object
	errObj types.Object  // the error assigned alongside, or nil
	call   *ast.CallExpr // the producing or acquiring call
	rest   []ast.Stmt    // the statements after it in its owning list
}

// checkBody collects the obligations body creates and reports every one
// that some path leaves unreleased.
func (r *Release) checkBody(pass *Pass, body *ast.BlockStmt) {
	var obls []obligation
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // checked as a body of its own
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		}
		for i, s := range list {
			if o, ok := r.define(pass, s); ok {
				o.rest = list[i+1:]
				obls = append(obls, o)
			}
		}
		return true
	})

	for _, o := range obls {
		if r.deferred(pass, body, o.obj) || r.escapes(pass, body, o.obj) {
			continue
		}
		w := &pathWalker{r: r, pass: pass, obj: o.obj, errObj: o.errObj}
		ended, terminated := w.list(o.rest, false)
		if w.violated || (!ended && !terminated) {
			pass.Reportf(o.call.Pos(), r.Leaked, o.obj.Name(), o.obj.Name())
		}
	}
}

// define returns the obligation statement s creates, if any, and reports a
// producing call whose value s drops.
func (r *Release) define(pass *Pass, s ast.Stmt) (obligation, bool) {
	var lhs []ast.Expr
	var call *ast.CallExpr
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			call, _ = s.Rhs[0].(*ast.CallExpr)
			lhs = s.Lhs
		}
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	}
	if call == nil {
		return obligation{}, false
	}
	if id, m := methodCall(call); id != nil && m == r.Acquire && len(call.Args) == 0 && r.tracked(pass.TypeOf(id)) {
		obj := pass.ObjectOf(id)
		return obligation{obj: obj, call: call}, obj != nil
	}
	slot := r.produced(pass, call)
	if slot < 0 || (lhs != nil && slot >= len(lhs)) {
		return obligation{}, false
	}
	var id *ast.Ident
	if lhs != nil {
		if id, _ = lhs[slot].(*ast.Ident); id != nil && id.Name == "_" {
			id = nil
		}
		if id == nil && !r.DiscardUnbound {
			return obligation{}, false // a deliberate drop or a hand-off
		}
	}
	if id == nil {
		pass.Report(Diagnostic{Pos: call.Pos(), Message: r.Discarded})
		return obligation{}, false
	}
	o := obligation{obj: pass.ObjectOf(id), call: call}
	if len(lhs) == 2 {
		if errID, ok := lhs[1-slot].(*ast.Ident); ok {
			if obj := pass.ObjectOf(errID); obj != nil && types.Identical(obj.Type(), errorType) {
				o.errObj = obj
			}
		}
	}
	return o, o.obj != nil
}

var errorType = types.Universe.Lookup("error").Type()

// tracked reports whether t is the configured type.
func (r *Release) tracked(t types.Type) bool { return IsNamed(t, r.Pkg, r.Type) }

// produced returns the result index at which call yields a tracked value
// when call is a producer, else -1.
func (r *Release) produced(pass *Pass, call *ast.CallExpr) int {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !slices.Contains(r.Producers, sel.Sel.Name) {
		return -1
	}
	switch t := pass.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if r.tracked(t.At(i).Type()) {
				return i
			}
		}
	case types.Type:
		if r.tracked(t) {
			return 0
		}
	}
	return -1
}

// methodCall returns the receiver identifier and method name when n is a
// call x.m(...) on an identifier x, else nil.
func methodCall(n ast.Node) (*ast.Ident, string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	id, _ := sel.X.(*ast.Ident)
	return id, sel.Sel.Name
}

// released reports whether n is obj.Method().
func (r *Release) released(pass *Pass, n ast.Node, obj types.Object) bool {
	id, m := methodCall(n)
	return id != nil && m == r.Method && pass.ObjectOf(id) == obj
}

// deferred reports whether the function defers obj's release, directly or
// inside a deferred closure.
func (r *Release) deferred(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok && !found {
			ast.Inspect(ds.Call, func(m ast.Node) bool {
				found = found || r.released(pass, m, obj)
				return !found
			})
		}
		return !found
	})
	return found
}

// escapes reports whether obj is used as a value anywhere in the function —
// as an argument, a result, a stored or reassigned value, a captured
// variable — rather than as the receiver of an ordinary-use method call or
// in its own definition.
func (r *Release) escapes(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	receiver := map[*ast.Ident]bool{}
	escaped := false
	// A call is visited before its receiver identifier, so the receiver is
	// marked before the identifier check sees it.
	ast.Inspect(body, func(n ast.Node) bool {
		if id, m := methodCall(n); id != nil && (r.AnyMethodIsUse || m == r.Method) {
			receiver[id] = true
		} else if id, ok := n.(*ast.Ident); ok && !receiver[id] &&
			pass.ObjectOf(id) == obj && pass.TypesInfo.Defs[id] != obj {
			escaped = true
		}
		return !escaped
	})
	return escaped
}

// pathWalker follows the paths out of one obligation's owning list.
type pathWalker struct {
	r        *Release
	pass     *Pass
	obj      types.Object
	errObj   types.Object
	violated bool // a return was reached with the value unreleased
}

// list walks a statement list from the given entry state and returns
// whether the value is definitely released at the fall-through exit, and
// whether control cannot fall through (all paths returned or panicked).
func (w *pathWalker) list(list []ast.Stmt, ended bool) (bool, bool) {
	terminated := false
	for _, s := range list {
		if terminated {
			break // unreachable
		}
		ended, terminated = w.stmt(s, ended)
	}
	return ended, terminated
}

func (w *pathWalker) stmt(s ast.Stmt, ended bool) (bool, bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if w.r.released(w.pass, st.X, w.obj) {
			return true, false
		}
		if isTerminalCall(st.X) {
			return ended, true
		}
	case *ast.DeferStmt:
		if w.r.released(w.pass, st.Call, w.obj) {
			return true, false
		}
	case *ast.ReturnStmt:
		w.violated = w.violated || !ended
		return ended, true
	case *ast.BranchStmt:
		// break/continue/goto leave this list; the value may still be
		// released on the resumed path, which a one-pass walk cannot see.
		// Treat as a terminator without judgement (conservatively no
		// violation).
		return ended, true
	case *ast.BlockStmt:
		return w.list(st.List, ended)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, ended)
	case *ast.IfStmt:
		if w.isErrGuard(st.Cond) {
			return ended, false // the producer failed: nothing to release
		}
		bEnded, bTerm := w.list(st.Body.List, ended)
		if st.Else == nil {
			return ended, false
		}
		eEnded, eTerm := w.stmt(st.Else, ended)
		return ended || ((bEnded || bTerm) && (eEnded || eTerm)), bTerm && eTerm
	case *ast.ForStmt:
		w.list(st.Body.List, ended)
	case *ast.RangeStmt:
		w.list(st.Body.List, ended)
	case *ast.SwitchStmt:
		w.clauses(st.Body, ended)
	case *ast.TypeSwitchStmt:
		w.clauses(st.Body, ended)
	case *ast.SelectStmt:
		w.clauses(st.Body, ended)
	}
	return ended, false
}

// clauses walks each case of a switch or select for its returns; no case
// is known to run, so none changes the state after the statement.
func (w *pathWalker) clauses(body *ast.BlockStmt, ended bool) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			w.list(c.Body, ended)
		case *ast.CommClause:
			w.list(c.Body, ended)
		}
	}
}

// isErrGuard reports whether cond is `err != nil` on the error produced
// alongside the value.
func (w *pathWalker) isErrGuard(cond ast.Expr) bool {
	bin, ok := cond.(*ast.BinaryExpr)
	if w.errObj == nil || !ok || bin.Op != token.NEQ {
		return false
	}
	id, ok := bin.X.(*ast.Ident)
	nilID, isIdent := bin.Y.(*ast.Ident)
	return ok && w.pass.ObjectOf(id) == w.errObj && isIdent && nilID.Name == "nil"
}

// isTerminalCall reports whether e is a call that never returns: panic, or
// a Fatal/Panic/Exit-style function.
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
