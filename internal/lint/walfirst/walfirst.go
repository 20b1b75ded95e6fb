// Package walfirst implements the durability-contract analyzer: on a durable
// store, every mutation must reach the write-ahead log before it reaches
// engine state. The contract has two halves, both checked interprocedurally
// over the call graph:
//
//  1. WAL-before-apply. Every exported method on a type named Store (the
//     public mutation surface) is walked in source order. A call that can
//     reach a WAL append (wal.Log.Append / AppendSync, through any helper
//     chain — in the engine that chain is Store.logOp) marks the path as
//     logged; a call that can reach a state-apply anchor (sqldb.DB.Exec /
//     ExecCtx / BulkInsert, heap.Heap.Insert / Delete / Update /
//     AppendBatch, btree.Tree.Insert / Delete / BulkLoad) before
//     that point is a finding. A call that reaches both — a delegation like
//     LoadString → Load, which logs internally before applying — satisfies
//     the contract. The memory-only escape hatch `if s.dur == nil { ... }`
//     is recognized structurally and its body exempted: with no durable
//     state there is nothing to log.
//
//  2. Flush barrier. Any function that writes a page image to disk (a call
//     to a method named WritePage) must first call EnsureDurable in the same
//     body: the WAL must be fsynced through the page's LSN before the page
//     can overwrite its disk image, or a crash could leave a page newer than
//     the log that explains it. The engine's EnsureDurable is a wired
//     closure field, invisible to static callee resolution, so this half
//     matches the call syntactically.
//
// The check is path-insensitive beyond the dur-guard: it asks "is there any
// textually earlier call that logs", not "does every control-flow path log".
// That is the right polarity for a contract linter — the engine's entries
// log unconditionally at the top — and deliberate violations (checkpoint
// metadata writes, which record WAL positions and must not themselves be
// WAL-logged) carry //ordlint:ignore annotations with their justification.
package walfirst

import (
	"go/ast"
	"go/types"

	"ordxml/internal/lint/framework"
)

// Analyzer is the WAL-first durability pass.
var Analyzer = &framework.Analyzer{
	Name:       "walfirst",
	Doc:        "durable mutation paths must append to the WAL before applying engine state, and page writes need a durability barrier",
	RunProgram: run,
}

// isWALAppend reports whether obj is wal.Log.Append or wal.Log.AppendSync.
func isWALAppend(obj *types.Func) bool {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != "wal" {
		return false
	}
	if obj.Name() != "Append" && obj.Name() != "AppendSync" {
		return false
	}
	return framework.RecvName(obj) == "Log"
}

// applyAnchors lists the engine-state mutation anchors: package name →
// receiver type → method set.
var applyAnchors = map[string]map[string]map[string]bool{
	"sqldb": {
		"DB": {"Exec": true, "ExecCtx": true, "BulkInsert": true},
	},
	"heap": {
		"Heap": {"Insert": true, "Delete": true, "Update": true, "AppendBatch": true},
	},
	"btree": {
		"Tree": {"Insert": true, "Delete": true, "BulkLoad": true},
	},
}

// isApply reports whether obj is one of the state-apply anchors.
func isApply(obj *types.Func) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	byRecv, ok := applyAnchors[obj.Pkg().Name()]
	if !ok {
		return false
	}
	return byRecv[framework.RecvName(obj)][obj.Name()]
}

// isEntryPoint reports whether fn is part of the public mutation surface: an
// exported method on a receiver type named Store.
func isEntryPoint(fn *framework.Func) bool {
	return fn.Decl.Name.IsExported() && framework.RecvName(fn.Obj) == "Store"
}

func run(pass *framework.ProgramPass) error {
	prog := pass.Prog
	walReach := prog.Reaches(isWALAppend)
	applyReach := prog.Reaches(isApply)
	for _, fn := range prog.Functions() {
		if isEntryPoint(fn) {
			checkEntry(pass, fn, walReach, applyReach)
		}
		checkFlushBarrier(pass, fn)
	}
	return nil
}

// checkEntry walks one entry point in source order, tracking whether a
// WAL-reaching call has happened yet; apply-reaching calls before that point
// are findings.
func checkEntry(pass *framework.ProgramPass, fn *framework.Func, walReach, applyReach map[*framework.Func]bool) {
	sites := map[*ast.CallExpr]*framework.CallSite{}
	for _, cs := range fn.Calls {
		sites[cs.Call] = cs
	}
	logged := false
	skip := map[ast.Node]bool{}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if skip[n] {
			return false
		}
		switch x := n.(type) {
		case *ast.IfStmt:
			// `if s.dur == nil { ... }` is the memory-only path: nothing to
			// log, so its body is exempt from the contract.
			if isDurNilGuard(x.Cond) {
				skip[x.Body] = true
			}
		case *ast.CallExpr:
			cs, ok := sites[x]
			if !ok {
				return true
			}
			if cs.Reaches(isWALAppend, walReach) {
				logged = true
				return true
			}
			if !logged && cs.Reaches(isApply, applyReach) {
				pass.Reportf(x.Pos(),
					"mutation before WAL append: call to %s applies engine state with no prior WAL append in %s (WAL-first: log the operation, then apply)",
					cs.Callee.Name(), fn.Name())
			}
		}
		return true
	})
}

// isDurNilGuard matches the structural shape `<expr>.dur == nil`.
func isDurNilGuard(cond ast.Expr) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op.String() != "==" {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	isDur := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "dur"
	}
	return (isDur(bin.X) && isNil(bin.Y)) || (isDur(bin.Y) && isNil(bin.X))
}

// checkFlushBarrier requires every call to a method named WritePage to be
// preceded, in the same function body, by a call to EnsureDurable. The
// engine's EnsureDurable is a closure field wired at open time, so the match
// is syntactic (selector name), not type-resolved.
func checkFlushBarrier(pass *framework.ProgramPass, fn *framework.Func) {
	ensured := false
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "EnsureDurable":
			ensured = true
		case "WritePage":
			if !ensured {
				pass.Reportf(call.Pos(),
					"page write without durability barrier: WritePage in %s has no preceding EnsureDurable call (the WAL must be fsynced through the page LSN before its disk image is overwritten)",
					fn.Name())
			}
		}
		return true
	})
}
