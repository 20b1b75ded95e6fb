package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file adds the interprocedural substrate: a call graph over every
// function declared in the analyzed packages, resolved from the type-checker's
// results. Program-level analyzers (Analyzer.RunProgram) receive it through
// ProgramPass and derive whole-repo facts — lock acquisition orders, WAL-append
// reachability, snapshot-construction cones — from function summaries computed
// over it (see summary.go).
//
// Resolution is static: direct calls, method calls (including promoted methods
// through embedding) and package-qualified calls resolve to one callee;
// interface method calls fan out to every program method that implements the
// interface; calls through plain function values (fields, parameters, locals)
// resolve to nothing. Calls written inside a function literal are attributed
// to the enclosing declared function — the literal usually runs on behalf of
// its definer (immediately, deferred, or as a registered callback), and
// attributing its calls there keeps reachability conservative without
// modeling closure values.

// Program is the whole analyzed unit: the loaded root packages linked by one
// call graph.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	// Funcs indexes every declared function or method that has a body, by its
	// type-checker object (generic instantiations are folded into their
	// origin).
	Funcs map[*types.Func]*Func

	// funcs holds the same functions in deterministic (package, source)
	// order, the iteration order for every derived computation.
	funcs []*Func

	callers map[*Func][]*Func
}

// Func is one declared function or method with a body, plus its resolved
// call sites in source order.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists every statically resolvable call in the body, including
	// calls inside function literals (attributed here), in source order.
	Calls []*CallSite
}

// CallSite is one resolved call expression.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the static callee object — possibly a function outside the
	// program (standard library, dependency) or an interface method.
	Callee *types.Func
	// Targets are the program functions the call may dispatch to: one for a
	// static call whose body is in the program, several for an interface
	// method call, none for calls leaving the program.
	Targets []*Func
}

// Name renders the function as package.Name or package.Recv.Name for
// diagnostics.
func (f *Func) Name() string { return FuncName(f.Obj) }

// BuildProgram links packages into a Program: it indexes every declared
// function with a body and resolves each call site to its static callee and
// the program functions it can dispatch to.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{Pkgs: pkgs, Funcs: map[*types.Func]*Func{}}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fn := &Func{Obj: obj, Decl: fd, Pkg: pkg}
				p.Funcs[obj] = fn
				p.funcs = append(p.funcs, fn)
			}
		}
	}
	for _, fn := range p.funcs {
		info := fn.Pkg.Info
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(info, call)
			if callee == nil {
				return true
			}
			fn.Calls = append(fn.Calls, &CallSite{
				Call:    call,
				Callee:  callee,
				Targets: p.resolveTargets(callee),
			})
			return true
		})
	}
	return p
}

// Functions returns every program function in deterministic source order.
func (p *Program) Functions() []*Func { return p.funcs }

// StaticCallee resolves a call expression to its callee object: a declared
// function, a method (through any embedding depth), or an interface method.
// It returns nil for dynamic calls through function values, conversions, and
// builtins. Generic instantiations resolve to their origin.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f.Origin()
			}
			return nil // field access producing a func value: dynamic
		}
		// Package-qualified call (pkg.Func).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f.Origin()
		}
	}
	return nil
}

// resolveTargets maps a static callee to the program functions the call may
// execute: the callee's own body when it is in the program, or — for an
// interface method — every program method of the same name whose receiver
// implements the interface.
func (p *Program) resolveTargets(callee *types.Func) []*Func {
	sig, ok := callee.Type().(*types.Signature)
	if ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			return nil
		}
		var out []*Func
		for _, fn := range p.funcs {
			msig, ok := fn.Obj.Type().(*types.Signature)
			if !ok || msig.Recv() == nil || fn.Obj.Name() != callee.Name() {
				continue
			}
			recv := msig.Recv().Type()
			if types.Implements(recv, iface) {
				out = append(out, fn)
				continue
			}
			if _, isPtr := recv.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(recv), iface) {
				out = append(out, fn)
			}
		}
		return out
	}
	if fn := p.Funcs[callee]; fn != nil {
		return []*Func{fn}
	}
	return nil
}

// Callers returns the reverse call graph: for every program function, the
// functions holding a call site that may dispatch to it. The map is computed
// once and cached.
func (p *Program) Callers() map[*Func][]*Func {
	if p.callers != nil {
		return p.callers
	}
	callers := map[*Func][]*Func{}
	for _, fn := range p.funcs {
		seen := map[*Func]bool{}
		for _, cs := range fn.Calls {
			for _, t := range cs.Targets {
				if !seen[t] {
					seen[t] = true
					callers[t] = append(callers[t], fn)
				}
			}
		}
	}
	p.callers = callers
	return callers
}
