// Package viewmut implements the published-snapshot immutability analyzer.
// The engine's readers are lock-free because a query runs against a frozen
// catalog.View: once a view is published (stored where readers can load it),
// nothing reachable from it may be mutated — writers build a fresh view and
// swap the pointer. A single post-publication field write silently breaks
// every in-flight reader, so the contract is enforced statically.
//
// The frozen set is computed from the types: starting at catalog.View, field
// types are chased through pointers, slices, arrays and maps; a named struct
// is frozen (and recursed into) when it is declared in the catalog package
// or is named Snapshot (the heap and btree publication types). Table and
// Index stop the chase: a view shares live *Table/*Index pointers with the
// writer side, whose mutations are governed by the engine's write lock, not
// by view immutability. sync and sync/atomic types also stop it.
//
// A write to a frozen struct's field (or into a map/slice held in one) is
// allowed only inside the builder cone — the functions that construct
// snapshots before publication: any function returning a frozen type, plus,
// by fixpoint, any function called exclusively from cone members (the
// build-helper shape, e.g. snapshotData filling a TableData it was handed).
// Everything outside the cone that writes a frozen field is a finding.
//
// The analysis is alias-unaware by design: it tracks syntactic field writes
// through typed bases, not heap shapes. That catches the realistic failure
// mode (a method or helper "fixing up" a view in place) without a points-to
// analysis; copying a frozen pointer into an interface and mutating through
// it would evade the check, but nothing in the engine does.
package viewmut

import (
	"go/ast"
	"go/types"

	"ordxml/internal/lint/framework"
)

// Analyzer is the published-snapshot immutability pass.
var Analyzer = &framework.Analyzer{
	Name:       "viewmut",
	Doc:        "structures reachable from a published catalog.View must not be mutated after construction",
	RunProgram: run,
}

// boundary names stop the reachability chase: these are shared with the
// writer side (or are synchronization primitives) and have their own rules.
var boundaryType = map[string]bool{"Table": true, "Index": true}

func boundaryPkg(path string) bool {
	return path == "sync" || path == "sync/atomic"
}

func run(pass *framework.ProgramPass) error {
	prog := pass.Prog
	frozen := frozenSet(prog)
	if len(frozen) == 0 {
		return nil // no catalog.View in this program
	}
	allowed := builderCone(prog, frozen)
	for _, fn := range prog.Functions() {
		if allowed[fn] {
			continue
		}
		checkWrites(pass, fn, frozen)
	}
	return nil
}

// typeKey identifies a named type across packages by path and name (the
// loader may materialize a package once as a root and once as a dependency,
// so pointer identity on types is not relied upon).
func typeKey(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// frozenSet seeds on every type named View in a package named catalog and
// chases field types, freezing named structs declared in the catalog package
// or named Snapshot, stopping at boundary types and packages.
func frozenSet(prog *framework.Program) map[string]bool {
	frozen := map[string]bool{}
	var work []*types.Named
	for _, pkg := range prog.Pkgs {
		if pkg.Types == nil || pkg.Types.Name() != "catalog" {
			continue
		}
		if obj, ok := pkg.Types.Scope().Lookup("View").(*types.TypeName); ok {
			if named, ok := obj.Type().(*types.Named); ok {
				if frozen[typeKey(named)] {
					continue
				}
				frozen[typeKey(named)] = true
				work = append(work, named)
			}
		}
	}
	for len(work) > 0 {
		named := work[len(work)-1]
		work = work[:len(work)-1]
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			for _, cand := range namedIn(st.Field(i).Type()) {
				obj := cand.Obj()
				if obj.Pkg() == nil || boundaryType[obj.Name()] || boundaryPkg(obj.Pkg().Path()) {
					continue
				}
				if obj.Pkg().Name() != "catalog" && obj.Name() != "Snapshot" {
					continue
				}
				if _, isStruct := cand.Underlying().(*types.Struct); !isStruct {
					continue
				}
				if !frozen[typeKey(cand)] {
					frozen[typeKey(cand)] = true
					work = append(work, cand)
				}
			}
		}
	}
	return frozen
}

// namedIn collects the named types a field type leads to, through pointers,
// slices, arrays and both sides of maps.
func namedIn(t types.Type) []*types.Named {
	switch t := t.(type) {
	case *types.Named:
		return []*types.Named{t}
	case *types.Pointer:
		return namedIn(t.Elem())
	case *types.Slice:
		return namedIn(t.Elem())
	case *types.Array:
		return namedIn(t.Elem())
	case *types.Map:
		return append(namedIn(t.Key()), namedIn(t.Elem())...)
	}
	return nil
}

// builderCone returns the functions allowed to write frozen fields: those
// returning a frozen type, closed under "called only from cone members".
func builderCone(prog *framework.Program, frozen map[string]bool) map[*framework.Func]bool {
	allowed := map[*framework.Func]bool{}
	funcs := prog.Functions()
	for _, fn := range funcs {
		sig, ok := fn.Obj.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if isFrozenType(sig.Results().At(i).Type(), frozen) {
				allowed[fn] = true
				break
			}
		}
	}
	callers := prog.Callers()
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if allowed[fn] || len(callers[fn]) == 0 {
				continue
			}
			all := true
			for _, c := range callers[fn] {
				if !allowed[c] {
					all = false
					break
				}
			}
			if all {
				allowed[fn] = true
				changed = true
			}
		}
	}
	return allowed
}

func isFrozenType(t types.Type, frozen map[string]bool) bool {
	named := framework.NamedType(t)
	return named != nil && frozen[typeKey(named)]
}

// checkWrites reports every write to a frozen struct's field — plain
// assignment, op-assignment, ++/--, or an index write into a map or slice
// held in a frozen field — inside one non-cone function.
func checkWrites(pass *framework.ProgramPass, fn *framework.Func, frozen map[string]bool) {
	report := func(lhs ast.Expr) {
		named, field := frozenFieldWrite(fn.Pkg.Info, lhs, frozen)
		if named == nil {
			return
		}
		pass.Reportf(lhs.Pos(),
			"mutation of published snapshot: write to %s.%s.%s outside the view builders (View-reachable structures are immutable once published; build a new view instead)",
			named.Obj().Pkg().Name(), named.Obj().Name(), field)
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(st.X)
		}
		return true
	})
}

// frozenFieldWrite resolves an assignment target to (frozen struct type,
// field name), peeling index and deref layers, or (nil, "") when the target
// does not write through a frozen struct.
func frozenFieldWrite(info *types.Info, lhs ast.Expr, frozen map[string]bool) (*types.Named, string) {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	named := framework.NamedType(info.TypeOf(sel.X))
	if named == nil || !frozen[typeKey(named)] {
		return nil, ""
	}
	return named, sel.Sel.Name
}
