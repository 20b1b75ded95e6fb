// Package framework is a self-contained substrate for writing static
// analyzers against the standard library's go/ast and go/types, mirroring
// the golang.org/x/tools/go/analysis API surface (Analyzer, Pass, Diagnostic,
// an analysistest-style test runner) without the external dependency.
//
// The mirror is deliberate: each analyzer in internal/lint/... is written
// exactly as it would be against x/tools — a Name, a Doc string and a
// Run(*Pass) function reporting position-anchored diagnostics — so the suite
// can be lifted onto the real multichecker/unitchecker unchanged if the
// dependency ever becomes available. Until then, cmd/ordlint drives these
// analyzers with the loader in this package (go list -deps -json plus a
// go/types source type-checker), which resolves the whole dependency closure,
// standard library included, from source.
package framework

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer describes one static analysis: a named pass over a type-checked
// package, or — when RunProgram is set — over the whole loaded program at
// once. The per-package shape matches golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. By convention a
	// short lower-case word ("rawsql", "wraperr").
	Name string
	// Doc is the help text: first line is a one-sentence summary.
	Doc string
	// Run applies the analysis to one package. Optional when RunProgram is
	// set.
	Run func(*Pass) error
	// RunProgram applies the analysis once to the whole set of loaded
	// packages, linked by a call graph — the hook for interprocedural
	// contract analyzers (lockorder, walfirst, viewmut, atomicmix). Optional.
	RunProgram func(*ProgramPass) error
}

// Pass provides one analyzed package to an Analyzer's Run function: its
// syntax trees, type information and a Report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees (non-test files).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files. Type-check errors
	// degrade the maps (missing entries) rather than aborting the pass;
	// analyzers must tolerate nil lookups.
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if unknown (for example
// inside code that failed to type-check).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by ident, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.TypesInfo == nil {
		return nil
	}
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// NamedType returns the named type t denotes, looking through one pointer,
// or nil.
func NamedType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsNamed reports whether t is (a pointer to) a type with one of names
// declared in a package named pkg. The match is structural, by package
// name, so an analyzer's test double of a package triggers it too.
func IsNamed(t types.Type, pkg string, names ...string) bool {
	named := NamedType(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != pkg {
		return false
	}
	return slices.Contains(names, named.Obj().Name())
}

// RecvName returns the name of fn's receiver type, or "" for a plain
// function.
func RecvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if named := NamedType(sig.Recv().Type()); named != nil {
		return named.Obj().Name()
	}
	return ""
}

// FuncName renders fn as package.Name or package.Recv.Name for diagnostics.
func FuncName(fn *types.Func) string {
	name := fn.Name()
	if recv := RecvName(fn); recv != "" {
		name = recv + "." + name
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// ProgramPass provides the whole analyzed program to an Analyzer's
// RunProgram function: every loaded package plus the call graph linking them.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a rendered diagnostic: the analyzer that produced it plus its
// resolved position.
type Finding struct {
	Analyzer string
	Posn     token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Posn, f.Message, f.Analyzer)
}

// RunAnalyzers applies every analyzer to every package — and every
// program-level analyzer once to the linked program — and returns the
// findings, filtered through //ordlint:ignore suppressions and sorted by
// position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = BuildProgram(pkgs)
		}
		name := a.Name
		pp := &ProgramPass{
			Analyzer: a,
			Prog:     prog,
			Report: func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: name,
					Posn:     prog.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
		}
		if err := a.RunProgram(pp); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d Diagnostic) {
					findings = append(findings, Finding{
						Analyzer: a.Name,
						Posn:     pkg.Fset.Position(d.Pos),
						Message:  d.Message,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	findings = FilterSuppressed(findings)
	// By file, line, column, then analyzer; stable, so findings at one
	// position keep the order their analyzer reported them in.
	slices.SortStableFunc(findings, func(a, b Finding) int {
		return cmp.Or(
			strings.Compare(a.Posn.Filename, b.Posn.Filename),
			cmp.Compare(a.Posn.Line, b.Posn.Line),
			cmp.Compare(a.Posn.Column, b.Posn.Column),
			strings.Compare(a.Analyzer, b.Analyzer))
	})
	return findings, nil
}
