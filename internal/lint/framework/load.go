package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, parsed and type-checked package. Analyzers run
// over packages with type errors too, with degraded type information.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage mirrors the fields of `go list -json` output this loader
// consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Incomplete bool
	Error      *struct{ Err string }
}

// Load resolves patterns (import paths, ./... wildcards, or directories) with
// the go tool, parses every package in the dependency closure, and
// type-checks them in dependency order — the standard library included, from
// source, so no compiled export data or external loader library is needed.
// It returns only the packages matching the patterns (the "roots"); their
// dependencies are type-checked but not analyzed.
//
// dir is the working directory for the go tool (any directory inside the
// target module). The loader pins CGO_ENABLED=0 so the file sets it
// type-checks are the pure-Go ones, and GOPROXY=off since the closure is
// module-local plus the standard library.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("no packages to load")
	}
	roots, err := goList(dir, patterns, false)
	if err != nil {
		return nil, err
	}
	deps, err := goList(dir, patterns, true)
	if err != nil {
		return nil, err
	}

	rootSet := make(map[string]bool, len(roots))
	for _, p := range roots {
		rootSet[p.ImportPath] = true
	}

	fset := token.NewFileSet()
	typed := make(map[string]*types.Package, len(deps))
	loaded := make(map[string]*Package, len(deps))
	sizes := types.SizesFor("gc", runtime.GOARCH)

	// go list -deps emits dependencies before dependents, so a single forward
	// pass type-checks every import before its importers.
	for _, lp := range deps {
		if lp.ImportPath == "unsafe" {
			typed["unsafe"] = types.Unsafe
			continue
		}
		if lp.Error != nil && len(lp.GoFiles) == 0 {
			return nil, fmt.Errorf("load %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg := &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			Fset:       fset,
		}
		for _, f := range lp.GoFiles {
			path := filepath.Join(lp.Dir, f)
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %w", path, err)
			}
			pkg.Files = append(pkg.Files, file)
		}
		pkg.Info = newInfo()
		conf := types.Config{
			Importer:    &mapImporter{typed: typed, importMap: lp.ImportMap},
			Sizes:       sizes,
			FakeImportC: true,
			// A non-nil Error keeps the checker going past the first error.
			Error: func(error) {},
		}
		tpkg, _ := conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info)
		pkg.Types = tpkg
		typed[lp.ImportPath] = tpkg
		loaded[lp.ImportPath] = pkg
	}

	out := make([]*Package, 0, len(roots))
	for _, lp := range roots {
		if p := loaded[lp.ImportPath]; p != nil {
			out = append(out, p)
		}
	}
	return out, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// mapImporter resolves imports against the already-type-checked closure,
// honouring the per-package ImportMap (vendored standard-library paths).
type mapImporter struct {
	typed     map[string]*types.Package
	importMap map[string]string
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if r, ok := m.importMap[path]; ok {
		path = r
	}
	if p, ok := m.typed[path]; ok && p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("package %q not in load closure", path)
}

// goList shells out to `go list -e -json`, optionally with -deps, and
// decodes the JSON stream.
func goList(dir string, patterns []string, deps bool) ([]*listedPackage, error) {
	args := []string{"list", "-e", "-json"}
	if deps {
		args = append(args, "-deps")
	}
	args = append(args, "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOPROXY=off", "GOFLAGS=")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listedPackage
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		out = append(out, lp)
	}
	return out, nil
}
