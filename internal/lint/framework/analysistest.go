package framework

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted or backquoted expectation patterns from a
// `// want "..."` comment, x/tools analysistest style.
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// RunTest loads the package rooted at dir (conventionally
// testdata/src/<name> relative to the analyzer's test file), runs the
// analyzer over it, and compares the diagnostics against `// want "regexp"`
// comments: every diagnostic must match a want pattern on its source line,
// and every want pattern must be matched by a diagnostic.
func RunTest(t *testing.T, analyzer *Analyzer, dir string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("resolve %s: %v", dir, err)
	}
	pkgs, err := Load(abs, abs)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages loaded from %s", dir)
	}
	findings, err := RunAnalyzers(pkgs, []*Analyzer{analyzer})
	if err != nil {
		t.Fatalf("run %s: %v", analyzer.Name, err)
	}

	type key struct {
		file string
		line int
	}
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[key][]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("read %s: %v", name, err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				_, after, ok := strings.Cut(line, "// want ")
				if !ok {
					continue
				}
				k := key{name, i + 1}
				for _, m := range wantRe.FindAllStringSubmatch(after, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					} else {
						pat = strings.ReplaceAll(pat, `\"`, `"`)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, pat, err)
					}
					wants[k] = append(wants[k], &want{re: re})
				}
			}
		}
	}

	for _, f := range findings {
		k := key{f.Posn.Filename, f.Posn.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.re)
			}
		}
	}
}
