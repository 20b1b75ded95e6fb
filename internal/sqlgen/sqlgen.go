// Package sqlgen is the audited path for assembling SQL statement text.
//
// The engine binds every value through `?` placeholders, so the only text
// that legitimately varies at runtime is identifiers: the per-encoding nodes
// table (xg_nodes, xl_nodes, xd_nodes, xs_nodes) and its order column
// (gorder, lorder, path). SQL validates each interpolated identifier against
// a strict grammar before splicing, which keeps two properties the engine
// depends on:
//
//   - no injection: a hostile or corrupt identifier cannot break out of the
//     statement (SQL panics instead, loudly, before any text exists);
//   - plan-cache friendliness: statement text stays a function of the schema
//     only, never of values, so the cache keyed by SQL text keeps hitting.
//
// The rawsql analyzer (internal/lint/rawsql, run via cmd/ordlint) enforces
// that all other packages route SQL construction through here.
package sqlgen

import (
	"fmt"
	"regexp"
	"strings"
)

// identRe is the accepted identifier grammar: the engine's table and column
// names, nothing more. No quoting mechanism exists on purpose — an
// identifier that needs quoting has no business in this schema.
var identRe = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// SQL renders a statement template. Every %s placeholder is substituted with
// the corresponding identifier argument; each argument must be a valid
// identifier or a comma-separated identifier list (for column lists). Any
// other format verb, a placeholder/argument count mismatch, or an invalid
// identifier panics: statement templates are compiled-in and their
// identifiers come from the encoding's schema, so a bad one is a programming
// error, not a runtime condition.
func SQL(format string, idents ...string) string {
	if n := countPlaceholders(format); n != len(idents) {
		panic(fmt.Sprintf("sqlgen.SQL: template has %d %%s placeholders but %d identifiers given: %q", n, len(idents), format))
	}
	args := make([]any, len(idents))
	for i, id := range idents {
		args[i] = IdentList(id)
	}
	return fmt.Sprintf(format, args...)
}

// Ident validates a single SQL identifier and returns it unchanged. It
// panics on anything outside [A-Za-z_][A-Za-z0-9_]*.
func Ident(name string) string {
	if !identRe.MatchString(name) {
		panic(fmt.Sprintf("sqlgen: invalid SQL identifier %q", name))
	}
	return name
}

// IdentList validates a comma-separated list of identifiers ("id, parent,
// gorder") and returns it with canonical ", " separators.
func IdentList(list string) string {
	parts := strings.Split(list, ",")
	for i, p := range parts {
		parts[i] = Ident(strings.TrimSpace(p))
	}
	return strings.Join(parts, ", ")
}

// List joins the given identifiers into a validated column list.
func List(names ...string) string {
	for _, n := range names {
		Ident(n)
	}
	return strings.Join(names, ", ")
}

// countPlaceholders counts %s conversions and panics on any other verb; the
// template language is deliberately just "identifier goes here".
func countPlaceholders(format string) int {
	n := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		if i+1 >= len(format) {
			panic(fmt.Sprintf("sqlgen.SQL: dangling %% in template %q", format))
		}
		switch format[i+1] {
		case 's':
			n++
		case '%':
		default:
			panic(fmt.Sprintf("sqlgen.SQL: unsupported verb %%%c in template %q (only %%s identifiers allowed)", format[i+1], format))
		}
		i++
	}
	return n
}
