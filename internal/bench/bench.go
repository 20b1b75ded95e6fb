// Package bench is the experiment harness behind EXPERIMENTS.md: it builds
// the workloads, runs experiments E1–E9 (the reproduction of the paper's
// tables and figures), and renders result tables. The root bench_test.go
// exposes the same experiments as testing.B benchmarks; cmd/xmlbench prints
// the tables.
package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"ordxml"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// Config names one encoding configuration under test.
type Config struct {
	Name string
	Opts ordxml.Options
}

// Encodings returns the three dense encodings — the paper's principal
// comparison.
func Encodings() []Config {
	return []Config{
		{Name: "global", Opts: ordxml.Options{Encoding: ordxml.Global}},
		{Name: "local", Opts: ordxml.Options{Encoding: ordxml.Local}},
		{Name: "dewey", Opts: ordxml.Options{Encoding: ordxml.Dewey}},
	}
}

// EncodingsWithText adds the string-Dewey ablation (E8).
func EncodingsWithText() []Config {
	return append(Encodings(),
		Config{Name: "dewey_text", Opts: ordxml.Options{Encoding: ordxml.Dewey, DeweyAsText: true}})
}

// GapConfigs returns one encoding at several gap settings (E6).
func GapConfigs(enc ordxml.Encoding, gaps []uint32) []Config {
	var out []Config
	for _, g := range gaps {
		out = append(out, Config{
			Name: fmt.Sprintf("%s/gap=%d", enc, g),
			Opts: ordxml.Options{Encoding: enc, Gap: g},
		})
	}
	return out
}

// CatalogDoc generates the standard catalog workload document.
func CatalogDoc(itemsPerRegion int) *xmltree.Node {
	return xmlgen.Catalog(xmlgen.CatalogConfig{
		Regions:          3,
		ItemsPerRegion:   itemsPerRegion,
		KeywordsPerItem:  2,
		DescriptionWords: 8,
		Seed:             42,
	})
}

// NewStore opens a store and loads the document, returning the doc id.
func NewStore(cfg Config, doc *xmltree.Node) (*ordxml.Store, ordxml.DocID, error) {
	s, err := ordxml.Open(cfg.Opts)
	if err != nil {
		return nil, 0, err
	}
	id, err := s.LoadString("bench", doc.String())
	if err != nil {
		return nil, 0, err
	}
	return s, id, nil
}

// Examined is the store's cumulative logical read work — index entries
// visited plus rows scanned — the hardware-independent cost the experiment
// tables report. Subtract two readings to cost an operation.
func Examined(s *ordxml.Store) int64 {
	m := s.Metrics()
	return m.Gauges["storage.index_probes"] + m.Gauges["storage.rows_scanned"]
}

// QuerySpec is one entry of the E3 query suite.
type QuerySpec struct {
	ID      string
	XPath   string
	Feature string
}

// QuerySuite parametrizes the E3 queries for a catalog with the given
// items-per-region count.
func QuerySuite(itemsPerRegion int) []QuerySpec {
	mid := itemsPerRegion / 2
	if mid < 1 {
		mid = 1
	}
	return []QuerySpec{
		{"Q1", "/site/regions/namerica/item", "full path, no order"},
		{"Q2", fmt.Sprintf("/site/regions/namerica/item[%d]", mid), "position predicate"},
		{"Q3", "/site/regions/namerica/item[position() <= 10]", "position range"},
		{"Q4", "/site/regions/namerica/item[3]/following-sibling::item", "following-sibling"},
		{"Q5", fmt.Sprintf("/site/regions/namerica/item[%d]/preceding-sibling::item", mid), "preceding-sibling"},
		{"Q6", "//keyword", "descendant axis"},
		{"Q7", fmt.Sprintf("//item[@id = 'item%d']", mid), "point lookup by attribute"},
		{"Q8", "//item[quantity = '5']", "value filter via descendant"},
		{"Q9", "/site/regions/namerica//keyword", "mid-path descendant (ancestry test)"},
	}
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	if t.Note != "" {
		sb.WriteString(t.Note + "\n")
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// timeOp calls fn once untimed, to warm caches and the plan cache, then
// times reps calls one by one and returns the median: a collection or a
// descheduling inside one call moves the mean, not the median.
func timeOp(reps int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	times := make([]time.Duration, reps)
	for i := range times {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start)
	}
	slices.Sort(times)
	return times[len(times)/2], nil
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}
