package ordxml_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ordxml"
)

// catalogueRow matches one row of README's "Metric catalogue" table:
// | `name` | kind[, cumulative] | unit | what moves it |
var catalogueRow = regexp.MustCompile("^\\| `([a-z_.]+)` \\| (counter|gauge|histogram)[ ,|]")

// readCatalogue returns the documented metric names with their kinds.
func readCatalogue(t *testing.T) map[string]string {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(readme), "\n### Metric catalogue\n")
	if !found {
		t.Fatal(`README.md has no "### Metric catalogue" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	doc := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if m := catalogueRow.FindStringSubmatch(line); m != nil {
			doc[m[1]] = m[2]
		}
	}
	return doc
}

// TestMetricCatalogue holds README's metric catalogue to what a store
// publishes: a pooled durable store with an admission gate, after a load, a
// query, a mutation, a checkpoint and an integrity check, carries every
// conditional family (bufpool.*, wal.*, admission.*, integrity.*). A name
// published but undocumented, documented but unpublished, or documented
// under the wrong kind fails.
func TestMetricCatalogue(t *testing.T) {
	s, err := ordxml.OpenDurable(t.TempDir(), ordxml.Options{Encoding: ordxml.Dewey, BufferPoolFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetAdmissionLimit(4, 4, time.Second)
	doc, err := s.LoadString("d", "<a><b>x</b><b>y</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(doc, "//b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(doc, 1, ordxml.LastChild, "<c/>"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	m := s.Metrics()
	published := map[string]string{}
	for n := range m.Counters {
		published[n] = "counter"
	}
	for n := range m.Gauges {
		published[n] = "gauge"
	}
	for n := range m.Histograms {
		published[n] = "histogram"
	}
	documented := readCatalogue(t)
	for n, kind := range published {
		switch got, ok := documented[n]; {
		case !ok:
			t.Errorf("Metrics() publishes %s %q, which README's metric catalogue lacks", kind, n)
		case got != kind:
			t.Errorf("%q is a %s, README's metric catalogue says %s", n, kind, got)
		}
	}
	for n := range documented {
		if _, ok := published[n]; !ok {
			t.Errorf("README's metric catalogue lists %q, which nothing publishes", n)
		}
	}

	// The names benchmark/cycle.go reads; it reads a missing name as zero,
	// so a rename would silently flatten a per-layer metric.
	for _, n := range []string{
		"sqldb.queries", "sqldb.plancache.hits", "sqldb.plancache.misses",
		"storage.index_probes", "storage.rows_scanned",
		"storage.btree.node_reads", "storage.heap.page_reads",
		"bufpool.hits", "bufpool.misses", "bufpool.evictions", "bufpool.dirty_flushes",
		"wal.append.bytes", "wal.fsyncs", "wal.fsync.latency",
	} {
		if _, ok := published[n]; !ok {
			t.Errorf("ordbench reads %q, which the store no longer publishes", n)
		}
	}
}
