package ordxml

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ordxml/internal/xmlgen"
)

// dirNames lists dir's entries, sorted and space-separated.
func dirNames(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return strings.Join(names, " ")
}

// Page-level durable-store tests: what lands in the store directory, that
// checkpoints are incremental, that dropped pages recycle, and that a
// directory the store cannot recover from is refused.

// TestPagedIncrementalCheckpoint is the metrics-verified incrementality
// check: a checkpoint after one tiny update must flush only the handful of
// pages that update dirtied, not the whole store.
func TestPagedIncrementalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openDur(t, dir, Options{Encoding: Dewey, BufferPoolFrames: 256})
	var b strings.Builder
	b.WriteString("<R>")
	for i := 0; i < 400; i++ {
		b.WriteString("<ITEM>some padding text to fill heap pages with data</ITEM>")
	}
	b.WriteString("</R>")
	doc, err := s.LoadString("d", b.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	flushes := func() int64 { return s.Metrics().Gauges["bufpool.dirty_flushes"] }
	full := flushes()
	if full < 20 {
		t.Fatalf("first checkpoint flushed only %d pages; workload too small", full)
	}

	// One point update, then checkpoint again: the flush delta must be a
	// short page path, not the store.
	if err := s.SetValue(doc, 3, "updated"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	delta := flushes() - full
	if delta == 0 {
		t.Fatal("second checkpoint flushed nothing (update lost?)")
	}
	if delta > full/4 || delta > 64 {
		t.Fatalf("incremental checkpoint flushed %d pages after one update (first flushed %d)", delta, full)
	}

	// An idle checkpoint flushes nothing at all.
	before := flushes()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// writeWALLSN itself dirties the store_meta heap page, so allow the
	// couple of pages that bookkeeping touches.
	if idle := flushes() - before; idle > 8 {
		t.Fatalf("idle checkpoint flushed %d pages", idle)
	}
	mustIntact(t, s)
}

// TestPagedDropReleasesPages checks that dropping a document keeps the store
// checkpointable and intact (superseded pages recycle through the pool's
// shadow-paging free list).
func TestPagedDropReleasesPages(t *testing.T) {
	dir := t.TempDir()
	s := openDur(t, dir, Options{Encoding: Global, BufferPoolFrames: 32})
	doc, err := s.LoadString("d", "<R><A>x</A><B>y</B></R>")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop(doc); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustIntact(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDur(t, dir, Options{Encoding: Global, BufferPoolFrames: 32})
	docs, err := r.Documents()
	if err != nil || len(docs) != 0 {
		t.Fatalf("dropped document survived recovery: %v, %v", docs, err)
	}
	mustIntact(t, r)
}

// TestOpenDurableRefusesSnapshotFile: a directory from the retired
// full-snapshot tier (snapshot.db and a log, no manifest) is refused with an
// error naming the file — neither imported nor opened as an empty store —
// and left as it was.
func TestOpenDurableRefusesSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.db", walFile} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old tier"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenDurable(dir, Options{})
	if err == nil {
		s.Close()
		t.Fatal("OpenDurable opened a snapshot.db directory")
	}
	if !strings.Contains(err.Error(), "snapshot.db") {
		t.Fatalf("error does not name the snapshot file: %v", err)
	}
	if got := dirNames(t, dir); got != "snapshot.db wal.log" {
		t.Fatalf("refused directory now holds %q", got)
	}
}

// TestPagedRepeatedQueryHitsPool is the store-level check that the pool
// caches: on the query_paged shape — an 8,430-node catalog in a 256-frame
// store, checkpointed — the descendant query //keyword run a second time
// must read the page file not once, and every heap page it reads must be a
// pool hit. (Index nodes were materialized by the load and touch no page.)
func TestPagedRepeatedQueryHitsPool(t *testing.T) {
	xml := xmlgen.Catalog(xmlgen.CatalogConfig{
		Regions: 3, ItemsPerRegion: 200, KeywordsPerItem: 2, DescriptionWords: 8, Seed: 42,
	}).String()
	for _, enc := range []Encoding{Global, Local, Dewey} {
		t.Run(enc.String(), func(t *testing.T) {
			s := openDur(t, t.TempDir(), Options{Encoding: enc, BufferPoolFrames: 256})
			doc, err := s.LoadString("catalog", xml)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			q6 := func() map[string]int64 {
				before := s.Metrics().Gauges
				hits, err := s.Query(doc, "//keyword")
				if err != nil || len(hits) != 3*200*2 {
					t.Fatalf("//keyword = %d nodes, %v", len(hits), err)
				}
				delta := s.Metrics().Gauges
				for k, v := range before {
					delta[k] -= v
				}
				return delta
			}
			q6()
			d := q6()
			if d["bufpool.misses"] != 0 || d["bufpool.hits"] == 0 || d["bufpool.hits"] != d["storage.heap.page_reads"] {
				t.Fatalf("second //keyword: %d pool misses, %d pool hits, %d heap page reads; want 0 misses and hits = reads > 0",
					d["bufpool.misses"], d["bufpool.hits"], d["storage.heap.page_reads"])
			}
		})
	}
}
