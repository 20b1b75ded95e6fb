package ordxml

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Buffer-pooled durable-store tests: the paged tier must give the same
// durability answers as the all-RAM tier while storing pages on disk and
// checkpointing incrementally.

func openPaged(t *testing.T, dir string, frames int, enc Encoding) *Store {
	t.Helper()
	s, err := OpenDurable(dir, Options{Encoding: enc, BufferPoolFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPagedDurableRoundTrip(t *testing.T) {
	for _, enc := range []Encoding{Global, Local, Dewey} {
		t.Run(enc.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := openPaged(t, dir, 16, enc)
			if !s.Pooled() {
				t.Fatal("store is not pooled")
			}
			doc, err := s.LoadString("d", "<R><A>alpha</A><B>beta</B><C/></R>")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Insert(doc, 1, LastChild, "<D>delta</D>"); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Post-checkpoint mutations live only in the WAL until reopen.
			if _, err := s.Insert(doc, 1, FirstChild, "<Z>zeta</Z>"); err != nil {
				t.Fatal(err)
			}
			want := fingerprint(t, s)
			mustIntact(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for _, f := range []string{pagesFile, metaFile} {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Fatalf("missing %s after checkpoint: %v", f, err)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
				t.Fatal("paged store wrote a legacy full snapshot")
			}

			r := openPaged(t, dir, 16, enc)
			if got := fingerprint(t, r); got != want {
				t.Fatalf("reopened store diverged:\n got %q\nwant %q", got, want)
			}
			vals, err := r.QueryValues(doc, "/R/Z")
			if err != nil || len(vals) != 1 || vals[0] != "zeta" {
				t.Fatalf("WAL-replayed insert lost: %v, %v", vals, err)
			}
			mustIntact(t, r)
		})
	}
}

func TestPagedRecoveryWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openPaged(t, dir, 16, Dewey)
	doc, err := s.LoadString("d", "<R><A>one</A></R>")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetValue(doc, 3, "two"); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// pages.db exists but no manifest was ever installed: recovery must
	// rebuild everything from the WAL alone.
	if _, err := os.Stat(filepath.Join(dir, metaFile)); err == nil {
		t.Fatal("manifest exists before any checkpoint")
	}
	r := openPaged(t, dir, 16, Dewey)
	if got := fingerprint(t, r); got != want {
		t.Fatalf("WAL-only recovery diverged:\n got %q\nwant %q", got, want)
	}
	mustIntact(t, r)
}

// TestPagedIncrementalCheckpoint is the metrics-verified incrementality
// check: a checkpoint after one tiny update must flush only the handful of
// pages that update dirtied, not the whole store.
func TestPagedIncrementalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openPaged(t, dir, 256, Dewey)
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
	if !s.Pooled() {
		t.Fatal("store is not pooled")
	}
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
	s := openPaged(t, dir, 32, Global)
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
	r := openPaged(t, dir, 32, Global)
	docs, err := r.Documents()
	if err != nil || len(docs) != 0 {
		t.Fatalf("dropped document survived recovery: %v, %v", docs, err)
	}
	mustIntact(t, r)
}
