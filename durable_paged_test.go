package ordxml

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ordxml/internal/wal"
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
// directory written by the retired full-snapshot tier is imported.

func TestPagedDurableRoundTrip(t *testing.T) {
	for _, enc := range []Encoding{Global, Local, Dewey} {
		t.Run(enc.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := openDur(t, dir, Options{Encoding: enc, BufferPoolFrames: 16})
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
			if got := dirNames(t, dir); got != "meta.db pages.db wal.log" {
				t.Fatalf("store directory holds %q", got)
			}

			r := openDur(t, dir, Options{Encoding: enc, BufferPoolFrames: 16})
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
	s := openDur(t, dir, Options{Encoding: Dewey, BufferPoolFrames: 16})
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
	r := openDur(t, dir, Options{Encoding: Dewey, BufferPoolFrames: 16})
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

// TestOpenDurableImportsSnapshotTier opens directories laid out by the
// retired all-RAM tier — a full snapshot.db, with and without a WAL tail
// behind it — and expects a one-time import: the same documents, a clean
// integrity check, pages.db + meta.db in place of snapshot.db, and a plain
// paged open from then on.
func TestOpenDurableImportsSnapshotTier(t *testing.T) {
	// oldTier builds the directory and returns the state recovery must reach.
	oldTier := func(t *testing.T, dir string, withTail bool) string {
		t.Helper()
		mem, err := Open(Options{Encoding: Local, Gap: 4})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := mem.LoadString("hamlet", testDoc)
		if err != nil {
			t.Fatal(err)
		}
		if !withTail {
			if err := mem.SaveFile(filepath.Join(dir, importedSnapshotFile)); err != nil {
				t.Fatal(err)
			}
			return fingerprint(t, mem)
		}
		// A checkpoint at LSN 1 that crashed before rotating the log: record 1
		// (the insert) is inside the snapshot and must not be applied twice,
		// record 2 (the set-value) is the tail and must be.
		const frag, value = "<EPILOGUE>fin</EPILOGUE>", "logged after the snapshot"
		if _, err := mem.Insert(doc, 1, LastChild, frag); err != nil {
			t.Fatal(err)
		}
		if err := mem.writeWALLSN(1); err != nil {
			t.Fatal(err)
		}
		if err := mem.SaveFile(filepath.Join(dir, importedSnapshotFile)); err != nil {
			t.Fatal(err)
		}
		if err := mem.SetValue(doc, 3, value); err != nil {
			t.Fatal(err)
		}
		var ins, set wal.BodyWriter
		ins.Int(doc)
		ins.Int(1)
		ins.String(LastChild.String())
		ins.String(frag)
		set.Int(doc)
		set.Int(3)
		set.String(value)
		lg, err := wal.Open(filepath.Join(dir, walFile), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lg.AppendSync(recInsert, ins.Finish()); err != nil {
			t.Fatal(err)
		}
		if _, err := lg.AppendSync(recSetValue, set.Finish()); err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, mem)
	}
	for _, withTail := range []bool{false, true} {
		name := "snapshot-only"
		if withTail {
			name = "snapshot+wal-tail"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want := oldTier(t, dir, withTail)

			// The snapshot's own encoding wins over the options passed.
			s := openDur(t, dir, Options{Encoding: Dewey, BufferPoolFrames: 8})
			if s.Encoding() != Local {
				t.Fatalf("imported encoding = %v, want Local", s.Encoding())
			}
			if got := fingerprint(t, s); got != want {
				t.Fatalf("imported state differs:\n got %q\nwant %q", got, want)
			}
			mustIntact(t, s)
			wantReplayed := int64(0)
			if withTail {
				wantReplayed = 1
			}
			if n := s.Metrics().Counters["wal.replay.records"]; n != wantReplayed {
				t.Fatalf("import replayed %d records, want %d", n, wantReplayed)
			}
			if got := dirNames(t, dir); got != "meta.db pages.db wal.log" {
				t.Fatalf("directory after import holds %q", got)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// From here on it is a paged store like any other: nothing left to
			// import or replay, and it keeps taking updates and checkpoints.
			r := openDur(t, dir, Options{})
			if got := fingerprint(t, r); got != want {
				t.Fatalf("reopened state differs:\n got %q\nwant %q", got, want)
			}
			if n := r.Metrics().Counters["wal.replay.records"]; n != 0 {
				t.Fatalf("reopen after import replayed %d records", n)
			}
			if err := r.SetValue(1, 3, "after the import"); err != nil {
				t.Fatal(err)
			}
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mustIntact(t, r)
		})
	}
}

// TestOpenDurableFinishesInterruptedImport covers the two crash windows of
// the import: before its checkpoint installed a manifest (pages.db holds
// nothing durable — import again from the snapshot) and after (the manifest
// already contains everything — only the snapshot's removal is left).
func TestOpenDurableFinishesInterruptedImport(t *testing.T) {
	mem, err := Open(Options{Encoding: Dewey})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.LoadString("hamlet", testDoc); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, mem)
	snapshot := func(t *testing.T, dir string) {
		t.Helper()
		if err := mem.SaveFile(filepath.Join(dir, importedSnapshotFile)); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("before-manifest", func(t *testing.T) {
		dir := t.TempDir()
		snapshot(t, dir)
		// A page file with garbage in it and no manifest beside it.
		if err := os.WriteFile(filepath.Join(dir, pagesFile), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		s := openDur(t, dir, Options{})
		if got := fingerprint(t, s); got != want {
			t.Fatalf("re-imported state differs:\n got %q\nwant %q", got, want)
		}
		if got := dirNames(t, dir); got != "meta.db pages.db wal.log" {
			t.Fatalf("directory holds %q", got)
		}
	})
	t.Run("after-manifest", func(t *testing.T) {
		dir := t.TempDir()
		snapshot(t, dir)
		s := openDur(t, dir, Options{})
		if err := s.SetValue(1, 3, "newer than the snapshot"); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		newer := fingerprint(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// The stale snapshot reappears, as if its removal had not happened.
		snapshot(t, dir)
		r := openDur(t, dir, Options{})
		if got := fingerprint(t, r); got != newer {
			t.Fatalf("stale snapshot won over the manifest:\n got %q\nwant %q", got, newer)
		}
		if got := dirNames(t, dir); got != "meta.db pages.db wal.log" {
			t.Fatalf("directory holds %q", got)
		}
	})
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
