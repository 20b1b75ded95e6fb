package ordxml

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ordxml/internal/vfs"
	"ordxml/internal/xmlgen"
)

// openDur opens a durable store in dir, failing the test on error. The store
// is closed when the test ends; tests that reopen the directory close it
// themselves first (Close is idempotent).
func openDur(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	return openDurFS(t, vfs.OS, dir, opts)
}

// openDurFS is openDur on fsys.
func openDurFS(t *testing.T, fsys vfs.FS, dir string, opts Options) *Store {
	t.Helper()
	s, err := openDurable(fsys, dir, opts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// eachPool runs fn as two sub-tests, on Dewey stores with the smallest pool
// (8 frames: every test document evicts constantly, so recovery reads pages
// back from disk) and with the default one (nothing is ever evicted).
func eachPool(t *testing.T, fn func(t *testing.T, opts Options)) {
	for _, frames := range []int{8, 0} {
		opts := Options{Encoding: Dewey, BufferPoolFrames: frames}
		name := fmt.Sprintf("pool=%d", frames)
		if frames == 0 {
			name = "pool=default"
		}
		t.Run(name, func(t *testing.T) { fn(t, opts) })
	}
}

// durableLSN is the highest fsynced LSN: the assigned horizon minus the lag
// the log reports behind it.
func durableLSN(s *Store) int64 {
	g := s.Metrics().Gauges
	return g["wal.last_lsn"] - g["wal.durable_lag"]
}

// fingerprint serializes every stored document into one comparable string.
func fingerprint(t *testing.T, s *Store) string {
	t.Helper()
	docs, err := s.Documents()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, d := range docs {
		xml, err := s.SerializeDocument(d.ID)
		if err != nil {
			t.Fatalf("serialize doc %d: %v", d.ID, err)
		}
		fmt.Fprintf(&sb, "%d:%s:%s\n", d.ID, d.Name, xml)
	}
	return sb.String()
}

// mustIntact fails the test when the store has integrity violations.
func mustIntact(t *testing.T, s *Store) {
	t.Helper()
	problems, err := s.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("integrity violations: %v", problems)
	}
}

func TestOpenDurableFreshEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	s := openDur(t, dir, Options{})
	if !s.Durable() {
		t.Fatal("store not durable")
	}
	// Zero options still page through a pool: the default-sized one.
	if got := dirNames(t, dir); got != "pages.db wal.log" {
		t.Fatalf("fresh store directory holds %q", got)
	}
	if c := s.Metrics().Gauges["bufpool.capacity"]; c != DefaultPoolFrames {
		t.Fatalf("bufpool.capacity = %d, want %d", c, DefaultPoolFrames)
	}
	if lsn, ok := s.Metrics().Gauges["wal.last_lsn"]; !ok || lsn != 0 {
		t.Fatalf("fresh wal.last_lsn = %d, published %v", lsn, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with an empty WAL and no checkpoint.
	s = openDur(t, dir, Options{})
	docs, err := s.Documents()
	if err != nil || len(docs) != 0 {
		t.Fatalf("documents = %v, %v", docs, err)
	}
}

// TestDurableExecReplays: raw DML through the logged escape hatch replays
// on recovery. (The XPath-level mutation kinds replay under the model
// harness's durable configurations.)
func TestDurableExecReplays(t *testing.T) {
	eachPool(t, func(t *testing.T, opts Options) {
		dir := t.TempDir()
		s := openDur(t, dir, opts)
		if n, err := s.Exec(`INSERT INTO store_meta VALUES (?, ?)`, "test_marker", "survived"); err != nil || n != 1 {
			t.Fatalf("exec: n=%d err=%v", n, err)
		}
		s.Close()

		s = openDur(t, dir, opts)
		rows, err := s.SQL(`SELECT v FROM store_meta WHERE k = ?`, "test_marker")
		if err != nil || len(rows.Values) != 1 || rows.Values[0][0] != "survived" {
			t.Fatalf("exec record not replayed: %v, %v", rows, err)
		}
		mustIntact(t, s)
	})
}

func TestDurableConcurrentMutations(t *testing.T) {
	eachPool(t, func(t *testing.T, opts Options) {
		dir := t.TempDir()
		s := openDur(t, dir, opts)
		const writers, per = 4, 8
		docs := make([]DocID, writers)
		for i := range docs {
			var err error
			if docs[i], err = s.LoadString(fmt.Sprintf("doc-%d", i), "<R><A>seed</A></R>"); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				doc := docs[w]
				hits, err := s.Query(doc, "/R/A")
				if err != nil || len(hits) != 1 {
					errs <- fmt.Errorf("writer %d: query: %v, %v", w, hits, err)
					return
				}
				for i := 0; i < per; i++ {
					if _, err := s.Insert(doc, hits[0].ID, After, fmt.Sprintf("<B n=%q/>", fmt.Sprint(i))); err != nil {
						errs <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		want := fingerprint(t, s)
		wantRecs := int64(writers*per + writers)
		if recs, lsn := s.Metrics().Counters["wal.appends"], durableLSN(s); recs != wantRecs || lsn != wantRecs {
			t.Fatalf("wal.appends = %d, durable LSN = %d, want %d records", recs, lsn, wantRecs)
		}
		s.Close()

		s = openDur(t, dir, opts)
		defer s.Close()
		if got := fingerprint(t, s); got != want {
			t.Fatalf("recovered state differs:\n got %q\nwant %q", got, want)
		}
		mustIntact(t, s)
	})
}

// TestMemoryConcurrentMutations: a memory store's mutations serialize on the
// same writer lock as a durable store's. Concurrent loads each take their
// own document id, and concurrent inserts into one document their own node
// ids; both read the highest stored id and then write, which only the lock
// keeps apart.
func TestMemoryConcurrentMutations(t *testing.T) {
	xml := xmlgen.Catalog(xmlgen.CatalogConfig{Regions: 3, ItemsPerRegion: 100, KeywordsPerItem: 2, DescriptionWords: 8, Seed: 42}).String()
	for _, enc := range []Encoding{Global, Local, Dewey} {
		t.Run(enc.String(), func(t *testing.T) {
			s, err := Open(Options{Encoding: enc})
			if err != nil {
				t.Fatal(err)
			}
			const loaders, inserters = 4, 8
			concurrently := func(n int, call func(i int) error) {
				t.Helper()
				errs := make([]error, n)
				var wg sync.WaitGroup
				for i := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = call(i)
					}()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
			}
			docs := make([]DocID, loaders)
			concurrently(loaders, func(i int) (err error) {
				docs[i], err = s.LoadString(fmt.Sprintf("doc-%d", i), xml)
				return err
			})
			if listed, err := s.Documents(); err != nil || len(listed) != loaders {
				t.Fatalf("Documents = %v, %v; want %d", listed, err, loaders)
			}
			concurrently(inserters, func(int) error {
				_, err := s.Insert(docs[0], 1, LastChild, "<b><c/></b>")
				return err
			})
			if hits, err := s.Query(docs[0], "/site/b/c"); err != nil || len(hits) != inserters {
				t.Fatalf("/site/b/c: %d matches, %v; want %d", len(hits), err, inserters)
			}
			for _, doc := range docs[1:] {
				if got, err := s.SerializeDocument(doc); err != nil || got != xml {
					t.Fatalf("document %d does not serialize back to its text: %v", doc, err)
				}
			}
			mustIntact(t, s)
		})
	}
}

// TestDurableClosedStore pins the Close contract: closing twice is a no-op,
// and every other call on a closed store fails with ErrClosed without
// touching the released log and page file — in particular without degrading
// the store, which a write to the closed log would.
func TestDurableClosedStore(t *testing.T) {
	type call struct {
		name string
		call func(s *Store, doc DocID) error
	}
	calls := []call{
		{"Close", func(s *Store, _ DocID) error { return s.Close() }},
		{"Load", func(s *Store, _ DocID) error { _, err := s.LoadString("late", "<R/>"); return err }},
		{"Insert", func(s *Store, doc DocID) error { _, err := s.Insert(doc, 1, LastChild, "<X/>"); return err }},
		{"Delete", func(s *Store, doc DocID) error { _, err := s.Delete(doc, 2); return err }},
		{"SetValue", func(s *Store, doc DocID) error { return s.SetValue(doc, 3, "late") }},
		{"Rename", func(s *Store, doc DocID) error { return s.Rename(doc, 1, "LATE") }},
		{"Move", func(s *Store, doc DocID) error { _, err := s.Move(doc, 2, 1, LastChild); return err }},
		{"Drop", func(s *Store, doc DocID) error { return s.Drop(doc) }},
		{"Exec", func(s *Store, _ DocID) error {
			_, err := s.Exec(`DELETE FROM store_meta WHERE k = ?`, "nope")
			return err
		}},
		{"Checkpoint", func(s *Store, _ DocID) error { return s.Checkpoint() }},
		{"Query", func(s *Store, doc DocID) error { _, err := s.Query(doc, "/PLAY/TITLE"); return err }},
		{"QueryValues", func(s *Store, doc DocID) error { _, err := s.QueryValues(doc, "/PLAY/TITLE"); return err }},
		{"Serialize", func(s *Store, doc DocID) error { _, err := s.SerializeDocument(doc); return err }},
		{"SQL", func(s *Store, _ DocID) error { _, err := s.SQL(`SELECT k FROM store_meta`); return err }},
		{"Documents", func(s *Store, _ DocID) error { _, err := s.Documents(); return err }},
		{"CheckIntegrity", func(s *Store, _ DocID) error { _, err := s.CheckIntegrity(); return err }},
	}
	// Each call runs as the first thing after Close, and again after every
	// other call has had its turn against the closed store.
	for _, first := range calls {
		t.Run(first.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Encoding: Dewey, BufferPoolFrames: 8}
			s := openDur(t, dir, opts)
			doc, err := s.LoadString("hamlet", testDoc)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for _, c := range append([]call{first}, calls...) {
				err := c.call(s, doc)
				if c.name == "Close" {
					if err != nil {
						t.Fatalf("Close on a closed store: %v", err)
					}
				} else if !errors.Is(err, ErrClosed) {
					t.Fatalf("%s on a closed store: %v, want ErrClosed", c.name, err)
				}
			}
			if ok, cause := s.Degraded(); ok {
				t.Fatalf("use after close degraded the store: %s", cause)
			}
			// Nothing reached the files: the directory reopens to the state
			// it was closed in.
			r := openDur(t, dir, opts)
			if got := fingerprint(t, r); got != want {
				t.Fatalf("state after use-after-close differs:\n got %q\nwant %q", got, want)
			}
			if n := r.Metrics().Counters["wal.replay.records"]; n != 1 {
				t.Fatalf("replayed %d records, want the 1 load", n)
			}
		})
	}
}

func TestMemoryStoreHasNoDurability(t *testing.T) {
	s, err := Open(Options{Encoding: Global})
	if err != nil {
		t.Fatal(err)
	}
	if s.Durable() {
		t.Fatal("memory store claims durability")
	}
	if _, ok := s.Metrics().Counters["wal.appends"]; ok {
		t.Fatal("memory store publishes wal.* metrics")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a memory store should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close on a memory store: %v", err)
	}
}

// reopenConfigs are the encoding options a checkpointed store must keep
// across a close and reopen.
var reopenConfigs = []struct {
	name string
	opts Options
}{
	{"global", Options{Encoding: Global}},
	{"local-gap8", Options{Encoding: Local, Gap: 8}},
	{"dewey", Options{Encoding: Dewey}},
	{"dewey-text", Options{Encoding: Dewey, DeweyAsText: true}},
}

// checkpointAndReopen checkpoints s, closes it and reopens dir with options
// that match none of reopenConfigs: the reopened store must run on the
// options it was created with, which the checkpoint recorded.
func checkpointAndReopen(t *testing.T, dir string, s *Store) *Store {
	t.Helper()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDur(t, dir, Options{Encoding: Local, Gap: 3})
	if r.opts.Kind != s.opts.Kind || r.opts.EffectiveGap() != s.opts.EffectiveGap() ||
		r.opts.DeweyAsText != s.opts.DeweyAsText {
		t.Fatalf("options after reopen = %+v, want %+v", r.opts, s.opts)
	}
	return r
}

// TestDurableReopenKeepsEncodingOptions: mismatched options on reopen are
// ignored — the encoding, gap and Dewey representation of the checkpoint win.
func TestDurableReopenKeepsEncodingOptions(t *testing.T) {
	for _, tc := range reopenConfigs {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openDur(t, dir, tc.opts)
			if _, err := s.LoadString("d", "<R/>"); err != nil {
				t.Fatal(err)
			}
			checkpointAndReopen(t, dir, s)
		})
	}
}

// TestSnapshotRandomDocuments: random documents (xmlgen seeds 0-5) survive a
// checkpoint and reopen byte-identically under every encoding configuration.
func TestSnapshotRandomDocuments(t *testing.T) {
	for _, tc := range reopenConfigs {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openDur(t, dir, tc.opts)
			for seed := int64(0); seed < 6; seed++ {
				xml := xmlgen.Random(xmlgen.DefaultRandom(seed)).String()
				if _, err := s.LoadString(fmt.Sprintf("random%d", seed), xml); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			want := fingerprint(t, s)
			r := checkpointAndReopen(t, dir, s)
			if got := fingerprint(t, r); got != want {
				t.Fatalf("reopened random documents diverged:\n got %q\nwant %q", got, want)
			}
			mustIntact(t, r)
		})
	}
}

// TestSnapshotFile: a checkpointed store is exactly its three files, and the
// reopened store keeps its gap — an insert between siblings takes a free key
// instead of renumbering.
func TestSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	s := openDur(t, dir, Options{Encoding: Dewey, Gap: 4})
	doc, err := s.LoadString("d", "<a><b>x</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	r := checkpointAndReopen(t, dir, s)
	if got := dirNames(t, dir); got != "meta.db pages.db wal.log" {
		t.Fatalf("store directory holds %q", got)
	}
	vals, err := r.QueryValues(doc, "/a/b")
	if err != nil || len(vals) != 1 || vals[0] != "x" {
		t.Fatalf("reopened query = %v, %v", vals, err)
	}
	hits, err := r.Query(doc, "/a/b")
	if err != nil || len(hits) != 1 {
		t.Fatalf("/a/b = %v, %v", hits, err)
	}
	rep, err := r.Insert(doc, hits[0].ID, Before, "<c/>")
	if err != nil || rep.RowsRenumbered != 0 {
		t.Fatalf("gap lost across reopen: %+v, %v", rep, err)
	}
}

// TestSnapshotErrors: a store whose checkpoint manifest is junk, empty or
// truncated is refused, as is a directory that cannot be created.
func TestSnapshotErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(meta []byte) []byte
	}{
		{"junk", func([]byte) []byte { return []byte("junk data") }},
		{"empty", func([]byte) []byte { return nil }},
		{"truncated", func(meta []byte) []byte { return meta[:len(meta)/2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openDur(t, dir, Options{Encoding: Global})
			if _, err := s.LoadString("d", "<a/>"); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, metaFile)
			meta, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(meta), 0o644); err != nil {
				t.Fatal(err)
			}
			if r, err := OpenDurable(dir, Options{}); err == nil {
				r.Close()
				t.Fatalf("store with a %s manifest opened", tc.name)
			}
		})
	}
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := OpenDurable(filepath.Join(notDir, "store"), Options{}); err == nil {
		r.Close()
		t.Fatal("store under a regular file opened")
	}
}
