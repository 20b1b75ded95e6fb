package ordxml_test

import (
	"testing"

	"ordxml"
	"ordxml/internal/xmlgen"
)

// TestScalePaged runs a beyond-RAM version of the scale workload: the same
// ~50k-node document is loaded into a durable store whose buffer pool holds
// only 64 frames (512 KiB), a small fraction of the data, so the pool must
// evict throughout. Queries, incremental checkpoints, the on-disk CRC sweep
// and a close/reopen all have to work while most pages live only on disk.
func TestScalePaged(t *testing.T) {
	if testing.Short() {
		t.Skip("large-document test")
	}
	doc := xmlgen.Play(xmlgen.PlayConfig{
		Acts: 12, ScenesPerAct: 12, SpeechesPerScene: 24, LinesPerSpeech: 6, Seed: 9,
	})
	xml := doc.String()
	nodes := doc.Size()
	const frames = 64
	for _, enc := range []ordxml.Encoding{ordxml.Global, ordxml.Local, ordxml.Dewey} {
		t.Run(enc.String(), func(t *testing.T) {
			dir := t.TempDir()
			store, err := ordxml.OpenDurable(dir, ordxml.Options{
				Encoding: enc, Gap: 4, BufferPoolFrames: frames,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			id, err := store.LoadString("big", xml)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			st := store.Storage()
			if st.Rows != nodes {
				t.Errorf("storage = %+v, want %d rows", st, nodes)
			}
			if st.HeapPages < 3*frames {
				t.Fatalf("workload not beyond-RAM: %d heap pages vs %d pool frames",
					st.HeapPages, frames)
			}
			pool := func() map[string]int64 { return store.Metrics().Gauges }
			ps := pool()
			// The load left every frame dirty and a reader never evicts a
			// dirty frame, so Storage's page read above may sit on the surplus
			// list — one frame over until the next fault or flush, no more.
			if ps["bufpool.resident_frames"] > ps["bufpool.capacity"]+1 {
				t.Fatalf("resident frames %d exceed pool capacity %d by more than the reader's surplus frame",
					ps["bufpool.resident_frames"], ps["bufpool.capacity"])
			}
			if ps["bufpool.evictions"] == 0 {
				t.Fatal("no evictions despite beyond-RAM load")
			}

			// First checkpoint writes the whole store; a checkpoint after one
			// point update must flush only a sliver of that.
			if err := store.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			full := pool()["bufpool.dirty_flushes"]
			hits, err := store.Query(id, "/PLAY/ACT[5]/SCENE[5]/SPEECH[10]/SPEAKER")
			if err != nil || len(hits) != 1 {
				t.Fatalf("target: %v, %v", hits, err)
			}
			if err := store.Rename(id, hits[0].ID, "PROBE"); err != nil {
				t.Fatal(err)
			}
			if err := store.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if delta := pool()["bufpool.dirty_flushes"] - full; delta == 0 || delta > full/4 {
				t.Fatalf("incremental checkpoint flushed %d of %d pages", delta, full)
			}

			// Queries against the mostly-on-disk store.
			vals, err := store.QueryValues(id, "/PLAY/ACT[7]/SCENE[3]/SPEECH[11]/SPEAKER")
			if err != nil || len(vals) != 1 {
				t.Fatalf("deep query: %v, %v", vals, err)
			}
			lines, err := store.Query(id, "//LINE")
			if err != nil {
				t.Fatal(err)
			}
			if want := 12 * 12 * 24 * 6; len(lines) != want {
				t.Errorf("//LINE = %d, want %d", len(lines), want)
			}
			ps = pool()
			if ps["bufpool.resident_frames"] > ps["bufpool.capacity"] {
				t.Fatalf("resident frames %d exceed pool capacity %d after scan", ps["bufpool.resident_frames"], ps["bufpool.capacity"])
			}

			// Deep integrity check includes the on-disk page CRC sweep.
			problems, err := store.CheckIntegrity()
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) > 0 {
				t.Fatalf("integrity: %v", problems)
			}

			// Reopen from disk and spot-check the update survived.
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			back, err := ordxml.OpenDurable(dir, ordxml.Options{
				Encoding: enc, BufferPoolFrames: frames,
			})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer back.Close()
			probe, err := back.Query(id, "/PLAY/ACT[5]/SCENE[5]/SPEECH[10]/PROBE")
			if err != nil || len(probe) != 1 {
				t.Fatalf("update lost after reopen: %v, %v", probe, err)
			}
		})
	}
}

// TestScale loads a ~50k-node document into every encoding and exercises
// queries, updates and reconstruction at a size past any page/split
// boundaries the small tests reach.
func TestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-document test")
	}
	doc := xmlgen.Play(xmlgen.PlayConfig{
		Acts: 12, ScenesPerAct: 12, SpeechesPerScene: 24, LinesPerSpeech: 6, Seed: 9,
	})
	xml := doc.String()
	nodes := doc.Size()
	if nodes < 40000 {
		t.Fatalf("workload too small: %d nodes", nodes)
	}
	for _, enc := range []ordxml.Encoding{ordxml.Global, ordxml.Local, ordxml.Dewey} {
		store, err := ordxml.Open(ordxml.Options{Encoding: enc, Gap: 4})
		if err != nil {
			t.Fatal(err)
		}
		id, err := store.LoadString("big", xml)
		if err != nil {
			t.Fatalf("%s: load: %v", enc, err)
		}
		if st := store.Storage(); st.Rows != nodes || st.HeapPages < 100 {
			t.Errorf("%s: storage = %+v, want %d rows across many pages", enc, st, nodes)
		}
		// Deep positional query.
		vals, err := store.QueryValues(id, "/PLAY/ACT[7]/SCENE[3]/SPEECH[11]/SPEAKER")
		if err != nil || len(vals) != 1 {
			t.Fatalf("%s: deep query: %v, %v", enc, vals, err)
		}
		// Wide descendant query.
		lines, err := store.Query(id, "//LINE")
		if err != nil {
			t.Fatal(err)
		}
		if want := 12 * 12 * 24 * 6; len(lines) != want {
			t.Errorf("%s: //LINE = %d, want %d", enc, len(lines), want)
		}
		// Update in the middle, then verify placement.
		hits, err := store.Query(id, "/PLAY/ACT[5]/SCENE[5]/SPEECH[10]")
		if err != nil || len(hits) != 1 {
			t.Fatalf("%s: target: %v", enc, err)
		}
		if _, err := store.Insert(id, hits[0].ID, ordxml.After,
			"<SPEECH><SPEAKER>PROBE</SPEAKER><LINE>marker</LINE></SPEECH>"); err != nil {
			t.Fatalf("%s: insert: %v", enc, err)
		}
		speakers, err := store.QueryValues(id, "/PLAY/ACT[5]/SCENE[5]/SPEECH[11]/SPEAKER")
		if err != nil || len(speakers) != 1 || speakers[0] != "PROBE" {
			t.Fatalf("%s: probe not at position 11: %v, %v", enc, speakers, err)
		}
		// Subtree reconstruction of a full act.
		acts, err := store.Query(id, "/PLAY/ACT[2]")
		if err != nil || len(acts) != 1 {
			t.Fatal(err)
		}
		actXML, err := store.Serialize(id, acts[0].ID)
		if err != nil {
			t.Fatalf("%s: serialize: %v", enc, err)
		}
		if len(actXML) < 10000 {
			t.Errorf("%s: act serialization suspiciously small: %d bytes", enc, len(actXML))
		}
	}
}
