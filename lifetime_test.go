package ordxml

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"ordxml/internal/xmlgen"
)

// Page lifetimes: page ids belong to the writer and page memory to the
// collector. The model harness's gc plug-in holds every answer to the oracle
// at GOGC=1; these tests check what it cannot see — that a closed store is
// collected, and that the collector never changes what a checkpoint writes.

// TestClosedDurableStoreIsCollected: a closed durable store must leave
// nothing reachable. Five open → load → checkpoint → close cycles may not
// grow the live heap by more than 1 MB over the first.
func TestClosedDurableStoreIsCollected(t *testing.T) {
	xml := xmlgen.Catalog(xmlgen.CatalogConfig{
		Regions: 3, ItemsPerRegion: 100, KeywordsPerItem: 2, DescriptionWords: 8, Seed: 42,
	}).String()
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var first uint64
	for cycle := 0; cycle < 5; cycle++ {
		s, err := OpenDurable(filepath.Join(t.TempDir(), "store"), Options{Encoding: Global})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadString("catalog", xml); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = nil
		heap := live()
		if cycle == 0 {
			first = heap
			continue
		}
		if heap > first+1<<20 {
			t.Fatalf("cycle %d: live heap %.2f MB, %.2f MB above cycle 0: closed stores stay reachable",
				cycle, float64(heap)/(1<<20), float64(heap-first)/(1<<20))
		}
	}
}

// TestCheckpointManifestDeterministic: page ids are allocated and freed by
// the writer alone, so one seeded session writes the same manifest whatever
// the collector does — here, with the collector off in one directory and a
// collection after every operation in the other.
func TestCheckpointManifestDeterministic(t *testing.T) {
	var ops []modelOp
	for _, op := range modelSession(5, 60) {
		if op.Kind != "reopen" && op.Kind != "abandon" {
			ops = append(ops, op)
		}
	}
	ops = append(ops, modelOp{Kind: "checkpoint"})
	manifest := func(fault string) []byte {
		dir := t.TempDir()
		if err := newModelRun(modelConfigNamed("global/pool=8"), fault, dir, 5, len(ops)).session(ops); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, metaFile))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	old := debug.SetGCPercent(-1)
	off := manifest("none")
	debug.SetGCPercent(old)
	if every := manifest("gc"); !bytes.Equal(off, every) {
		t.Fatalf("the same session wrote different manifests: %d bytes with the collector off, %d with a collection per operation",
			len(off), len(every))
	}
}
