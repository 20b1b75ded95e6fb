package ordxml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"ordxml/internal/xmlgen"
)

// Page-lifetime harness. A durable store and a memory store receive one
// seeded session of operations in lock-step — updates, queries, checkpoints,
// close and reopen, abandoning the store without Close and reopening, forced
// collections — with the collector running at GOGC=1. Page ids belong to the
// writer, not the collector, so no collection timing may change what the
// durable store answers, what it writes, or which page ids it owns: after
// every step its documents and query answers must equal the memory store's,
// and after every checkpoint and reopen the deep integrity check (on-disk
// checksums and page-id ownership included) must be clean.

// lifetimeXPaths are the queries a "query" step compares.
var lifetimeXPaths = []string{
	"//item/name",
	"//keyword",
	"/site/regions/*/item[2]/name",
	"//item[last()]",
	"//description//keyword",
}

// lifetimeDoc is the session's document: a small catalog whose pages do not
// fit an 8-frame pool, so that pool evicts and faults throughout.
func lifetimeDoc(seed int64) string {
	return xmlgen.Catalog(xmlgen.CatalogConfig{
		Regions: 2, ItemsPerRegion: 20, KeywordsPerItem: 1, DescriptionWords: 4, Seed: seed,
	}).String()
}

// lifetimeSession generates n seeded operations by simulating them against a
// memory store (node ids are deterministic, so the ids it resolves are every
// store's). Besides the update kinds applyTortureOp runs, a session holds
// "query" (Value is the XPath), "reopen", "abandon" and "gc".
func lifetimeSession(t *testing.T, enc Encoding, seed int64, n int) []tortureOp {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sim, err := Open(Options{Encoding: enc})
	if err != nil {
		t.Fatal(err)
	}
	ops := []tortureOp{{Kind: "load", Name: "catalog", XML: lifetimeDoc(seed)}}
	rep, err := applyTortureOp(sim, ops[0])
	if err != nil {
		t.Fatal(err)
	}
	doc := rep.NewID
	all, err := sim.Query(doc, "//*")
	if err != nil {
		t.Fatal(err)
	}
	var elems []int64
	for _, nd := range all {
		elems = append(elems, nd.ID)
	}
	modes := []Position{FirstChild, LastChild, Before, After}
	pick := func() int64 { return elems[rng.Intn(len(elems))] }
	// The document element (first in document order) is never deleted or
	// moved, so the session keeps a document to work on.
	below := func() int64 { return elems[1+rng.Intn(len(elems)-1)] }
	for i := 1; i < n; i++ {
		var op tortureOp
		switch w := rng.Intn(100); {
		case w < 25:
			op = tortureOp{Kind: "insert", Doc: doc, Target: pick(),
				Mode: modes[rng.Intn(len(modes))].String(), XML: fmt.Sprintf("<E%d>t%d</E%d>", i, i, i)}
		case w < 35:
			op = tortureOp{Kind: "delete", Doc: doc, ID: below()}
		case w < 45:
			op = tortureOp{Kind: "move", Doc: doc, ID: below(), Target: pick(),
				Mode: modes[rng.Intn(len(modes))].String()}
		case w < 55:
			// The text child of an element is allocated right after it; when
			// this id is not a text node the op fails on both stores alike.
			op = tortureOp{Kind: "setvalue", Doc: doc, ID: pick() + 1, Value: fmt.Sprintf("v%d", i)}
		case w < 70:
			op = tortureOp{Kind: "query", Doc: doc, Value: lifetimeXPaths[rng.Intn(len(lifetimeXPaths))]}
		case w < 80:
			op = tortureOp{Kind: "checkpoint"}
		case w < 87:
			op = tortureOp{Kind: "reopen"}
		case w < 93:
			op = tortureOp{Kind: "abandon"}
		default:
			op = tortureOp{Kind: "gc"}
		}
		if rep, err := applyTortureOp(sim, op); err == nil && rep.NewID != 0 {
			elems = append(elems, rep.NewID)
		}
		ops = append(ops, op)
	}
	return ops
}

// lifetimeRun replays a session against dir (a durable store with opts) and a
// memory store in lock-step.
func lifetimeRun(t *testing.T, dir string, opts Options, seed int64, ops []tortureOp) {
	t.Helper()
	mem, err := Open(Options{Encoding: opts.Encoding})
	if err != nil {
		t.Fatal(err)
	}
	// Only the current store is closed at the end: an abandoned one must be
	// unreachable, as after a process exit.
	var dur *Store
	t.Cleanup(func() {
		if dur != nil {
			dur.Close()
		}
	})
	var doc DocID
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		var list bytes.Buffer
		for i, op := range ops[:step+1] {
			if op.Kind == "load" {
				op.XML = "lifetimeDoc(seed)"
			}
			line, _ := json.Marshal(op)
			fmt.Fprintf(&list, "%3d %s\n", i, line)
		}
		t.Fatalf("seed %d, %s, pool %d, step %d (%s): %s\nops:\n%s",
			seed, opts.Encoding, opts.BufferPoolFrames, step, ops[step].Kind, fmt.Sprintf(format, args...), list.String())
	}
	intact := func() {
		t.Helper()
		problems, err := dur.CheckIntegrity()
		if err != nil || len(problems) > 0 {
			fail("integrity: %v %v", err, problems)
		}
	}
	open := func() {
		t.Helper()
		if dur, err = OpenDurable(dir, opts); err != nil {
			fail("open: %v", err)
		}
	}
	same := func(xpath string) {
		t.Helper()
		want, werr := mem.Query(doc, xpath)
		got, gerr := dur.Query(doc, xpath)
		if (werr == nil) != (gerr == nil) || fmt.Sprint(want) != fmt.Sprint(got) {
			fail("%s: durable %v (%v), memory %v (%v)", xpath, got, gerr, want, werr)
		}
	}
	open()
	for step = range ops {
		op := ops[step]
		switch op.Kind {
		case "query":
			same(op.Value)
		case "reopen":
			if err := dur.Close(); err != nil {
				fail("close: %v", err)
			}
			open()
			intact()
		case "abandon":
			// The process "exits" without Close: the store is dropped with
			// whatever the pool holds unflushed, and the log and the last
			// checkpoint must carry it.
			dur = nil
			runtime.GC()
			open()
			intact()
		case "gc":
			runtime.GC()
		default:
			wrep, werr := applyTortureOp(mem, op)
			grep, gerr := applyTortureOp(dur, op)
			if (werr == nil) != (gerr == nil) || wrep.NewID != grep.NewID {
				fail("durable %+v (%v), memory %+v (%v)", grep, gerr, wrep, werr)
			}
			switch op.Kind {
			case "load":
				doc = grep.NewID
			case "checkpoint":
				intact()
			}
		}
		if fingerprint(t, dur) != fingerprint(t, mem) {
			fail("documents differ from the memory store's")
		}
		same("//*")
	}
}

// TestPageLifetime runs the harness over every encoding with the default pool
// and with an 8-frame pool, at GOGC=1, for a fixed list of seeds.
func TestPageLifetime(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	for _, enc := range []Encoding{Global, Local, Dewey} {
		for _, frames := range []int{0, 8} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/pool=%d/seed=%d", enc, frames, seed), func(t *testing.T) {
					ops := lifetimeSession(t, enc, seed, 40)
					opts := Options{Encoding: enc, BufferPoolFrames: frames}
					lifetimeRun(t, t.TempDir(), opts, seed, ops)
				})
			}
		}
	}
}

// TestLifetimeReopenLoopGOGC1 is the first GC-timing corruption as a fixed
// case: a store updated, checkpointed and reopened over and over with the
// collector at GOGC=1 must pass the on-disk and ownership checks every time.
func TestLifetimeReopenLoopGOGC1(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	dir := t.TempDir()
	opts := Options{Encoding: Global, BufferPoolFrames: 8}
	s := openDur(t, dir, opts)
	doc, err := s.LoadString("catalog", lifetimeDoc(7))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 5; i++ {
			if _, err := s.Insert(doc, 1, FirstChild, fmt.Sprintf("<R%d>x</R%d>", round, round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want := fingerprint(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openDur(t, dir, opts)
		mustIntact(t, s)
		if got := fingerprint(t, s); got != want {
			t.Fatalf("round %d: reopened store differs from the one closed", round)
		}
	}
}

// TestLifetimeAbandonAfterCheckpoint is the second as a fixed case:
// checkpoint, update, then drop the store without Close (a process exit) and
// reopen. The checkpoint and the log must hold every acknowledged update.
func TestLifetimeAbandonAfterCheckpoint(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	dir := t.TempDir()
	opts := Options{Encoding: Dewey, BufferPoolFrames: 8}
	s, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.LoadString("catalog", lifetimeDoc(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(doc, 1, LastChild, "<after>checkpoint</after>"); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, s)
	s = nil
	runtime.GC()
	r := openDur(t, dir, opts)
	mustIntact(t, r)
	if got := fingerprint(t, r); got != want {
		t.Fatal("store reopened after an exit without Close lost acknowledged state")
	}
}

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
	var ops []tortureOp
	for _, op := range lifetimeSession(t, Global, 5, 60) {
		if op.Kind != "reopen" && op.Kind != "abandon" && op.Kind != "gc" {
			ops = append(ops, op)
		}
	}
	ops = append(ops, tortureOp{Kind: "checkpoint"})
	manifest := func(gc bool) []byte {
		dir := t.TempDir()
		s := openDur(t, dir, Options{Encoding: Global, BufferPoolFrames: 8})
		for _, op := range ops {
			if op.Kind != "query" {
				applyTortureOp(s, op)
			}
			if gc {
				runtime.GC()
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, metaFile))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	old := debug.SetGCPercent(-1)
	off := manifest(false)
	debug.SetGCPercent(old)
	if every := manifest(true); !bytes.Equal(off, every) {
		t.Fatalf("the same session wrote different manifests: %d bytes with the collector off, %d with a collection per operation",
			len(off), len(every))
	}
}
