package ordxml

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ordxml/internal/failpoint"
)

// Crash-torture harness: the parent test generates a deterministic randomized
// update session, computes the expected store state after every operation
// prefix by simulating against a memory-only store, then re-executes the test
// binary as a child process with a crash failpoint armed. The child applies
// the same session against a durable store, appending a synced ack line after
// each completed operation, and dies mid-operation at the armed point (exit
// code 86). The parent reopens the directory and asserts:
//
//   - recovery succeeds and the deep integrity check is clean, and
//   - the recovered state equals the expected state after exactly k or k+1
//     operations, where k is the ack count — the +1 covers a crash landing
//     after the operation's WAL record was fsynced (durably promised) but
//     before the ack.
//
// Process kill cannot simulate page-cache loss, so a missing fsync is not
// literally detectable here; what the harness proves is that recovery from a
// crash at every registered failure point is correct.

// tortureOp is one step of a torture session, with pre-resolved node ids
// (id allocation is deterministic, so the simulation's ids are the child's).
type tortureOp struct {
	Kind   string `json:"kind"` // load, insert, delete, setvalue, rename, move, checkpoint
	Doc    int64  `json:"doc,omitempty"`
	ID     int64  `json:"id,omitempty"`
	Target int64  `json:"target,omitempty"`
	Mode   string `json:"mode,omitempty"`
	Name   string `json:"name,omitempty"`
	XML    string `json:"xml,omitempty"`
	Value  string `json:"value,omitempty"`
}

// applyTortureOp runs one op. Errors are returned but a failed op is still a
// completed op: failures are deterministic, so the simulation and the child
// fail identically and the state stays in lockstep.
func applyTortureOp(s *Store, op tortureOp) (UpdateReport, error) {
	switch op.Kind {
	case "load":
		doc, err := s.LoadString(op.Name, op.XML)
		return UpdateReport{NewID: doc}, err
	case "insert":
		m, err := ParsePosition(op.Mode)
		if err != nil {
			return UpdateReport{}, err
		}
		return s.Insert(op.Doc, op.Target, m, op.XML)
	case "delete":
		return s.Delete(op.Doc, op.ID)
	case "setvalue":
		return UpdateReport{}, s.SetValue(op.Doc, op.ID, op.Value)
	case "rename":
		return UpdateReport{}, s.Rename(op.Doc, op.ID, op.Name)
	case "move":
		m, err := ParsePosition(op.Mode)
		if err != nil {
			return UpdateReport{}, err
		}
		return s.Move(op.Doc, op.ID, op.Target, m)
	case "checkpoint":
		if !s.Durable() {
			return UpdateReport{}, nil // no-op in the parent's simulation
		}
		return UpdateReport{}, s.Checkpoint()
	default:
		return UpdateReport{}, fmt.Errorf("torture: unknown op kind %q", op.Kind)
	}
}

// tortureEnvInt reads a bounded integer knob from the environment.
func tortureEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// generateTortureSession builds the op list and the expected fingerprint
// after every prefix, by simulating against a memory-only store.
func generateTortureSession(t *testing.T, seed int64, nOps int) ([]tortureOp, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sim, err := Open(Options{Encoding: Dewey})
	if err != nil {
		t.Fatal(err)
	}
	modes := []Position{FirstChild, LastChild, Before, After}

	var ops []tortureOp
	var fps []string
	record := func(op tortureOp) UpdateReport {
		rep, _ := applyTortureOp(sim, op) // failures are part of the session
		ops = append(ops, op)
		fps = append(fps, fingerprint(t, sim))
		return rep
	}

	rep := record(tortureOp{Kind: "load", Name: "torture",
		XML: "<R><A>alpha</A><B>beta</B></R>"})
	doc := rep.NewID
	// Tracked element ids: the root and its two children (ids are assigned in
	// document order starting at the root). Deleted or stale ids are pruned
	// lazily — an op against a stale id simply fails on both sides.
	elems := []int64{1, 2, 4}

	pick := func(from []int64) int64 { return from[rng.Intn(len(from))] }
	for i := len(ops); i < nOps; i++ {
		if i == nOps/2 {
			record(tortureOp{Kind: "checkpoint"})
			continue
		}
		switch w := rng.Intn(100); {
		case w < 40:
			op := tortureOp{Kind: "insert", Doc: doc, Target: pick(elems),
				Mode: modes[rng.Intn(len(modes))].String(),
				XML:  fmt.Sprintf("<E%d>t%d</E%d>", i, i, i)}
			if rep := record(op); rep.NewID != 0 {
				elems = append(elems, rep.NewID)
			}
		case w < 55 && len(elems) > 3:
			id := pick(elems[1:])
			record(tortureOp{Kind: "delete", Doc: doc, ID: id})
		case w < 70:
			// The text child of an element is allocated right after it; if
			// this id is not a text node the op fails deterministically.
			record(tortureOp{Kind: "setvalue", Doc: doc, ID: pick(elems) + 1,
				Value: fmt.Sprintf("v%d", i)})
		case w < 80:
			record(tortureOp{Kind: "rename", Doc: doc, ID: pick(elems),
				Name: fmt.Sprintf("N%d", i)})
		case w < 90 && len(elems) > 3:
			op := tortureOp{Kind: "move", Doc: doc, ID: pick(elems[1:]),
				Target: pick(elems), Mode: modes[rng.Intn(len(modes))].String()}
			if rep := record(op); rep.NewID != 0 {
				elems = append(elems, rep.NewID)
			}
		default:
			record(tortureOp{Kind: "checkpoint"})
		}
	}
	return ops, fps
}

// runTortureChild re-executes the test binary running only the child test,
// with the given failpoint spec armed, and returns its exit code. With
// readers > 0 the child also runs that many concurrent snapshot readers
// alongside the update session, so the crash lands while reads are in
// flight.
func runTortureChild(t *testing.T, dir, spec string, recoverOnly bool, readers int, extraEnv ...string) int {
	t.Helper()
	cmd := osexec.Command(os.Args[0], "-test.run=^TestCrashTortureChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"ORDXML_TORTURE_DIR="+dir,
		failpoint.EnvVar+"="+spec)
	cmd.Env = append(cmd.Env, extraEnv...)
	if readers > 0 {
		cmd.Env = append(cmd.Env, "ORDXML_TORTURE_READERS="+strconv.Itoa(readers))
	}
	if recoverOnly {
		cmd.Env = append(cmd.Env, "ORDXML_TORTURE_RECOVER=1")
	}
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*osexec.ExitError); ok {
		if code := ee.ExitCode(); code == failpoint.CrashExitCode {
			return code
		}
		t.Fatalf("child (spec %s) exited %d, want 0 or %d:\n%s",
			spec, ee.ExitCode(), failpoint.CrashExitCode, out)
	}
	t.Fatalf("child (spec %s): %v\n%s", spec, err, out)
	return -1
}

// countAcks returns how many operations the child acknowledged.
func countAcks(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "acks"))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// verifyRecovered reopens the torture store and checks it against the
// expected prefix states.
func verifyRecovered(t *testing.T, dir, spec string, acked int, fps []string) {
	t.Helper()
	s, err := OpenDurable(filepath.Join(dir, "store"), Options{Encoding: Dewey})
	if err != nil {
		t.Fatalf("spec %s: recovery failed: %v", spec, err)
	}
	defer s.Close()
	mustIntact(t, s)
	got := fingerprint(t, s)
	// fps[i] is the state after ops[0..i]: k acked ops mean fps[k-1], and the
	// in-flight op may have become durable, giving fps[k]. Zero acks mean the
	// empty store (or the in-flight load).
	var want []string
	if acked == 0 {
		want = append(want, "")
	} else {
		want = append(want, fps[acked-1])
	}
	if acked < len(fps) {
		want = append(want, fps[acked])
	}
	for _, w := range want {
		if got == w {
			return
		}
	}
	t.Fatalf("spec %s: recovered state after %d acks matches neither prefix:\n got %q\nwant %q",
		spec, acked, got, want[0])
}

// tortureSession is what every torture parent starts from: it skips inside a
// child process, generates the session ORDXML_TORTURE_SEED and
// ORDXML_TORTURE_OPS (ops per round, default 24) describe, and returns the
// expected fingerprint after every op prefix plus a function that makes a
// fresh session directory holding the op list for a child to run.
func tortureSession(t *testing.T) (fps []string, sessionDir func(*testing.T) string) {
	t.Helper()
	if os.Getenv("ORDXML_TORTURE_DIR") != "" {
		t.Skip("torture child process")
	}
	seed := int64(tortureEnvInt("ORDXML_TORTURE_SEED", 1))
	nOps := tortureEnvInt("ORDXML_TORTURE_OPS", 24)
	ops, fps := generateTortureSession(t, seed, nOps)
	opsJSON, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	return fps, func(t *testing.T) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "ops.json"), opsJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
}

// TestCrashTorture is the parent: one round per crash failpoint and pool
// size. The WAL points run twice — with an 8-frame pool, small enough that
// the session evicts constantly, and with the default pool, which never
// evicts; the points that only exist under page traffic (a dirty-page flush,
// an eviction under memory pressure, each step of the checkpoint protocol:
// before the pool flush, between flush and manifest install, after the
// manifest is installed but before the allocator commits) run with the small
// pool.
func TestCrashTorture(t *testing.T) {
	fps, sessionDir := tortureSession(t)

	const smallPool, defaultPool = 8, 0
	poolEnv := func(frames int) string { return "ORDXML_TORTURE_POOL=" + strconv.Itoa(frames) }
	poolName := map[int]string{smallPool: "pool=8", defaultPool: "pool=default"}
	walSpecs := []string{
		"wal.append=crash@3",
		"wal.sync.partial-write=crash@2",
		"wal.sync.before-fsync=crash@1",
		"wal.sync.before-fsync=crash@5",
		"wal.sync.after-fsync=crash@5",
		"wal.rotate.before=crash@1",
		"wal.rotate.before-rename=crash@1",
	}
	pageSpecs := []string{
		"bufpool.flush=crash@1",
		"bufpool.flush=crash@5",
		"bufpool.evict=crash@1",
		"bufpool.evict=crash@20",
		"checkpoint.paged.before-flush=crash@1",
		"checkpoint.paged.before-meta=crash@1",
		"checkpoint.paged.after-meta=crash@1",
	}
	round := func(spec string, frames int) {
		t.Run(spec+"/"+poolName[frames], func(t *testing.T) {
			dir := sessionDir(t)
			runTortureChild(t, dir, spec, false, 0, poolEnv(frames))
			// verifyRecovered reopens with the default pool whatever the
			// child ran with: the pool size is not a property of the store.
			verifyRecovered(t, dir, spec, countAcks(t, dir), fps)
		})
	}
	for _, spec := range walSpecs {
		round(spec, smallPool)
		round(spec, defaultPool)
	}
	for _, spec := range pageSpecs {
		round(spec, smallPool)
	}

	// Crash during recovery itself: kill one child mid-session, then kill a
	// second child mid-replay, then recover for real. Replay changes nothing
	// the next recovery reads — the torn-tail truncation is idempotent, and
	// pages evicted mid-replay land on ids the manifest does not reference —
	// so an interrupted recovery must change nothing.
	for _, frames := range []int{smallPool, defaultPool} {
		t.Run("wal.replay.record/"+poolName[frames], func(t *testing.T) {
			dir := sessionDir(t)
			if code := runTortureChild(t, dir, "wal.sync.after-fsync=crash@4", false, 0, poolEnv(frames)); code == 0 {
				t.Fatal("first child did not crash")
			}
			acked := countAcks(t, dir)
			if code := runTortureChild(t, dir, "wal.replay.record=crash@1", true, 0, poolEnv(frames)); code == 0 {
				t.Fatal("recovery child did not crash (no records to replay?)")
			}
			verifyRecovered(t, dir, "wal.replay.record", acked, fps)
		})
	}
}

// TestCrashTortureConcurrentReaders repeats the WAL-failpoint rounds with
// snapshot readers running inside the child while it crashes: lock-free
// reads must neither corrupt the store nor change what recovery promises,
// and the readers themselves must never observe a torn document.
func TestCrashTortureConcurrentReaders(t *testing.T) {
	fps, sessionDir := tortureSession(t)
	specs := []string{
		"wal.sync.before-fsync=crash@5",
		"wal.sync.after-fsync=crash@5",
		"wal.append=crash@6",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			dir := sessionDir(t)
			runTortureChild(t, dir, spec, false, 3)
			verifyRecovered(t, dir, spec, countAcks(t, dir), fps)
		})
	}
}

// TestCrashTortureChild is the re-executed half of TestCrashTorture; it only
// runs when the harness points it at a session directory.
func TestCrashTortureChild(t *testing.T) {
	dir := os.Getenv("ORDXML_TORTURE_DIR")
	if dir == "" {
		t.Skip("crash-torture child (spawned by TestCrashTorture)")
	}
	// ORDXML_TORTURE_POOL sizes the child's buffer pool — small values force
	// evictions mid-session; unset or 0 means the default pool.
	frames, _ := strconv.Atoi(os.Getenv("ORDXML_TORTURE_POOL"))
	opts := Options{Encoding: Dewey, BufferPoolFrames: frames}
	s, err := OpenDurable(filepath.Join(dir, "store"), opts)
	if err != nil {
		t.Fatalf("torture child: open: %v", err)
	}
	defer s.Close()
	if os.Getenv("ORDXML_TORTURE_RECOVER") != "" {
		return // recovery-only round: opening was the whole job
	}
	data, err := os.ReadFile(filepath.Join(dir, "ops.json"))
	if err != nil {
		t.Fatalf("torture child: %v", err)
	}
	var ops []tortureOp
	if err := json.Unmarshal(data, &ops); err != nil {
		t.Fatalf("torture child: %v", err)
	}
	ack, err := os.OpenFile(filepath.Join(dir, "acks"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("torture child: %v", err)
	}
	defer ack.Close()
	if n, _ := strconv.Atoi(os.Getenv("ORDXML_TORTURE_READERS")); n > 0 {
		// Concurrent snapshot readers racing the update session right up to
		// the crash. Serialization of a vanished document fails cleanly; a
		// torn tree would fail inside the publisher with a structure error.
		for r := 0; r < n; r++ {
			go func() {
				for {
					docs, err := s.Documents()
					if err != nil {
						t.Errorf("torture reader: %v", err)
						return
					}
					for _, d := range docs {
						s.SerializeDocument(d.ID)
						s.Query(d.ID, "/R/A")
					}
				}
			}()
		}
	}
	for i, op := range ops {
		applyTortureOp(s, op) // a deterministic failure still completes the op
		if _, err := fmt.Fprintf(ack, "%d\n", i); err != nil {
			t.Fatalf("torture child: ack %d: %v", i, err)
		}
		if err := ack.Sync(); err != nil {
			t.Fatalf("torture child: ack sync %d: %v", i, err)
		}
	}
}
