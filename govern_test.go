package ordxml

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ordxml/internal/vfs/vfstest"
)

// Governance tests at the Store level: cancellation and deadlines, the
// session query timeout, memory budgets, admission control and the degraded
// read-only mode. The failure vocabulary is typed — every assertion here
// goes through errors.Is against the public sentinels.

// bigDoc builds a flat document with n <item> children, large enough that
// its segment scans cross the executor's poll interval.
func bigDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<R>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<item><k>key%d</k><v>value%d</v></item>", i, i)
	}
	sb.WriteString("</R>")
	return sb.String()
}

// waitForGoroutines polls until the goroutine count returns to the baseline,
// dumping all stacks on failure.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// TestQueryDeadlineAborts is the acceptance check: an XPath query under a
// 1 ms deadline aborts with ErrDeadlineExceeded and leaks nothing. The short
// sleep guarantees the deadline has fired before the query starts, so the
// test asserts behavior, not scheduling luck.
func TestQueryDeadlineAborts(t *testing.T) {
	s, err := Open(Options{Encoding: Dewey})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.LoadString("big", bigDoc(2000))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	if _, err := s.QueryCtx(ctx, doc, "/R/item/k"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if _, err := s.QueryValuesCtx(ctx, doc, "/R/item/v"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("QueryValuesCtx: want ErrDeadlineExceeded, got %v", err)
	}
	if _, err := s.SerializeDocumentCtx(ctx, doc); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("SerializeDocumentCtx: want ErrDeadlineExceeded, got %v", err)
	}
	waitForGoroutines(t, base)
	// The same queries complete once the deadline is gone.
	if _, err := s.Query(doc, "/R/item/k"); err != nil {
		t.Fatalf("undeadlined query: %v", err)
	}
}

func TestQueryCancellation(t *testing.T) {
	s, err := Open(Options{Encoding: Global})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.LoadString("big", bigDoc(1500))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryCtx(ctx, doc, "/R/item"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// Mutations observe cancellation before any durable effect.
	if _, err := s.InsertCtx(ctx, doc, 1, LastChild, "<item/>"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("InsertCtx: want ErrCanceled, got %v", err)
	}
}

// TestExplainQueryReturnsOwnSQL runs ExplainQuery while other goroutines
// query different paths on the same store: the statements it returns must be
// those of its own evaluation, never a concurrent query's.
func TestExplainQueryReturnsOwnSQL(t *testing.T) {
	s, err := Open(Options{Encoding: Dewey})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.LoadString("d", bigDoc(50))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/R/item/v", "//v", "/R/item[2]/v", "/R/item/v[1]"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Query(doc, path); err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
			}
		}(path)
	}
	for i := 0; i < 200; i++ {
		sqls, err := s.ExplainQuery(doc, "/R/item/k")
		if err != nil {
			t.Fatal(err)
		}
		if len(sqls) != 1 || !strings.Contains(sqls[0], "'k'") || strings.Contains(sqls[0], "'v'") {
			t.Fatalf("run %d: ExplainQuery(/R/item/k) returned another query's SQL: %q", i, sqls)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSessionQueryTimeout exercises SetQueryTimeout: an unreachable deadline
// lets queries through, a nanosecond one kills them, and a caller-supplied
// deadline always wins over the session default.
func TestSessionQueryTimeout(t *testing.T) {
	s, err := Open(Options{Encoding: Dewey})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.LoadString("big", bigDoc(1500))
	if err != nil {
		t.Fatal(err)
	}
	s.SetQueryTimeout(time.Minute)
	if got := s.QueryTimeout(); got != time.Minute {
		t.Fatalf("QueryTimeout = %v", got)
	}
	if _, err := s.Query(doc, "/R/item"); err != nil {
		t.Fatalf("query under generous timeout: %v", err)
	}
	s.SetQueryTimeout(time.Nanosecond)
	if _, err := s.Query(doc, "/R/item"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if _, err := s.ExplainQuery(doc, "/R/item"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ExplainQuery: want ErrDeadlineExceeded, got %v", err)
	}
	// A caller context with its own (generous) deadline wins.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := s.QueryCtx(ctx, doc, "/R/item"); err != nil {
		t.Fatalf("caller deadline should win: %v", err)
	}
	s.SetQueryTimeout(0)
	if _, err := s.Query(doc, "/R/item"); err != nil {
		t.Fatalf("after removing timeout: %v", err)
	}
}

// TestCancellationStorm runs N readers whose contexts are canceled at random
// against one writer, under all three encodings. Every reader outcome must
// be clean: either results or a typed cancellation error; afterwards the
// store must pass the deep integrity check and all goroutines must be gone.
func TestCancellationStorm(t *testing.T) {
	for _, enc := range []Encoding{Global, Local, Dewey} {
		enc := enc
		t.Run(enc.String(), func(t *testing.T) {
			s, err := Open(Options{Encoding: enc, Gap: 4})
			if err != nil {
				t.Fatal(err)
			}
			doc, err := s.LoadString("storm", bigDoc(300))
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()

			var stop atomic.Bool
			var writer sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				var live []NodeID
				for i := 0; !stop.Load(); i++ {
					rep, err := s.Insert(doc, 1, LastChild, fmt.Sprintf("<item><k>w%d</k></item>", i))
					if err != nil {
						t.Errorf("writer insert: %v", err)
						return
					}
					live = append(live, rep.NewID)
					if len(live) > 4 {
						if _, err := s.Delete(doc, live[0]); err != nil {
							t.Errorf("writer delete: %v", err)
							return
						}
						live = live[1:]
					}
				}
			}()

			const readers = 4
			var rg sync.WaitGroup
			rg.Add(readers)
			for r := 0; r < readers; r++ {
				go func(seed int64) {
					defer rg.Done()
					rnd := rand.New(rand.NewSource(seed))
					for i := 0; i < 40; i++ {
						ctx, cancel := context.WithCancel(context.Background())
						go func(d time.Duration) {
							time.Sleep(d)
							cancel()
						}(time.Duration(rnd.Intn(2000)) * time.Microsecond)
						var err error
						switch i % 3 {
						case 0:
							_, err = s.QueryCtx(ctx, doc, "/R/item/k")
						case 1:
							_, err = s.QueryValuesCtx(ctx, doc, "/R/item/k")
						default:
							_, err = s.SerializeDocumentCtx(ctx, doc)
						}
						if err != nil && !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrDeadlineExceeded) {
							t.Errorf("reader: untyped error %v", err)
							cancel()
							return
						}
						cancel()
					}
				}(int64(r) + 1)
			}
			rg.Wait()
			stop.Store(true)
			writer.Wait()
			waitForGoroutines(t, base)
			mustIntact(t, s)
		})
	}
}

// TestMemoryBudgetAbortsQuery caps the per-request footprint low enough that
// a scan of the document blows it, and checks the typed error, the metrics,
// and that removing the budget restores service.
func TestMemoryBudgetAbortsQuery(t *testing.T) {
	s, err := Open(Options{Encoding: Global})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.LoadString("big", bigDoc(1500))
	if err != nil {
		t.Fatal(err)
	}
	s.SetMemoryBudget(4 * 1024)
	if got := s.MemoryBudget(); got != 4*1024 {
		t.Fatalf("MemoryBudget = %d", got)
	}
	if _, err := s.Query(doc, "/R/item"); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
	m := s.Metrics()
	if m.Counters["mem.budget_aborts"] < 1 {
		t.Fatalf("budget_aborts = %d", m.Counters["mem.budget_aborts"])
	}
	if m.Counters["mem.charged_bytes"] == 0 {
		t.Fatal("no bytes charged")
	}
	s.SetMemoryBudget(0)
	if _, err := s.Query(doc, "/R/item"); err != nil {
		t.Fatalf("after removing budget: %v", err)
	}
	mustIntact(t, s)
}

// TestExplainAnalyzeIsGoverned: EXPLAIN ANALYZE executes its statement, so it
// is a read like any other whichever door it comes through — SQLCtx with the
// EXPLAIN ANALYZE prefix or ExplainAnalyzeSQL. A canceled context, a memory
// budget the first result row exceeds and a full admission gate each stop it
// with the typed sentinel, and on a closed store both Explain*SQL calls fail
// with ErrClosed.
func TestExplainAnalyzeIsGoverned(t *testing.T) {
	dir := t.TempDir()
	s := openDur(t, dir, Options{Encoding: Global})
	if _, err := s.LoadString("big", bigDoc(1500)); err != nil {
		t.Fatal(err)
	}
	const sel = `SELECT id, tag FROM xg_nodes ORDER BY id`
	const analyze = `EXPLAIN ANALYZE ` + sel
	both := func(t *testing.T, ctx context.Context, want error) {
		t.Helper()
		if _, err := s.SQLCtx(ctx, analyze); !errors.Is(err, want) {
			t.Errorf("SQLCtx(EXPLAIN ANALYZE): %v, want %v", err, want)
		}
		if _, err := s.ExplainAnalyzeSQL(sel); !errors.Is(err, want) {
			t.Errorf("ExplainAnalyzeSQL: %v, want %v", err, want)
		}
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SQLCtx(ctx, analyze); !errors.Is(err, ErrCanceled) {
		t.Errorf("SQLCtx(EXPLAIN ANALYZE) under a canceled context: %v, want ErrCanceled", err)
	}
	waitForGoroutines(t, base)

	s.SetMemoryBudget(1)
	both(t, context.Background(), ErrMemoryBudget)
	s.SetMemoryBudget(0)

	s.SetAdmissionLimit(1, 0, 0)
	release, err := s.gov.gate.Load().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	both(t, context.Background(), ErrOverloaded)
	release()
	s.SetAdmissionLimit(0, 0, 0)

	if out, err := s.ExplainAnalyzeSQL(sel); err != nil || !strings.Contains(out, "actual rows=") {
		t.Fatalf("ungoverned ExplainAnalyzeSQL: %v\n%s", err, out)
	}
	if n := s.Metrics().Gauges["sqldb.cursors.open"]; n != 0 {
		t.Errorf("sqldb.cursors.open = %d after aborted analyzes, want 0", n)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	both(t, context.Background(), ErrClosed)
	if _, err := s.ExplainSQL(sel); !errors.Is(err, ErrClosed) {
		t.Errorf("ExplainSQL on a closed store: %v, want ErrClosed", err)
	}
}

// TestAdmissionControlSheds saturates a one-slot gate with concurrent
// serializations; the overflow must be shed with ErrOverloaded, and removing
// the gate restores unbounded admission.
func TestAdmissionControlSheds(t *testing.T) {
	s, err := Open(Options{Encoding: Dewey})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.LoadString("big", bigDoc(3000))
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdmissionLimit(1, 0, 0)

	const n = 6
	var wg sync.WaitGroup
	var ok, shed, other atomic.Int64
	start := make(chan struct{})
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			<-start
			_, err := s.SerializeDocumentCtx(context.Background(), doc)
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("untyped failures: %d", other.Load())
	}
	if ok.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("ok = %d, shed = %d; want both nonzero", ok.Load(), shed.Load())
	}
	m := s.Metrics()
	if m.Counters["admission.shed"] != shed.Load() {
		t.Fatalf("admission.shed = %d, want %d", m.Counters["admission.shed"], shed.Load())
	}
	if m.Gauges["admission.active"] != 0 {
		t.Fatalf("admission.active = %d after drain", m.Gauges["admission.active"])
	}
	// Remove the gate: everything admitted again.
	s.SetAdmissionLimit(0, 0, 0)
	if _, err := s.SerializeDocument(doc); err != nil {
		t.Fatalf("after removing gate: %v", err)
	}
}

// TestWALFailureDegradesToReadOnly is the degraded-mode acceptance test: a
// WAL append failure flips the store to read-only — the failing mutation
// reports the injected I/O error, later mutations report ErrReadOnly, reads
// keep serving, health reports the degradation — and a reopen recovers.
func TestWALFailureDegradesToReadOnly(t *testing.T) {
	disk := vfstest.New()
	s := openDurFS(t, disk, "/store", Options{Encoding: Dewey})
	doc, err := s.LoadString("hamlet", testDoc)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, s)

	disk.Arm(vfstest.Fault{Op: "sync", Name: walFile, N: 1, Err: syscall.EIO})
	if err := s.SetValue(doc, 3, "doomed"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("first mutation: want the injected EIO, got %v", err)
	}
	if ok, cause := s.Degraded(); !ok || cause == "" {
		t.Fatalf("Degraded = %v, %q", ok, cause)
	}
	// Every further mutation — across all entry points — is typed ErrReadOnly.
	if err := s.SetValue(doc, 3, "refused"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("SetValue while degraded: %v", err)
	}
	if _, err := s.Insert(doc, 1, LastChild, "<x/>"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert while degraded: %v", err)
	}
	if err := s.Drop(doc); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Drop while degraded: %v", err)
	}
	if _, err := s.Exec(`DELETE FROM xd_nodes WHERE doc = -1`); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Exec while degraded: %v", err)
	}
	// Reads keep serving the pre-failure state.
	if got := fingerprint(t, s); got != want {
		t.Fatalf("degraded reads differ:\n got %q\nwant %q", got, want)
	}
	// Health and the readiness gauge report it.
	var degradedLine bool
	for _, p := range s.Health() {
		if strings.Contains(p, "degraded") {
			degradedLine = true
		}
	}
	if !degradedLine {
		t.Fatalf("Health() = %v, want a degraded line", s.Health())
	}
	if got := s.Metrics().Gauges["store.degraded"]; got != 1 {
		t.Fatalf("store.degraded gauge = %d", got)
	}
	s.Close()

	// Reopen after a power cut: the failed fsync dropped the doomed record,
	// so recovery replays the log to the state before it, and the store is
	// healthy and writable again.
	s = openDurFS(t, disk.Image(vfstest.Synced, nil), "/store", Options{Encoding: Dewey})
	if ok, _ := s.Degraded(); ok {
		t.Fatal("reopened store still degraded")
	}
	if got := fingerprint(t, s); got != want {
		t.Fatalf("recovered state differs:\n got %q\nwant %q", got, want)
	}
	mustIntact(t, s)
	if err := s.SetValue(doc, 3, "recovered"); err != nil {
		t.Fatalf("mutation after reopen: %v", err)
	}
}

// TestPageWriteFailureDegradesStore injects an ENOSPC on the page file under
// a buffer-pooled store: the checkpoint's flush fails, the store degrades,
// reads keep serving, and a reopen recovers from the WAL.
func TestPageWriteFailureDegradesStore(t *testing.T) {
	disk := vfstest.New()
	opts := Options{Encoding: Dewey, BufferPoolFrames: 16}
	s := openDurFS(t, disk, "/store", opts)
	doc, err := s.LoadString("hamlet", testDoc)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, s)

	disk.Arm(vfstest.Fault{Op: "write", Name: pagesFile, N: 1, Err: syscall.ENOSPC})
	err = s.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint succeeded through a full disk")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("checkpoint error does not carry ENOSPC: %v", err)
	}
	if ok, cause := s.Degraded(); !ok || !strings.Contains(cause, "page write failed") {
		t.Fatalf("Degraded = %v, %q", ok, cause)
	}
	if err := s.SetValue(doc, 3, "refused"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("mutation while degraded: %v", err)
	}
	if got := fingerprint(t, s); got != want {
		t.Fatalf("degraded reads differ:\n got %q\nwant %q", got, want)
	}
	s.Close()

	s2 := openDurFS(t, disk.Image(vfstest.Synced, nil), "/store", opts)
	if ok, _ := s2.Degraded(); ok {
		t.Fatal("reopened store still degraded")
	}
	if got := fingerprint(t, s2); got != want {
		t.Fatalf("recovered state differs:\n got %q\nwant %q", got, want)
	}
	mustIntact(t, s2)
}
