package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/pagefile"
	"ordxml/internal/vfs/vfstest"
)

func TestInsertGet(t *testing.T) {
	h := New()
	rid, err := h.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestInsertEmptyPayload(t *testing.T) {
	h := New()
	// Zero-length payloads are indistinguishable from dead slots in the
	// slotted layout; the engine never stores them (rows always encode a
	// header byte), but the heap must not corrupt itself.
	rid, err := h.Insert([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err != nil {
		t.Fatal(err)
	}
}

func TestRowTooLarge(t *testing.T) {
	h := New()
	if _, err := h.Insert(make([]byte, MaxRowSize+1)); err == nil {
		t.Fatal("oversize insert succeeded")
	}
	if _, err := h.Insert(make([]byte, MaxRowSize)); err != nil {
		t.Fatalf("max-size insert failed: %v", err)
	}
}

// TestRowSizeBoundsPerTier: in-RAM and paged heaps share one page geometry,
// so MaxRowSize is the bound for Insert, AppendBatch and Update in both.
func TestRowSizeBoundsPerTier(t *testing.T) {
	for name, h := range map[string]*Heap{"in-RAM": New(), "paged": NewPaged(newTestPool(t, 8))} {
		if _, err := h.Insert(make([]byte, MaxRowSize+1)); !errors.Is(err, ErrRowTooLarge) {
			t.Fatalf("%s: oversize insert: %v", name, err)
		}
		if _, err := h.AppendBatch([][]byte{make([]byte, MaxRowSize+1)}); !errors.Is(err, ErrRowTooLarge) {
			t.Fatalf("%s: oversize batch: %v", name, err)
		}
		rid, err := h.Insert(make([]byte, MaxRowSize))
		if err != nil {
			t.Fatalf("%s: max-size insert failed: %v", name, err)
		}
		if got, err := h.Get(rid); err != nil || len(got) != MaxRowSize {
			t.Fatalf("%s: max-size row read back: len %d, err %v", name, len(got), err)
		}
		if _, err := h.AppendBatch([][]byte{make([]byte, MaxRowSize)}); err != nil {
			t.Fatalf("%s: max-size batch failed: %v", name, err)
		}
		if _, err := h.Update(rid, make([]byte, MaxRowSize+1)); !errors.Is(err, ErrRowTooLarge) {
			t.Fatalf("%s: oversize update: %v", name, err)
		}
	}
}

func TestDelete(t *testing.T) {
	h := New()
	rid, _ := h.Insert([]byte("abc"))
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
	if err := h.Delete(rid); err == nil {
		t.Fatal("double Delete succeeded")
	}
	if s := h.Stats(); s.Rows != 0 {
		t.Fatalf("Rows = %d after delete", s.Rows)
	}
}

func TestGetBadRID(t *testing.T) {
	h := New()
	if _, err := h.Get(RID{Page: 5, Slot: 0}); err == nil {
		t.Fatal("Get on missing page succeeded")
	}
	h.Insert([]byte("x"))
	if _, err := h.Get(RID{Page: 0, Slot: 99}); err == nil {
		t.Fatal("Get on missing slot succeeded")
	}
}

func TestUpdateInPlace(t *testing.T) {
	h := New()
	rid, _ := h.Insert([]byte("abcdef"))
	nrid, err := h.Update(rid, []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	if nrid != rid {
		t.Fatalf("shrinking update moved the row: %v -> %v", rid, nrid)
	}
	got, _ := h.Get(nrid)
	if string(got) != "xyz" {
		t.Fatalf("Get = %q", got)
	}
}

func TestUpdateGrow(t *testing.T) {
	h := New()
	rid, _ := h.Insert([]byte("ab"))
	big := bytes.Repeat([]byte("z"), 100)
	nrid, err := h.Update(rid, big)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.Get(nrid)
	if !bytes.Equal(got, big) {
		t.Fatal("grown update lost data")
	}
	if s := h.Stats(); s.Rows != 1 {
		t.Fatalf("Rows = %d after grow", s.Rows)
	}
}

func TestMultiPageAndScan(t *testing.T) {
	h := New()
	const n = 5000
	want := map[RID][]byte{}
	for i := 0; i < n; i++ {
		data := []byte(fmt.Sprintf("row-%06d-%s", i, bytes.Repeat([]byte("p"), i%50)))
		rid, err := h.Insert(data)
		if err != nil {
			t.Fatal(err)
		}
		want[rid] = data
	}
	if s := h.Stats(); s.Pages < 2 || s.Rows != n {
		t.Fatalf("Stats = %+v", s)
	}
	seen := 0
	var prev RID
	first := true
	h.Scan(func(rid RID, data []byte) bool {
		if !first && !prev.Less(rid) {
			t.Fatalf("scan out of RID order: %v then %v", prev, rid)
		}
		prev, first = rid, false
		if !bytes.Equal(want[rid], data) {
			t.Fatalf("scan mismatch at %v", rid)
		}
		seen++
		return true
	})
	if seen != n {
		t.Fatalf("scan saw %d rows, want %d", seen, n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	h := New()
	for i := 0; i < 10; i++ {
		h.Insert([]byte{byte(i)})
	}
	count := 0
	h.Scan(func(RID, []byte) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("scan visited %d, want 3", count)
	}
}

func TestSlotReuseAfterDelete(t *testing.T) {
	h := New()
	rid1, _ := h.Insert([]byte("one"))
	h.Insert([]byte("two"))
	h.Delete(rid1)
	rid3, _ := h.Insert([]byte("three"))
	if rid3 != rid1 {
		t.Fatalf("dead slot not reused: got %v want %v", rid3, rid1)
	}
}

func TestCompaction(t *testing.T) {
	h := New()
	// Fill a page with ~40 records, delete every other one, then insert a
	// record that only fits after compaction.
	payload := bytes.Repeat([]byte("x"), 190)
	var rids []RID
	for {
		rid, err := h.Insert(payload)
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page > 0 {
			break
		}
		rids = append(rids, rid)
	}
	for i := 0; i < len(rids); i += 2 {
		h.Delete(rids[i])
	}
	big := bytes.Repeat([]byte("y"), 2000)
	rid, err := h.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != 0 {
		t.Fatalf("insert after deletes went to page %d, compaction failed", rid.Page)
	}
	// Survivors must be intact.
	for i := 1; i < len(rids); i += 2 {
		got, err := h.Get(rids[i])
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("record %v corrupted after compaction: %v", rids[i], err)
		}
	}
	got, _ := h.Get(rid)
	if !bytes.Equal(got, big) {
		t.Fatal("big record corrupted")
	}
}

// Torture test: random inserts/updates/deletes checked against a map.
func TestRandomOps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	h := New()
	ref := map[RID][]byte{}
	var live []RID
	for op := 0; op < 20000; op++ {
		switch {
		case len(live) == 0 || r.Intn(10) < 5:
			data := make([]byte, r.Intn(300)+1)
			r.Read(data)
			rid, err := h.Insert(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := ref[rid]; dup {
				t.Fatalf("op %d: RID %v handed out twice", op, rid)
			}
			ref[rid] = data
			live = append(live, rid)
		case r.Intn(10) < 5:
			i := r.Intn(len(live))
			rid := live[i]
			data := make([]byte, r.Intn(300)+1)
			r.Read(data)
			nrid, err := h.Update(rid, data)
			if err != nil {
				t.Fatal(err)
			}
			if nrid != rid {
				if _, dup := ref[nrid]; dup {
					t.Fatalf("op %d: moved to live RID %v", op, nrid)
				}
				delete(ref, rid)
				live[i] = nrid
			}
			ref[nrid] = data
		default:
			i := r.Intn(len(live))
			rid := live[i]
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(ref, rid)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if op%2000 == 0 {
			verify(t, h, ref)
		}
	}
	verify(t, h, ref)
}

func verify(t *testing.T, h *Heap, ref map[RID][]byte) {
	t.Helper()
	seen := 0
	h.Scan(func(rid RID, data []byte) bool {
		want, ok := ref[rid]
		if !ok {
			t.Fatalf("scan found unexpected RID %v", rid)
		}
		if !bytes.Equal(want, data) {
			t.Fatalf("data mismatch at %v", rid)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("scan saw %d rows, want %d", seen, len(ref))
	}
	if s := h.Stats(); s.Rows != len(ref) {
		t.Fatalf("Stats.Rows = %d, want %d", s.Rows, len(ref))
	}
}

func TestAppendBatch(t *testing.T) {
	h := New()
	// Seed one record through the normal path so the batch continues on a
	// partially filled tail page.
	first, err := h.Insert([]byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 5000)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("batch-record-%05d", i))
	}
	rids, err := h.AppendBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != len(payloads) {
		t.Fatalf("got %d rids", len(rids))
	}
	for i, rid := range rids {
		if i > 0 {
			prev := rids[i-1]
			if rid.Page < prev.Page || (rid.Page == prev.Page && rid.Slot <= prev.Slot) {
				t.Fatalf("rids not ascending at %d: %v then %v", i, prev, rid)
			}
		}
		data, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(payloads[i]) {
			t.Fatalf("record %d: got %q", i, data)
		}
	}
	if data, err := h.Get(first); err != nil || string(data) != "seed" {
		t.Fatalf("seed record lost: %q, %v", data, err)
	}
	if got := h.Stats().Rows; got != len(payloads)+1 {
		t.Fatalf("Rows = %d, want %d", got, len(payloads)+1)
	}
	if h.Stats().Pages < 2 {
		t.Fatalf("batch of %d records fit one page", len(payloads))
	}
}

func TestAppendBatchAllOrNothing(t *testing.T) {
	h := New()
	before := h.Stats()
	_, err := h.AppendBatch([][]byte{
		[]byte("fine"),
		make([]byte, MaxRowSize+1),
	})
	if err == nil {
		t.Fatal("oversized batch succeeded")
	}
	if got := h.Stats(); got != before {
		t.Fatalf("failed batch mutated heap: %+v", got)
	}
	rids, err := h.AppendBatch(nil)
	if err != nil || len(rids) != 0 {
		t.Fatalf("empty batch: %v, %v", rids, err)
	}
}

// newTestPool returns a tiny pool over a fresh page file.
func newTestPool(t *testing.T, frames int) *bufpool.Pool {
	t.Helper()
	pf, err := pagefile.Create(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return bufpool.New(pf, frames)
}

func TestPagedHeapBeyondPool(t *testing.T) {
	pool := newTestPool(t, 8)
	h := NewPaged(pool)
	const n = 400
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("row-%04d-%s", i, strings.Repeat("x", 200)))
	}
	rids, err := h.AppendBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats().Pages <= pool.Capacity() {
		t.Fatalf("want more pages (%d) than pool frames (%d)", h.Stats().Pages, pool.Capacity())
	}
	// Flush so clean pages become evictable, then read everything back
	// through faults.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(payloads[i]) {
			t.Fatalf("record %d: got %q", i, got)
		}
	}
	st := pool.Stats()
	if st.Misses == 0 {
		t.Fatal("expected faults reading a heap larger than the pool")
	}
	if st.Resident > int64(pool.Capacity())+8 {
		t.Fatalf("resident frames %d far exceed capacity %d", st.Resident, pool.Capacity())
	}
	if problems := h.Validate(); problems != nil {
		t.Fatalf("validate: %v", problems)
	}
}

func TestPagedHeapRestoreRoundTrip(t *testing.T) {
	pool := newTestPool(t, 16)
	h := NewPaged(pool)
	var want []string
	var rids []RID
	for i := 0; i < 300; i++ {
		s := fmt.Sprintf("payload-%d-%s", i, strings.Repeat("y", 150))
		rid, err := h.Insert([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, s)
		rids = append(rids, rid)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ids := h.PageIDs()
	for _, id := range ids {
		if id == 0 {
			t.Fatal("paged heap produced a zero page id")
		}
	}

	// A restored heap (same pool, as recovery would build it) sees the data.
	h2 := RestorePaged(pool, ids, h.Stats().Rows)
	for i, rid := range rids {
		got, err := h2.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want[i] {
			t.Fatalf("restored record %d: got %q", i, got)
		}
	}
	// Mutating the restored heap copies pages to fresh ids (shadow paging).
	if err := h2.Delete(rids[0]); err != nil {
		t.Fatal(err)
	}
	if h2.PageIDs()[0] == ids[0] {
		t.Fatal("mutation did not shadow-copy the restored page")
	}
	if problems := h2.Validate(); problems != nil {
		t.Fatalf("validate: %v", problems)
	}
}

// TestPagedReadsDegradeGradually loads a 64-page heap through pools of 8 to
// 64 frames and then reads it uniformly at random through Get — Frame.Bytes
// without a pin. The hit share must track the share of the heap the pool can
// hold and grow with the pool, not fall off a cliff below the working-set
// size.
func TestPagedReadsDegradeGradually(t *testing.T) {
	const pages, reads = 64, 20000
	rows := make([][]byte, 2*pages) // two 3000-byte rows fill a page
	for i := range rows {
		rows[i] = []byte(strings.Repeat(string(rune('a'+i%26)), 3000))
	}
	prev := -1.0
	for _, frames := range []int{8, 16, 32, 64} {
		pool := newTestPool(t, frames)
		h := NewPaged(pool)
		rids, err := h.AppendBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Stats().Pages; got != pages {
			t.Fatalf("heap has %d pages, want %d", got, pages)
		}
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		before := pool.Stats()
		rng := rand.New(rand.NewSource(42))
		for n := 0; n < reads; n++ {
			i := rng.Intn(len(rids))
			got, err := h.Get(rids[i])
			if err != nil || !bytes.Equal(got, rows[i]) {
				t.Fatalf("%d frames: row %d: %v", frames, i, err)
			}
		}
		after := pool.Stats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		share := 100 * float64(hits) / float64(hits+misses)
		want := 100 * float64(frames) / pages
		t.Logf("%d frames: %.1f%% hits (the pool holds %.0f%% of the heap)", frames, share, want)
		if share < want-10 || share > want+10 || share <= prev {
			t.Fatalf("%d frames: %.1f%% hits, want within 10 points of %.0f%% and above the %.1f%% of the smaller pool",
				frames, share, want, prev)
		}
		prev = share
	}
}

// TestPagedSnapshotReadersRaceCopyOnWrite scans snapshots of a 32-page heap
// from several goroutines through an 8-frame pool while the writer rewrites
// every row, so each round copy-on-writes, and frees, the very pages the
// readers are faulting. Each reader rescans its snapshot while newer rounds
// supersede it: every scan must return that snapshot's round, and the pool
// must not lose track of a frame.
func TestPagedSnapshotReadersRaceCopyOnWrite(t *testing.T) {
	const pages = 32
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	pool := newTestPool(t, 8)
	h := NewPaged(pool)
	row := func(round, i int) []byte { // two rows fill a page
		return []byte(fmt.Sprintf("%04d-%04d-%s", round, i, strings.Repeat("z", 2990)))
	}
	rows := make([][]byte, 2*pages)
	for i := range rows {
		rows[i] = row(0, i)
	}
	rids, err := h.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	index := make(map[RID]int, len(rids))
	for i, rid := range rids {
		index[rid] = i
	}
	type version struct {
		s     *Snapshot
		round int
	}
	var latest atomic.Pointer[version]
	latest.Store(&version{h.Snapshot(), 0})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v := latest.Load()
				for k := 0; k < 3; k++ {
					n := 0
					v.s.Scan(func(rid RID, data []byte) bool {
						n++
						if want := row(v.round, index[rid]); !bytes.Equal(data, want) {
							t.Errorf("round %d snapshot, %s: got %.9q, want %.9q", v.round, rid, data, want)
							return false
						}
						return true
					})
					if n != len(rids) {
						t.Errorf("round %d snapshot scanned %d rows, want %d", v.round, n, len(rids))
						return
					}
				}
			}
		}()
	}
	for r := 1; r <= rounds; r++ {
		for i, rid := range rids {
			if got, err := h.Update(rid, row(r, i)); err != nil || got != rid {
				t.Fatalf("round %d: update %s = %s, %v; want in place", r, rid, got, err)
			}
		}
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		latest.Store(&version{h.Snapshot(), r})
	}
	stop.Store(true)
	wg.Wait()
	if st := pool.Stats(); st.Resident < 0 || st.Resident > int64(pool.Capacity()) || st.Pinned != 0 {
		t.Fatalf("resident = %d (capacity %d), pinned = %d", st.Resident, pool.Capacity(), st.Pinned)
	}
}

// TestUpdateKeepsRowWhenMoveFails: a record that grows out of its page is
// deleted there and inserted elsewhere; when the insert cannot get a page
// (here the page file cannot grow), the update fails and the record stays
// where it was, unchanged.
func TestUpdateKeepsRowWhenMoveFails(t *testing.T) {
	disk := vfstest.New()
	if err := disk.MkdirAll("/h", 0o755); err != nil {
		t.Fatal(err)
	}
	pf, err := pagefile.CreateFS(disk, "/h/pages.db")
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	h := NewPaged(bufpool.New(pf, 1024))
	row := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	// Fill pages two rows each until the next page would grow the file
	// (ids 1..255 fit its first 256-page chunk).
	var rids []RID
	for len(h.pages) < 255 || len(rids)%2 == 1 {
		rid, err := h.Insert(row(MaxRowSize/2-8, byte(len(rids))))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	disk.Arm(vfstest.Fault{Op: "truncate", Name: "pages.db", N: 1, Err: syscall.ENOSPC})
	victim := rids[len(rids)-2]
	before := h.Stats().Rows
	if _, err := h.Update(victim, row(MaxRowSize/2+100, 0xEE)); err == nil {
		t.Fatalf("update needing a new page succeeded (fault fired: %v)", disk.Fired())
	}
	got, err := h.Get(victim)
	if err != nil || !bytes.Equal(got, row(MaxRowSize/2-8, byte(len(rids)-2))) {
		t.Fatalf("record after a failed move: %d bytes, %v", len(got), err)
	}
	if rows := h.Stats().Rows; rows != before {
		t.Fatalf("row count %d after a failed move, %d before", rows, before)
	}
}
