package btree

import (
	"bytes"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"ordxml/internal/sqldb/bufpool"
)

// reseekSpace is the size of the Reseek tests' key space (replaceKey).
const reseekSpace = 2400

// reseekTree builds a tree through the insert/delete history that ops
// encodes, three bytes per operation: insert or delete a run of keys of
// replaceKey's space, empty the tree, or (pooled) checkpoint it and restore
// it from its root page, so later descents go through lazy stubs. It starts
// from every other key of the space, so most histories leave interior
// levels. The tree meters node reads. It is not validated: runs of deletes
// among byte-heavy keys can leave nodes Validate calls underfull (rebalancing
// is local), and Reseek must agree with Seek on those trees as well.
func reseekTree(t *testing.T, ops []byte, pool *bufpool.Pool) *Tree {
	t.Helper()
	tr := New()
	if pool != nil {
		tr = NewPaged(pool)
	}
	for k := 0; k < reseekSpace; k += 2 {
		if err := tr.Insert(replaceKey(k), rid(k)); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; 3*step+3 <= len(ops); step++ {
		o := ops[3*step:]
		at, n := (int(o[1])<<4|int(o[2])>>4)%reseekSpace, int(o[2]&15)*8+1
		switch o[0] % 8 {
		case 0, 1, 2:
			for k := at; k < min(at+n, reseekSpace); k++ {
				tr.Insert(replaceKey(k), rid(k+step))
			}
		case 3, 4, 5:
			for k := at; k < min(at+4*n, reseekSpace); k++ {
				tr.Delete(replaceKey(k))
			}
		case 6:
			if o[1] == 0 {
				for it := tr.Seek(nil, nil); it.Valid(); it = tr.Seek(nil, nil) {
					tr.Delete(it.Key())
				}
			}
		default:
			if pool == nil {
				continue
			}
			root, err := tr.WritePages()
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			pool.CommitCheckpoint()
			tr = Restore(pool, root, tr.Len())
		}
	}
	tr.NodeReads = new(atomic.Int64)
	return tr
}

// take reads up to n entries of an iterator (all of them when n is 0).
func take(it *Iterator, n int) []entry {
	var out []entry
	for ; it.Valid() && (n == 0 || len(out) < n); it.Next() {
		out = append(out, entry{string(it.Key()), it.RID()})
	}
	return out
}

// reseekProbes drives one iterator through the probe sequence that probes
// encodes, three bytes per probe: how the start moves from the previous one
// (up, down, the same key, anywhere, past the last key, open, between two
// keys), how the end bound is drawn, and how many entries to read before
// the next probe. After every Reseek the iterator must hold exactly the
// descent stack a fresh Seek(start, end) builds, yield its entries, and
// meter no more node reads than it.
func reseekProbes(t *testing.T, tr *Tree, probes []byte) {
	t.Helper()
	reads := tr.NodeReads
	it := tr.Seek(nil, nil)
	at := 0
	for p := 0; 3*p+3 <= len(probes); p++ {
		o := probes[3*p:]
		mode, step, shape := o[0]%8, int(o[1]), int(o[2])
		var start []byte
		switch mode {
		case 0:
			at += step % 40
		case 1:
			at -= step % 40
		case 2:
		case 3:
			at = step * reseekSpace / 256
		}
		at = min(max(at, 0), reseekSpace)
		switch mode {
		case 4:
			start = []byte("s")
		case 5:
		case 6:
			start = append(replaceKey(at), 0)
		default:
			start = replaceKey(at)
		}
		var end []byte
		switch shape % 4 {
		case 1:
			end = replaceKey(at + shape%23)
		case 2:
			end = start
		case 3:
			end = append(bytes.Clone(start), 0xFF)
		}
		before := reads.Load()
		it.Reseek(start, end)
		mid := reads.Load()
		ref := tr.Seek(start, end)
		if got, want := mid-before, reads.Load()-mid; got > want {
			t.Fatalf("probe %d: Reseek(%q, %q) read %d nodes, a fresh Seek %d", p, start, end, got, want)
		}
		if !slices.Equal(it.stack, ref.stack) {
			t.Fatalf("probe %d: Reseek(%q, %q) built a different descent stack from a fresh Seek", p, start, end)
		}
		n := (shape >> 2) % 8
		if got, want := take(it, n), take(ref, n); !slices.Equal(got, want) {
			t.Fatalf("probe %d: Reseek(%q, %q) yields %d entries, a fresh Seek %d", p, start, end, len(got), len(want))
		}
	}
}

// TestReseekMatchesSeek runs seeded histories and probe sequences on memory
// and paged trees, plus the edge shapes: an empty tree, a single leaf, and
// probes after the iterator ran off the end of the tree.
func TestReseekMatchesSeek(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			history, probes := make([]byte, 3*int(seed)*4), make([]byte, 3*400)
			rng.Read(history)
			rng.Read(probes)
			reseekOps(t, history, probes, pooled)
		}
	}
	empty := New()
	empty.NodeReads = new(atomic.Int64)
	reseekProbes(t, empty, []byte{0, 5, 0, 3, 100, 1, 4, 0, 0, 5, 0, 2})
	leaf := New()
	leaf.NodeReads = new(atomic.Int64)
	for k := 0; k < 20; k++ {
		leaf.Insert(replaceKey(3*k+1), rid(k))
	}
	reseekProbes(t, leaf, []byte{0, 1, 0, 0, 3, 1, 1, 2, 0, 4, 0, 0, 5, 0, 1, 0, 0, 2})

	// Exhaust the iterator, then probe forwards, backwards and past the end.
	tr := reseekTree(t, nil, nil)
	it := tr.Seek(replaceKey(reseekSpace-5), nil)
	take(it, 0)
	if it.Valid() {
		t.Fatal("drained iterator still valid")
	}
	for _, k := range []int{reseekSpace - 3, 10, reseekSpace, 1000} {
		it.Reseek(replaceKey(k), nil)
		if got, want := take(it, 0), take(tr.Seek(replaceKey(k), nil), 0); !slices.Equal(got, want) {
			t.Fatalf("Reseek(%d) after exhaustion yields %d entries, a fresh Seek %d", k, len(got), len(want))
		}
	}
}

// reseekOps is the body of TestReseekMatchesSeek and FuzzReseek for one
// storage tier.
func reseekOps(t *testing.T, history, probes []byte, pooled bool) {
	t.Helper()
	var pool *bufpool.Pool
	if pooled {
		pool = newTestPool(t, 16)
	}
	reseekProbes(t, reseekTree(t, history, pool), probes)
}

// FuzzReseek holds Reseek to a fresh Seek: the first bytes pick an
// insert/delete history, the rest a probe sequence; see reseekTree and
// reseekProbes.
func FuzzReseek(f *testing.F) {
	f.Add(byte(3), []byte{0, 10, 20, 3, 2, 3, 7, 0, 0, 0, 5, 4, 1, 200, 9, 2, 0, 0, 4, 0, 1, 6, 8, 3})
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(byte(seed*5), ops)
	}
	f.Fuzz(func(t *testing.T, split byte, ops []byte) {
		ops = ops[:min(len(ops), 600)]
		cut := min(3*int(split%32), len(ops))
		for _, pooled := range []bool{false, true} {
			reseekOps(t, ops[:cut], ops[cut:], pooled)
		}
	})
}

// TestReseekNodeReads pins the metering rule: N ascending probes that stay
// in one leaf read N nodes (the leaf each time), not N times the height; a
// probe that goes backwards reads a whole root-to-leaf path.
func TestReseekNodeReads(t *testing.T) {
	tr := New()
	tr.NodeReads = new(atomic.Int64)
	for i := 0; i < 20000; i++ {
		if err := tr.Insert(key(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	height := int64(1)
	for n := tr.root; !n.leaf(); n = n.children[0] {
		height++
	}
	if height < 3 {
		t.Fatalf("height %d; the test needs interior levels", height)
	}
	// Probe the first keys of the leaf holding key 10000; the Next after the
	// last probe must stay in the leaf too.
	it := tr.Seek(key(10000), nil)
	first := it.stack[len(it.stack)-1]
	lo := 10000 - first.i
	if len(first.n.keys) < 12 {
		t.Fatalf("leaf holds %d keys", len(first.n.keys))
	}
	probe := func(i int) {
		it.Reseek(key(i), append(key(i), 0))
		if !it.Valid() || !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("Reseek(%d) not positioned on its key", i)
		}
		it.Next()
	}
	const n = 10
	before := tr.NodeReads.Load()
	for i := lo; i < lo+n; i++ {
		probe(i)
	}
	if got := tr.NodeReads.Load() - before; got != n {
		t.Errorf("%d ascending probes in one leaf read %d nodes, want %d", n, got, n)
	}
	before = tr.NodeReads.Load()
	probe(10)
	if got := tr.NodeReads.Load() - before; got != height {
		t.Errorf("a backward probe read %d nodes, want the height %d", got, height)
	}
}

// BenchmarkSeek opens a fresh iterator per point probe, in key order
// (sorted) and in random order.
func BenchmarkSeek(b *testing.B) {
	benchProbes(b, func(tr *Tree, _ *Iterator, k []byte) *Iterator {
		return tr.Seek(k, append(k, 0))
	})
}

// BenchmarkReseek moves one iterator from probe to probe. In random order a
// probe rarely stays under the previous path, so it must cost about what a
// fresh Seek does.
func BenchmarkReseek(b *testing.B) {
	benchProbes(b, func(tr *Tree, it *Iterator, k []byte) *Iterator {
		if it == nil {
			return tr.Seek(k, append(k, 0))
		}
		it.Reseek(k, append(k, 0))
		return it
	})
}

// benchProbes runs point probes over a 100,000-key tree through probe, which
// returns the iterator positioned on the probed key.
func benchProbes(b *testing.B, probe func(tr *Tree, it *Iterator, k []byte) *Iterator) {
	const n = 100000
	tr := New()
	for i := 0; i < n; i++ {
		tr.Insert(key(i), rid(i))
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = append(make([]byte, 0, 16), key(i)...)
	}
	for _, order := range []string{"sorted", "random"} {
		if order == "random" {
			rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		}
		b.Run(order, func(b *testing.B) {
			b.ReportAllocs()
			var it *Iterator
			for i := 0; i < b.N; i++ {
				it = probe(tr, it, keys[i%n])
				if !it.Valid() {
					b.Fatal("probe missed its key")
				}
			}
		})
	}
}
