package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ordxml/internal/sqldb/heap"
)

// sliceKeys is a RewriteKeys over parallel slices.
type sliceKeys struct {
	old, new [][]byte
	rids     []heap.RID
}

func (k sliceKeys) Len() int         { return len(k.old) }
func (k sliceKeys) Old(j int) []byte { return k.old[j] }
func (k sliceKeys) New(j int, old []byte) []byte {
	if !bytes.Equal(old, k.old[j]) {
		panic(fmt.Sprintf("New(%d) is passed %x, old key %x", j, old, k.old[j]))
	}
	return k.new[j]
}
func (k sliceKeys) RID(j int) heap.RID { return k.rids[j] }

// shiftKey is key v of the rewrite tests' key space, ordered by v while v
// has six digits; with long, every fifth key is byte-heavy, so a shift
// changes key lengths and node sizes.
func shiftKey(v int, long bool) []byte { return []byte(shiftKeyString(v, long)) }

func shiftKeyString(v int, long bool) string {
	k := fmt.Sprintf("s%06d", v)
	if long && v%5 == 0 {
		k += strings.Repeat("x", 200+v%900)
	}
	return k
}

// A shift of every key from some point on rewrites them in place: the tree
// keeps its shape and its nodes, separators inside the runs follow, and a
// snapshot published before reads the old keys.
func TestRewriteShiftsRunsInPlace(t *testing.T) {
	tr := New()
	for v := 0; v < 3000; v += 2 {
		if err := tr.Insert(shiftKey(v, false), rid(v)); err != nil {
			t.Fatal(err)
		}
	}
	before := entries(tr.Seek(nil, nil))
	snap := tr.Snapshot()
	var k sliceKeys
	for v := 1000; v < 3000; v += 2 {
		k.old = append(k.old, shiftKey(v, false))
		k.new = append(k.new, shiftKey(v+5, false))
		k.rids = append(k.rids, rid(v+5))
	}
	rw, ok := tr.PrepareRewrite(k, 0)
	if !ok {
		t.Fatal("a shift that keeps the order was refused")
	}
	rw.Apply()
	if problems := tr.Validate(); problems != nil {
		t.Fatalf("validate: %v", problems)
	}
	got := entries(tr.Seek(nil, nil))
	for i, e := range got {
		v := 2 * i
		if v >= 1000 {
			v += 5
		}
		if want := (entry{shiftKeyString(v, false), rid(v)}); e != want {
			t.Fatalf("entry %d: %v, want %v", i, e, want)
		}
	}
	if old := entries(snap.Seek(nil, nil)); !slices.Equal(old, before) {
		t.Fatal("the snapshot published before the rewrite changed")
	}
}

// A rewrite that would pass an untouched entry, collide, or not move its keys
// up is refused and changes nothing.
func TestRewriteRefusesReordering(t *testing.T) {
	tr := New()
	for v := 0; v < 200; v += 10 {
		if err := tr.Insert(shiftKey(v, false), rid(v)); err != nil {
			t.Fatal(err)
		}
	}
	before := entries(tr.Seek(nil, nil))
	for _, c := range []struct {
		name  string
		from  int
		to    int // exclusive
		delta int
	}{
		{"passes the next entry", 50, 80, 15},
		{"lands on the next entry", 50, 80, 10},
		{"moves down", 50, 200, -5},
		{"stays", 50, 200, 0},
	} {
		var k sliceKeys
		for v := c.from; v < c.to; v += 10 {
			k.old = append(k.old, shiftKey(v, false))
			k.new = append(k.new, shiftKey(v+c.delta, false))
			k.rids = append(k.rids, rid(v))
		}
		if _, ok := tr.PrepareRewrite(k, 0); ok {
			t.Errorf("%s: rewrite accepted", c.name)
		}
	}
	if got := entries(tr.Seek(nil, nil)); !slices.Equal(got, before) {
		t.Fatal("a refused rewrite changed the tree")
	}
}

// FuzzRewrite holds the run rewrite to Delete + Insert. Each shift moves a
// selection of entries — every stride-th of a stretch, so in one or more
// runs — by a delta that may keep the order or break it. The rewrite must
// accept exactly the shifts that keep it (all of them while keys have one
// length, when no node can change size), and an accepted one must leave
// the entries a reference tree gets by deleting the old keys and inserting
// the new ones. After every operation both trees validate and (pooled) own
// every page id exactly once and read back equal from their pages; every
// snapshot published along the way, before rewrites among them, still reads
// what it held.
func FuzzRewrite(f *testing.F) {
	f.Add([]byte{0, 0, 20, 30, 1, 9, 5, 0, 0, 0, 0, 1, 200, 64, 5})
	f.Add([]byte{1, 0, 5, 63, 3, 5, 0, 0, 0, 0, 2, 0, 90, 200, 2, 4, 1, 3, 0, 0})
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 150)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, pooled := range []bool{false, true} {
			rewriteOps(t, ops[:min(len(ops), 250)], pooled)
		}
	})
}

// rewriteOps is FuzzRewrite's body for one storage tier. ops[0] chooses
// whether every fifth key is long; the rest decodes five bytes per
// operation.
func rewriteOps(t *testing.T, ops []byte, pooled bool) {
	if len(ops) == 0 {
		return
	}
	long := ops[0]%2 == 1
	ops = ops[1:]
	sides := [2]*replaceTree{{name: "rewrite"}, {name: "delete+insert"}}
	var values []int // the values present, ascending
	for v := 0; v < 1500; v += 3 {
		values = append(values, v)
	}
	for _, s := range sides {
		s.tr = New()
		if pooled {
			s.pool = newTestPool(t, 32)
			s.tr = NewPaged(s.pool)
		}
		for _, v := range values {
			if err := s.tr.Insert(shiftKey(v, long), rid(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rw, ref := sides[0], sides[1]
	for step := 0; 5*step+5 <= len(ops); step++ {
		o := ops[5*step:]
		switch op := o[0] % 6; op {
		case 4:
			v := int(o[1])<<8 | int(o[2])
			if i, found := slices.BinarySearch(values, v); found {
				values = slices.Delete(values, i, i+1)
				for _, s := range sides {
					if err := s.tr.Delete(shiftKey(v, long)); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				values = slices.Insert(values, i, v)
				for _, s := range sides {
					if err := s.tr.Insert(shiftKey(v, long), rid(v)); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 5:
			for _, s := range sides {
				s.publish(t, o[1]%2 == 0)
			}
		default:
			if len(values) == 0 {
				continue
			}
			start := (int(o[1])<<8 | int(o[2])) % len(values)
			count, stride := int(o[3])%64+1, int(o[3])>>6+1
			delta := int(int8(o[4]))
			var picked []int
			for i := start; i < len(values) && len(picked) < count; i += stride {
				picked = append(picked, i)
			}
			after := slices.Clone(values)
			var k sliceKeys
			for _, i := range picked {
				after[i] = values[i] + delta
				k.old = append(k.old, shiftKey(values[i], long))
				k.new = append(k.new, shiftKey(after[i], long))
				k.rids = append(k.rids, rid(after[i]+step))
			}
			keeps := delta > 0 && slices.IsSorted(after) && !slices.ContainsFunc(after, func(v int) bool { return v > 999999 })
			for i := 1; keeps && i < len(after); i++ {
				keeps = after[i-1] != after[i]
			}
			p, ok := rw.tr.PrepareRewrite(k, 0)
			if ok && !keeps {
				t.Fatalf("step %d: shift of %d entries by %d accepted, but it breaks the order", step, len(picked), delta)
			}
			if !ok && keeps && !long {
				t.Fatalf("step %d: shift of %d entries by %d keeps the order, but was refused", step, len(picked), delta)
			}
			if !ok {
				break
			}
			p.Apply()
			for _, old := range k.old {
				if err := ref.tr.Delete(old); err != nil {
					t.Fatal(err)
				}
			}
			for j := range k.new {
				if err := ref.tr.Insert(k.new[j], k.rids[j]); err != nil {
					t.Fatal(err)
				}
			}
			values = after
		}
		got, want := entries(rw.tr.Seek(nil, nil)), entries(ref.tr.Seek(nil, nil))
		if !slices.Equal(got, want) || rw.tr.Len() != ref.tr.Len() {
			t.Fatalf("step %d: rewritten tree holds %d entries, Delete+Insert tree %d", step, len(got), len(want))
		}
		for _, s := range sides {
			s.check(t, step)
			s.roundTrip(t, step)
		}
	}
	rw.checkSnaps(t)
	ref.checkSnaps(t)
}

// roundTrip fails unless a pooled tree, written to its pages, reads back
// from them what it holds.
func (s *replaceTree) roundTrip(t *testing.T, step int) {
	t.Helper()
	if s.pool == nil {
		return
	}
	root, err := s.tr.WritePages()
	if err != nil {
		t.Fatalf("step %d: %s tree: WritePages: %v", step, s.name, err)
	}
	back := Restore(s.pool, root, s.tr.Len())
	if got, want := entries(back.Seek(nil, nil)), entries(s.tr.Seek(nil, nil)); !slices.Equal(got, want) {
		t.Fatalf("step %d: %s tree reads back %d entries from its pages, holds %d", step, s.name, len(got), len(want))
	}
}
