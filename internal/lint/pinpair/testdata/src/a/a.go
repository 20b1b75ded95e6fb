// Package a exercises the pinpair analyzer.
package a

import (
	"encoding/binary"
	"errors"

	"ordxml/internal/lint/pinpair/testdata/src/bufpool"
)

func work()                 {}
func use(b []byte)          { _ = b }
func keep(f *bufpool.Frame) {}

func deferred(p *bufpool.Pool) {
	fr := p.Fetch(1)
	defer fr.Unpin()
	use(fr.Bytes())
}

func deferredClosure(p *bufpool.Pool) {
	fr := p.Fetch(1)
	defer func() {
		fr.Unpin()
	}()
	use(fr.Bytes())
}

func straightLine(p *bufpool.Pool) {
	fr := p.Fetch(1)
	use(fr.Bytes())
	fr.Unpin()
}

func allocGuarded(p *bufpool.Pool) error {
	fr, err := p.Alloc()
	if err != nil {
		return err
	}
	use(fr.MarkDirty())
	fr.Unpin()
	return nil
}

func allocIDAfterUnpin(p *bufpool.Pool) (bufpool.PageID, error) {
	fr, err := p.Alloc()
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint16(fr.MarkDirty(), 7)
	id := fr.ID()
	fr.Unpin()
	return id, nil
}

func earlyReturnLeak(p *bufpool.Pool, fail bool) error {
	fr := p.Fetch(1) // want `frame fr is pinned but not unpinned on all paths`
	if fail {
		return errors.New("bail")
	}
	use(fr.Bytes())
	fr.Unpin()
	return nil
}

func earlyReturnUnpinned(p *bufpool.Pool, fail bool) error {
	fr := p.Fetch(1)
	if fail {
		fr.Unpin()
		return errors.New("bail")
	}
	use(fr.Bytes())
	fr.Unpin()
	return nil
}

func fallthroughLeak(p *bufpool.Pool, ok bool) {
	fr := p.Fetch(1) // want `frame fr is pinned but not unpinned on all paths`
	if ok {
		fr.Unpin()
	}
	work()
}

func allocLeak(p *bufpool.Pool) error {
	fr, err := p.Alloc() // want `frame fr is pinned but not unpinned on all paths`
	if err != nil {
		return err
	}
	use(fr.MarkDirty())
	return nil
}

func dropped(p *bufpool.Pool) {
	p.Fetch(1) // want `pinned frame discarded`
}

func pinReceiverBalanced(fr *bufpool.Frame) {
	b := fr.Pin()
	use(b)
	fr.Unpin()
}

func pinReceiverDeferred(fr *bufpool.Frame) {
	b := fr.Pin()
	defer fr.Unpin()
	use(b)
}

func pinReceiverLeak(fr *bufpool.Frame, fail bool) error {
	b := fr.Pin() // want `frame fr is pinned but not unpinned on all paths`
	if fail {
		return errors.New("bail")
	}
	use(b)
	fr.Unpin()
	return nil
}

func escapesToCallee(p *bufpool.Pool) {
	fr := p.Fetch(1)
	keep(fr) // ownership transferred: the callee unpins
}

func escapesToStruct(p *bufpool.Pool) *holder {
	fr := p.Fetch(1)
	return &holder{fr: fr}
}

type holder struct {
	fr *bufpool.Frame
}

func panicPath(p *bufpool.Pool, bad bool) {
	fr := p.Fetch(1)
	if bad {
		panic("corrupt page")
	}
	use(fr.Bytes())
	fr.Unpin()
}

// Table-style Fetch on a non-frame type must not trigger the analyzer.
type table struct{}

func (t *table) Fetch(id int) []byte { return nil }

func unrelatedFetch(t *table) {
	row := t.Fetch(3)
	use(row)
}

// The remaining shapes mirror spanfinish's fixture, so both configurations
// of the shared release walker see every path shape.

func bothBranchesUnpin(p *bufpool.Pool, fast bool) {
	fr := p.Fetch(1)
	if fast {
		fr.Unpin()
	} else {
		use(fr.Bytes())
		fr.Unpin()
	}
}

func pinPerIteration(p *bufpool.Pool) {
	for i := 0; i < 4; i++ {
		fr := p.Fetch(bufpool.PageID(i))
		use(fr.Bytes())
		fr.Unpin()
	}
}
