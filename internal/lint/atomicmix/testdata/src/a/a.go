// Package a exercises atomicmix: fields and package variables touched by
// raw sync/atomic calls must never be accessed plainly; typed atomics and
// untouched fields are out of scope.
package a

import "sync/atomic"

type Counter struct {
	n    uint64
	safe atomic.Uint64
	gen  int
}

var hits uint64

func Inc(c *Counter) {
	atomic.AddUint64(&c.n, 1)
	atomic.AddUint64(&hits, 1)
	c.safe.Add(1)
}

func Read(c *Counter) uint64 {
	return atomic.LoadUint64(&c.n) + atomic.LoadUint64(&hits)
}

// Racy mixes plain accesses into locations the functions above treat as
// atomic: every one is a data race against Inc/Read.
func Racy(c *Counter) uint64 {
	c.n = 0         // want `mixed atomic and plain access: n is accessed with sync/atomic elsewhere`
	v := c.n + hits // want `mixed atomic and plain access: n is accessed with sync/atomic elsewhere` `mixed atomic and plain access: hits is accessed with sync/atomic elsewhere`
	return v
}

// Fresh constructs a Counter: a composite-literal key is the field name,
// not an access.
func Fresh() *Counter {
	return &Counter{gen: 1}
}

// Calm touches only unmarked locations: the typed atomic cannot be accessed
// plainly at all, and gen is never accessed atomically.
func Calm(c *Counter) {
	c.gen++
	c.safe.Store(0)
}
