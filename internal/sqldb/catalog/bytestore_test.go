package catalog

import (
	"bytes"
	"fmt"
	"testing"
)

// TestByteStore: every string reads back as appended, across chunk
// boundaries, with strings of very different lengths, empty ones too.
func TestByteStore(t *testing.T) {
	var b ByteStore
	var strs [][]byte
	var ends []int
	for i := 0; i < 1000; i++ {
		s := bytes.Repeat([]byte{byte(i)}, (i*37)%(1+i%90))
		strs, ends = append(strs, s), append(ends, b.Append(s))
	}
	for i, s := range strs {
		prev := 0
		if i > 0 {
			prev = ends[i-1]
		}
		if got := b.Slice(prev, ends[i]); !bytes.Equal(got, s) {
			t.Fatalf("string %d reads %s bytes, appended %s", i, fmt.Sprint(len(got)), fmt.Sprint(len(s)))
		}
	}
}
