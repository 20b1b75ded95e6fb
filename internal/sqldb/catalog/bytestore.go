package catalog

import "sort"

// ByteStore keeps byte strings laid end to end, for a statement that reads
// many of them before it writes: the rows a DML scan matched, the new
// values a shift writes. The strings fill chunks, each as large as all
// before it, so the store grows without copying what it holds. A string
// lies within one chunk; chunk k holds the offsets [bases[k],
// bases[k]+cap(chunks[k])) of the strings laid end to end.
type ByteStore struct {
	chunks [][]byte
	bases  []int
}

// minChunk is the smallest chunk: a statement that matches a row or two
// allocates once.
const minChunk = 256

// Append adds p and returns the offset where it ends, which is where the
// next string starts unless that one opens a new chunk.
func (b *ByteStore) Append(p []byte) int {
	k := len(b.chunks) - 1
	if k < 0 || cap(b.chunks[k])-len(b.chunks[k]) < len(p) {
		base := 0
		if k >= 0 {
			base = b.bases[k] + cap(b.chunks[k])
		}
		b.chunks = append(b.chunks, make([]byte, 0, max(base, len(p), minChunk)))
		b.bases = append(b.bases, base)
		k++
	}
	b.chunks[k] = append(b.chunks[k], p...)
	return b.bases[k] + len(b.chunks[k])
}

// Slice returns the string that ends at offset end and follows the one
// ending at prev (0 for the first string).
func (b *ByteStore) Slice(prev, end int) []byte {
	// The last chunk that starts before end holds the string; an empty
	// string at offset 0 reads from the first.
	k := max(sort.SearchInts(b.bases, end)-1, 0)
	start := max(prev, b.bases[k])
	return b.chunks[k][start-b.bases[k] : end-b.bases[k] : end-b.bases[k]]
}
