// Package paged is a table of values indexed by 64-bit word number and kept
// in fixed-size pages that one directory indexes. The functional memory
// (emu.Memory) and the ARB's per-word store heads (mem.ARB) are both tables.
//
// A page holds PageWords consecutive words. It is allocated the first time
// one of its words is written and kept across Reset, so a table that is
// reset and filled again allocates nothing. Reset zeroes only the pages
// written since the last reset, so it costs what the last run touched, and
// Pages visits those pages in word order without sorting them.
//
// The directory has two levels: 64 chunks of 128 page pointers, a chunk
// allocated with its first page, so a table whose words sit in a few places
// holds a few KiB of directory. It covers word numbers below Words, which is
// byte addresses below 32 MiB. Programs keep their data above ir.DataBase
// and their stack below ir.StackBase (16 MiB), so no workload or generated
// program writes past it. Words at or past Words, wrapped addresses near
// 2^64 included, live in a map, which only such words pay for.
package paged

import (
	"math/bits"
	"slices"
)

const (
	pageShift  = 9
	chunkPages = 128
	dirPages   = 64 * chunkPages

	// PageWords is the number of words in a page.
	PageWords = 1 << pageShift
	// Words is the number of words the directory covers; words from Words
	// on live in the table's map.
	Words = dirPages * PageWords
)

// Table maps word numbers to values of type T. A word not written since the
// last Reset reads as T's zero value. The zero Table is empty and ready to
// use.
type Table[T any] struct {
	// dir[i/chunkPages][i%chunkPages] is page i, or nil.
	dir [dirPages / chunkPages]*[chunkPages]*[PageWords]T
	// written has bit i%64 of word i/64 set when page i was written since
	// the last Reset.
	written [dirPages / 64]uint64
	far     map[uint64]*[1]T
}

// page returns page i, or nil.
func (t *Table[T]) page(i uint64) *[PageWords]T {
	if c := t.dir[i/chunkPages]; c != nil {
		return c[i%chunkPages]
	}
	return nil
}

// At returns the value of word w.
func (t *Table[T]) At(w uint64) T {
	if i := w >> pageShift; i < dirPages {
		if p := t.page(i); p != nil {
			return p[w%PageWords]
		}
	} else if p := t.far[w]; p != nil {
		return p[0]
	}
	var zero T
	return zero
}

// Ref returns the location of word w's value, for reading and writing, and
// marks w's page written. The location stays valid until the next Reset.
func (t *Table[T]) Ref(w uint64) *T {
	if i := w >> pageShift; i < dirPages {
		if p := t.page(i); p != nil {
			t.written[i/64] |= 1 << (i % 64)
			return &p[w%PageWords]
		}
	}
	return t.add(w)
}

// add is Ref for a word whose page does not exist yet, or that lies past
// the directory.
func (t *Table[T]) add(w uint64) *T {
	if w >= Words {
		p := t.far[w]
		if p == nil {
			if t.far == nil {
				t.far = make(map[uint64]*[1]T)
			}
			p = new([1]T)
			t.far[w] = p
		}
		return &p[0]
	}
	i := w >> pageShift
	c := &t.dir[i/chunkPages]
	if *c == nil {
		*c = new([chunkPages]*[PageWords]T)
	}
	(*c)[i%chunkPages] = new([PageWords]T)
	return t.Ref(w)
}

// Reset sets every word to the zero value. It keeps the pages and zeroes
// only those written since the last Reset.
func (t *Table[T]) Reset() {
	for k, set := range t.written {
		for ; set != 0; set &= set - 1 {
			clear(t.page(uint64(k*64 + bits.TrailingZeros64(set)))[:])
		}
		t.written[k] = 0
	}
	clear(t.far)
}

// Pages calls f, in ascending word order, once for each page written since
// the last Reset, with the page's first word number and its values, and
// then once for each word past the directory written since then, with that
// word's number and its one value. Words f is not shown hold the zero
// value; words it is shown may hold it too.
func (t *Table[T]) Pages(f func(first uint64, vals []T)) {
	for k, set := range t.written {
		for ; set != 0; set &= set - 1 {
			i := uint64(k*64 + bits.TrailingZeros64(set))
			f(i<<pageShift, t.page(i)[:])
		}
	}
	if len(t.far) == 0 {
		return
	}
	far := make([]uint64, 0, len(t.far))
	for w := range t.far {
		far = append(far, w)
	}
	slices.Sort(far)
	for _, w := range far {
		f(w, t.far[w][:])
	}
}
