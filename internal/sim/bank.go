package sim

import (
	"math/bits"
	"slices"
)

// bankSched models the banked L1 D-cache ports: the cache is interleaved at
// block granularity into one bank per PU (§4.2), and each bank accepts one
// access per cycle. Conflicting accesses from different PUs serialize.
//
// Each bank keeps a bitmap of its claimed cycles: bit i of word w stands for
// cycle base + 64w + i. Pruning drops whole words below the floor, so the
// bitmaps span only the cycles still in reach.
type bankSched struct {
	claimed [][]uint64 // per bank
	base    int64      // cycle of bit 0 of word 0; a multiple of 64, <= floor
	// floor is a pruning watermark: slots below it can never be requested
	// again (tasks are timed in program order, and every timestamp derives
	// from assignments that only move forward).
	floor int64
}

// bankWords is each bank's initial bitmap, in words: room for 4096 cycles
// above the base. The spans between prunes stay within it on 16 of the 18
// paper workloads, so a run's bitmaps seldom grow.
const bankWords = 64

// reset empties every bank and gives the scheduler banks banks (at least
// one). A bank keeps its bitmap's array from run to run; a bank the
// scheduler never had gets bankWords words, from one array for all of them.
// Nothing past a bitmap's length is ever read (grow clears what it adds), so
// the result schedules exactly as a new scheduler does.
func (b *bankSched) reset(banks int) {
	if banks < 1 {
		banks = 1
	}
	if banks > cap(b.claimed) {
		grown := make([][]uint64, banks)
		copy(grown, b.claimed[:cap(b.claimed)])
		b.claimed = grown
	}
	b.claimed = b.claimed[:banks]
	var words []uint64
	for i, c := range b.claimed {
		if c == nil {
			if words == nil {
				words = make([]uint64, (banks-i)*bankWords)
			}
			c, words = words[:0:bankWords], words[bankWords:]
		}
		b.claimed[i] = c[:0]
	}
	b.base, b.floor = 0, 0
}

// schedule returns the first cycle >= t at which addr's bank is free, and
// claims it. Blocks interleave across banks (32-byte granularity).
func (b *bankSched) schedule(addr uint64, t int64) int64 {
	words := &b.claimed[(addr>>5)%uint64(len(b.claimed))]
	if t < b.floor {
		t = b.floor
	}
	off := t - b.base
	for {
		w := int(off >> 6)
		if w >= len(*words) {
			*words = grow(*words, w+1) // every cycle past the end is free
		}
		if free := ^(*words)[w] >> (off & 63); free != 0 {
			off += int64(bits.TrailingZeros64(free))
			(*words)[w] |= 1 << (off & 63)
			return b.base + off
		}
		off = (off | 63) + 1
	}
}

// grow extends s to n words, the new ones zero.
func grow(s []uint64, n int) []uint64 {
	old := len(s)
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}

// prune drops reservations older than the watermark to bound memory; no
// future request can target cycles below it.
func (b *bankSched) prune(watermark int64) {
	if watermark <= b.floor {
		return
	}
	b.floor = watermark
	drop := int((watermark - b.base) >> 6)
	if drop == 0 {
		return
	}
	for i, words := range b.claimed {
		if drop >= len(words) {
			b.claimed[i] = words[:0]
		} else {
			b.claimed[i] = words[:copy(words, words[drop:])]
		}
	}
	b.base += int64(drop) << 6
}
