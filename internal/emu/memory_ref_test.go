package emu

import (
	"math/rand"
	"slices"
	"testing"

	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	"multiscalar/internal/paged"
	"multiscalar/internal/workloads"
)

// refMemory is the map-based memory the paged one replaced, kept as a
// reference model: every word lives in one map, and Checksum sorts the
// map's word numbers.
type refMemory struct{ words map[uint64]uint64 }

func (m *refMemory) Load(addr uint64) uint64 { return m.words[addr/ir.WordBytes] }

func (m *refMemory) Store(addr, val uint64) { m.words[addr/ir.WordBytes] = val }

func (m *refMemory) Reset() { clear(m.words) }

func (m *refMemory) Checksum() uint64 {
	var sum uint64 = 14695981039346656037
	addrs := make([]uint64, 0, len(m.words))
	for a := range m.words {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		if v := m.words[a]; v != 0 {
			sum ^= a
			sum *= 1099511628211
			sum ^= v
			sum *= 1099511628211
		}
	}
	return sum
}

// memRegions are the address ranges the differential tests draw from: the
// data image, both sides of a page boundary, the stack below ir.StackBase,
// the first words past the directory, and wrapped addresses near 2^64.
var memRegions = []uint64{
	ir.DataBase,
	ir.DataBase + paged.PageWords*ir.WordBytes - 96,
	ir.StackBase - 192,
	paged.Words * ir.WordBytes,
	^uint64(191), // 2^64 - 192
}

// TestMemoryMatchesReference drives the paged memory and the reference
// model with the same seeded random stores, loads, checksums and resets,
// and compares every answer. Addresses are unaligned, and each draws from
// 24 words of one of memRegions, so words are rewritten, read back and
// zeroed often. Half the seeds run on one memory reset between seeds, so
// each Reset must leave a memory that holds pages equal to a new one.
func TestMemoryMatchesReference(t *testing.T) {
	reused := NewMemory()
	for seed := int64(1); seed <= 40; seed++ {
		got := NewMemory()
		if seed%2 == 0 {
			reused.Reset()
			got = reused
		}
		rng := rand.New(rand.NewSource(seed))
		want := &refMemory{words: make(map[uint64]uint64)}
		addr := func() uint64 {
			return memRegions[rng.Intn(len(memRegions))] + uint64(rng.Intn(24))*8 + uint64(rng.Intn(8))
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(20); {
			case op < 8:
				a, v := addr(), uint64(rng.Intn(4)) // zero a quarter of the time
				got.Store(a, v)
				want.Store(a, v)
			case op < 16:
				if a := addr(); got.Load(a) != want.Load(a) {
					t.Fatalf("seed %d step %d: Load(%#x) = %d; reference %d", seed, step, a, got.Load(a), want.Load(a))
				}
			case op < 19:
				if g, w := got.Checksum(), want.Checksum(); g != w {
					t.Fatalf("seed %d step %d: Checksum = %#x; reference %#x", seed, step, g, w)
				}
			default:
				got.Reset()
				want.Reset()
			}
		}
	}
}

// TestProgramsStayInDirectory runs every workload and generated corpus
// program to completion and checks that none writes a word past the paged
// directory, where the memory falls back to a map.
func TestProgramsStayInDirectory(t *testing.T) {
	var progs []*ir.Program
	for _, w := range workloads.All() {
		progs = append(progs, w.Build())
	}
	for seed := int64(1); seed <= 3; seed++ {
		for i := 0; i < 64; i++ {
			progs = append(progs, gen.Generate(gen.CorpusParams(seed, i)))
		}
	}
	for _, p := range progs {
		m := New(p)
		if err := m.Run(200_000_000); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		m.Mem.words.Pages(func(first uint64, _ []uint64) {
			if first >= paged.Words {
				t.Errorf("%s writes word %#x, past the directory's %#x words", p.Name, first, uint64(paged.Words))
			}
		})
	}
}
