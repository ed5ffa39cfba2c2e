package cfganal

import (
	"fmt"
	"testing"

	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
)

// corpus returns the first n points (short under -short) of the generator
// corpus rooted at seed 1: the random programs for the CFG properties.
func corpus(n, short int) []gen.Params {
	if testing.Short() {
		n = short
	}
	pts := make([]gen.Params, n)
	for i := range pts {
		pts[i] = gen.CorpusParams(1, i)
	}
	return pts
}

// forEachFn runs check on the CFG of every function of every program of the
// points, failing the test with gen.Check's shrunk report.
func forEachFn(t *testing.T, points []gen.Params, check func(f *ir.Function, g *CFG) error) {
	t.Helper()
	err := gen.Check(points, func(prog *ir.Program) error {
		for _, f := range prog.Fns {
			if err := check(f, Analyze(f)); err != nil {
				return fmt.Errorf("fn %s: %w", f.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDominatorsAgainstBruteForce checks the iterative dominator solution
// against the definition: a dominates b iff removing a disconnects b from
// the entry. Generated programs provide the CFGs.
func TestDominatorsAgainstBruteForce(t *testing.T) {
	forEachFn(t, corpus(25, 8), func(f *ir.Function, g *CFG) error {
		for a := range f.Blocks {
			for b := range f.Blocks {
				ba, bb := ir.BlockID(a), ir.BlockID(b)
				if g.DFSNum[ba] < 0 || g.DFSNum[bb] < 0 {
					continue
				}
				want := bruteDominates(f, ba, bb)
				if got := g.Dominates(ba, bb); got != want {
					return fmt.Errorf("Dominates(%d,%d) = %v, brute force %v", a, b, got, want)
				}
			}
		}
		return nil
	})
}

// bruteDominates reports whether every path from the entry to b passes
// through a: b unreachable when a's out-edges are removed (a==b trivially
// dominates).
func bruteDominates(f *ir.Function, a, b ir.BlockID) bool {
	if a == b {
		return true
	}
	seen := map[ir.BlockID]bool{f.Entry: true}
	work := []ir.BlockID{f.Entry}
	if f.Entry == a {
		return true // the entry dominates everything reachable
	}
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		if x == b {
			return false
		}
		if x == a {
			continue // paths may not continue through a
		}
		for _, s := range f.Block(x).Succs(nil) {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return true
}

// TestLoopInvariants checks structural loop properties on random programs:
// headers dominate their bodies, latches are body members with edges to the
// header, and nesting is consistent.
func TestLoopInvariants(t *testing.T) {
	forEachFn(t, corpus(25, 8), func(f *ir.Function, g *CFG) error {
		for li, l := range g.Loops {
			if !l.Contains(l.Header) {
				return fmt.Errorf("loop %d: header not in body", li)
			}
			for _, b := range l.Blocks {
				if !g.Dominates(l.Header, b) {
					return fmt.Errorf("loop %d: header does not dominate member %d", li, b)
				}
			}
			for _, latch := range l.Latches {
				if !l.Contains(latch) {
					return fmt.Errorf("loop %d: latch %d outside body", li, latch)
				}
				found := false
				for _, s := range f.Block(latch).Succs(nil) {
					if s == l.Header {
						found = true
					}
				}
				if !found {
					return fmt.Errorf("loop %d: latch %d has no edge to header", li, latch)
				}
				if !g.IsBackEdge(latch, l.Header) {
					return fmt.Errorf("loop %d: latch edge not classified as back edge", li)
				}
			}
			if l.Parent != nil {
				for _, b := range l.Blocks {
					if !l.Parent.Contains(b) {
						return fmt.Errorf("loop %d: member %d missing from parent loop", li, b)
					}
				}
				if l.Depth != l.Parent.Depth+1 {
					return fmt.Errorf("loop %d: depth %d, parent depth %d", li, l.Depth, l.Parent.Depth)
				}
			}
		}
		return nil
	})
}

// TestRPOIdxConsistency: RPOIdx must invert RPO and give -1 for unreachable.
func TestRPOIdxConsistency(t *testing.T) {
	forEachFn(t, corpus(10, 10), func(f *ir.Function, g *CFG) error {
		for i, b := range g.RPO {
			if g.RPOIdx[b] != i {
				return fmt.Errorf("RPOIdx[%d] = %d, want %d", b, g.RPOIdx[b], i)
			}
		}
		for b := range f.Blocks {
			if (g.DFSNum[b] < 0) != (g.RPOIdx[b] < 0) {
				return fmt.Errorf("reachability disagrees for block %d", b)
			}
		}
		return nil
	})
}
