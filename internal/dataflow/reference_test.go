package dataflow_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"multiscalar/internal/cfganal"
	"multiscalar/internal/core"
	"multiscalar/internal/dataflow"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	"multiscalar/internal/workloads"
)

// The reference models below are the map-based chain builder and
// reachability walk the bit-set analyses replaced. They are deliberately
// simple; the differential tests hold the fast versions to them.

// refDefUseEdges computes block-granularity def-use chains by propagating,
// per block and register, the set of blocks whose definition reaches the
// block's entry.
func refDefUseEdges(fa *dataflow.Facts) []dataflow.DefUseEdge {
	n := len(fa.Fn.Blocks)
	reachIn := make([]map[ir.Reg]map[ir.BlockID]bool, n)
	for i := range reachIn {
		reachIn[i] = make(map[ir.Reg]map[ir.BlockID]bool)
	}
	outOf := func(b ir.BlockID) map[ir.Reg]map[ir.BlockID]bool {
		out := make(map[ir.Reg]map[ir.BlockID]bool)
		def := fa.Blocks[b].Def
		for r, defs := range reachIn[b] {
			if def.Has(r) {
				continue // killed
			}
			out[r] = defs
		}
		for _, r := range def.Regs() {
			out[r] = map[ir.BlockID]bool{b: true}
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for _, b := range fa.G.RPO {
			if refStops(fa, b) {
				continue
			}
			out := outOf(b)
			for _, s := range fa.G.Succs[b] {
				for r, defs := range out {
					m := reachIn[s][r]
					if m == nil {
						m = make(map[ir.BlockID]bool)
						reachIn[s][r] = m
					}
					for d := range defs {
						if !m[d] {
							m[d] = true
							changed = true
						}
					}
				}
			}
		}
	}
	var edges []dataflow.DefUseEdge
	seen := make(map[dataflow.DefUseEdge]bool)
	for b := 0; b < n; b++ {
		for _, r := range fa.Blocks[b].Use.Regs() {
			for d := range reachIn[b][r] {
				e := dataflow.DefUseEdge{Reg: r, Def: d, Use: ir.BlockID(b)}
				if d != ir.BlockID(b) && !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Def != b.Def {
			return a.Def < b.Def
		}
		if a.Use != b.Use {
			return a.Use < b.Use
		}
		return a.Reg < b.Reg
	})
	return edges
}

// refCodependent intersects two independent walks: forward from the def and
// backward from the use, neither passing through a call/ret/halt block.
func refCodependent(fa *dataflow.Facts, e dataflow.DefUseEdge) map[ir.BlockID]bool {
	fwd := refReach(fa, e.Def, false)
	bwd := refReach(fa, e.Use, true)
	set := make(map[ir.BlockID]bool)
	for b := range fwd {
		if bwd[b] {
			set[b] = true
		}
	}
	set[e.Def] = true
	set[e.Use] = true
	return set
}

func refReach(fa *dataflow.Facts, from ir.BlockID, backward bool) map[ir.BlockID]bool {
	seen := map[ir.BlockID]bool{from: true}
	work := []ir.BlockID{from}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		var next []ir.BlockID
		if backward {
			next = fa.G.Preds[b]
		} else {
			if refStops(fa, b) {
				continue
			}
			next = fa.G.Succs[b]
		}
		for _, s := range next {
			if backward && refStops(fa, s) {
				continue
			}
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

func refStops(fa *dataflow.Facts, b ir.BlockID) bool {
	k := fa.Fn.Block(b).Term.Kind
	return k == ir.TermCall || k == ir.TermRet || k == ir.TermHalt
}

// checkAgainstReference compares the chains and every chain's codependent
// set on each function of p, before and after loop restructuring (which
// Select applies to every program before analysing it). It returns the
// number of chains compared.
func checkAgainstReference(t *testing.T, name string, p *ir.Program) int {
	t.Helper()
	p = ir.Clone(p)
	compared := 0
	for _, stage := range []string{"input", "restructured"} {
		if stage == "restructured" {
			core.RestructureLoops(p)
		}
		for _, f := range p.Fns {
			fa := dataflow.Analyze(cfganal.Analyze(f))
			want := refDefUseEdges(fa)
			if !reflect.DeepEqual(fa.Edges, want) {
				t.Fatalf("%s %s fn %s: chains differ from the reference\n got %v\nwant %v", name, stage, f.Name, fa.Edges, want)
			}
			for _, e := range fa.Edges {
				got := fa.Codependent(e)
				ref := refCodependent(fa, e)
				for b := range got {
					if got[b] != ref[ir.BlockID(b)] {
						t.Fatalf("%s %s fn %s edge %+v: block %d codependent=%v, reference %v",
							name, stage, f.Name, e, b, got[b], ref[ir.BlockID(b)])
					}
				}
			}
			compared += len(fa.Edges)
		}
	}
	return compared
}

// TestDefUseEdgesMatchReference holds the bit-set chains and the dense
// codependent walk to the reference models on every function of the 18
// workloads and of 400 generated programs.
func TestDefUseEdgesMatchReference(t *testing.T) {
	chains := 0
	for _, w := range workloads.All() {
		chains += checkAgainstReference(t, w.Name, w.Build())
	}
	programs := 400
	if testing.Short() {
		programs = 50
	}
	for i := 0; i < programs; i++ {
		p := gen.CorpusParams(1, i)
		chains += checkAgainstReference(t, p.Key(), gen.Generate(p))
	}
	if chains == 0 {
		t.Fatal("no def-use chains compared")
	}
	t.Logf("%d chains match the reference", chains)
}

// FuzzDefUseEdges holds the bit-set chains and codependent sets to the
// reference models over the generator's parameter space: the seed and index
// pick a gen.CorpusParams point, as in FuzzVerifyPartition.
func FuzzDefUseEdges(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(1), uint16(7))
	f.Add(int64(42), uint16(63))
	f.Add(int64(-7), uint16(1234))
	f.Fuzz(func(t *testing.T, seed int64, i uint16) {
		p := gen.CorpusParams(seed, int(i))
		checkAgainstReference(t, fmt.Sprintf("seed %d index %d", seed, i), gen.Generate(p))
	})
}
