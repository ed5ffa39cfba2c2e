// Package cfganal provides the control-flow-graph analyses the task selector
// needs: depth-first numbering (used by the paper's is_a_terminal_edge test),
// dominators, and natural-loop detection with loop nesting.
//
// All analyses are per-function and treat a call's return-to block as the
// only successor of a call block, matching the IR's CFG definition.
package cfganal

import (
	"fmt"

	"multiscalar/internal/ir"
)

// CFG caches the analyses for one function. Build it once with Analyze and
// share it; it is immutable afterwards.
type CFG struct {
	Fn *ir.Function

	// Succs and Preds are the static successor/predecessor lists per block.
	Succs [][]ir.BlockID
	Preds [][]ir.BlockID

	// DFSNum is the depth-first discovery order of each block starting at the
	// entry (entry = 0). Unreachable blocks have DFSNum -1. The paper marks an
	// edge (blk, ch) terminal when dfs_num(blk) < dfs_num(ch) is FALSE — i.e.
	// back edges (dfs_num(ch) <= dfs_num(blk)) terminate tasks.
	DFSNum []int

	// RPO is the reverse postorder of reachable blocks, for dataflow.
	RPO []ir.BlockID

	// RPOIdx is each block's position in RPO (-1 if unreachable). This is the
	// numbering the terminal-edge test uses: in reverse postorder, every
	// forward and reconverging (cross) edge strictly increases, so only
	// retreating (loop back) edges fail dfs_num(blk) < dfs_num(ch).
	RPOIdx []int

	// IDom is the immediate dominator of each block (entry's is itself;
	// unreachable blocks have NoBlock).
	IDom []ir.BlockID

	// Loops are the natural loops, outermost first.
	Loops []*Loop

	// LoopOf maps a block to the innermost loop containing it (nil if none).
	LoopOf []*Loop
}

// Loop is a natural loop identified by its header and back edges.
type Loop struct {
	Header ir.BlockID
	// Blocks are the members of the loop body, header included, in ascending
	// block order.
	Blocks []ir.BlockID
	// Latches are the sources of the back edges into the header.
	Latches []ir.BlockID
	// Parent is the enclosing loop, nil for outermost loops.
	Parent *Loop
	// Depth is 1 for outermost loops.
	Depth int

	inLoop map[ir.BlockID]bool
}

// Contains reports whether the loop body includes the block.
func (l *Loop) Contains(b ir.BlockID) bool { return l.inLoop[b] }

// NumInstrs returns the static instruction count of the loop body
// (terminators included).
func (l *Loop) NumInstrs(f *ir.Function) int {
	n := 0
	for _, id := range l.Blocks {
		n += f.Block(id).Len()
	}
	return n
}

// Analyze runs all analyses over the function.
func Analyze(f *ir.Function) *CFG {
	n := len(f.Blocks)
	g := &CFG{
		Fn:     f,
		Succs:  make([][]ir.BlockID, n),
		Preds:  make([][]ir.BlockID, n),
		DFSNum: make([]int, n),
		IDom:   make([]ir.BlockID, n),
		LoopOf: make([]*Loop, n),
	}
	for i, b := range f.Blocks {
		g.Succs[i] = b.Succs(nil)
		g.DFSNum[i] = -1
		g.IDom[i] = ir.NoBlock
	}
	for i := range g.Succs {
		for _, s := range g.Succs[i] {
			g.Preds[s] = append(g.Preds[s], ir.BlockID(i))
		}
	}
	g.dfs()
	g.dominators()
	g.findLoops()
	return g
}

// dfs computes DFSNum (discovery order) and RPO using an iterative DFS that
// visits successors in their static order, matching the task selector's
// traversal order.
func (g *CFG) dfs() {
	n := len(g.Succs)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	post := make([]ir.BlockID, 0, n)
	type frame struct {
		b    ir.BlockID
		next int
	}
	stack := []frame{{b: g.Fn.Entry}}
	num := 0
	g.DFSNum[g.Fn.Entry] = num
	num++
	state[g.Fn.Entry] = 1
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(g.Succs[fr.b]) {
			s := g.Succs[fr.b][fr.next]
			fr.next++
			if state[s] == 0 {
				state[s] = 1
				g.DFSNum[s] = num
				num++
				stack = append(stack, frame{b: s})
			}
			continue
		}
		state[fr.b] = 2
		post = append(post, fr.b)
		stack = stack[:len(stack)-1]
	}
	g.RPO = make([]ir.BlockID, len(post))
	for i, b := range post {
		g.RPO[len(post)-1-i] = b
	}
	g.RPOIdx = make([]int, n)
	for i := range g.RPOIdx {
		g.RPOIdx[i] = -1
	}
	for i, b := range g.RPO {
		g.RPOIdx[b] = i
	}
}

// dominators computes immediate dominators with the Cooper-Harvey-Kennedy
// iterative algorithm over the reverse postorder.
func (g *CFG) dominators() {
	rpoIndex := make([]int, len(g.Succs))
	for i := range rpoIndex {
		rpoIndex[i] = -1
	}
	for i, b := range g.RPO {
		rpoIndex[b] = i
	}
	entry := g.Fn.Entry
	g.IDom[entry] = entry
	intersect := func(a, b ir.BlockID) ir.BlockID {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = g.IDom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = g.IDom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.RPO {
			if b == entry {
				continue
			}
			var newIDom ir.BlockID = ir.NoBlock
			for _, p := range g.Preds[b] {
				if g.IDom[p] == ir.NoBlock {
					continue
				}
				if newIDom == ir.NoBlock {
					newIDom = p
				} else {
					newIDom = intersect(newIDom, p)
				}
			}
			if newIDom != ir.NoBlock && g.IDom[b] != newIDom {
				g.IDom[b] = newIDom
				changed = true
			}
		}
	}
}

// Dominates reports whether a dominates b (reflexive).
func (g *CFG) Dominates(a, b ir.BlockID) bool {
	if g.DFSNum[b] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := g.IDom[b]
		if next == b || next == ir.NoBlock {
			return false
		}
		b = next
	}
}

// findLoops detects natural loops from back edges (edges whose target
// dominates their source), merges loops sharing a header, and computes
// nesting by body containment.
func (g *CFG) findLoops() {
	byHeader := make(map[ir.BlockID]*Loop)
	var headers []ir.BlockID
	for b := range g.Succs {
		src := ir.BlockID(b)
		if g.DFSNum[src] < 0 {
			continue
		}
		for _, dst := range g.Succs[src] {
			if !g.Dominates(dst, src) {
				continue
			}
			l := byHeader[dst]
			if l == nil {
				l = &Loop{Header: dst, inLoop: map[ir.BlockID]bool{dst: true}}
				byHeader[dst] = l
				headers = append(headers, dst)
			}
			l.Latches = append(l.Latches, src)
			// Walk predecessors backwards from the latch to the header.
			work := []ir.BlockID{src}
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				if l.inLoop[x] {
					continue
				}
				l.inLoop[x] = true
				for _, p := range g.Preds[x] {
					if g.DFSNum[p] >= 0 {
						work = append(work, p)
					}
				}
			}
		}
	}
	for _, h := range headers {
		l := byHeader[h]
		for b := range g.Succs {
			if l.inLoop[ir.BlockID(b)] {
				l.Blocks = append(l.Blocks, ir.BlockID(b))
			}
		}
	}
	// Nesting: loop A is inside loop B when B contains A's header and A != B.
	// Choose the smallest enclosing body as the parent.
	for _, h := range headers {
		l := byHeader[h]
		var parent *Loop
		for _, h2 := range headers {
			outer := byHeader[h2]
			if outer == l || !outer.inLoop[l.Header] || len(outer.Blocks) <= len(l.Blocks) {
				continue
			}
			if parent == nil || len(outer.Blocks) < len(parent.Blocks) {
				parent = outer
			}
		}
		l.Parent = parent
	}
	for _, h := range headers {
		l := byHeader[h]
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	// Outermost first, then by header for determinism.
	for d := 1; ; d++ {
		found := false
		for _, h := range headers {
			if byHeader[h].Depth == d {
				g.Loops = append(g.Loops, byHeader[h])
				found = true
			}
		}
		if !found {
			break
		}
	}
	// Innermost loop per block.
	for _, l := range g.Loops { // outermost first, inner overwrite
		for _, b := range l.Blocks {
			g.LoopOf[b] = l
		}
	}
}

// IsBackEdge reports whether the edge src->dst is retreating — the edges the
// paper's is_a_terminal_edge treats as terminal (terminal iff
// !(num(src) < num(dst)) under reverse-postorder numbering, so reconverging
// cross edges remain includable and only loop-closing edges terminate).
func (g *CFG) IsBackEdge(src, dst ir.BlockID) bool {
	return g.RPOIdx[src] >= g.RPOIdx[dst]
}

// IsTerminalEdge reports whether the edge src->dst must terminate any task
// it leaves: retreating (back) edges plus the loop entry/exit rules of the
// paper's task-size discussion. This is the shared is_a_terminal_edge test
// used by both the task selector (internal/core) and the static verifier
// (internal/verify), so the two can never disagree about task boundaries.
func (g *CFG) IsTerminalEdge(src, dst ir.BlockID) bool {
	return g.IsBackEdge(src, dst) || g.IsLoopEntryEdge(src, dst) || g.IsLoopExitEdge(src, dst)
}

// IsLoopExitEdge reports whether src->dst leaves the innermost loop
// containing src.
func (g *CFG) IsLoopExitEdge(src, dst ir.BlockID) bool {
	l := g.LoopOf[src]
	return l != nil && !l.Contains(dst)
}

// IsLoopEntryEdge reports whether src->dst enters a loop that does not
// contain src (dst is inside a loop src is not in).
func (g *CFG) IsLoopEntryEdge(src, dst ir.BlockID) bool {
	l := g.LoopOf[dst]
	if l == nil {
		return false
	}
	for cur := l; cur != nil; cur = cur.Parent {
		if !cur.Contains(src) {
			return true
		}
	}
	return false
}

// String summarizes the analysis for debugging.
func (g *CFG) String() string {
	s := fmt.Sprintf("cfg %s: %d blocks, %d loops", g.Fn.Name, len(g.Succs), len(g.Loops))
	return s
}
