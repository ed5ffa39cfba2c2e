// Package dataflow implements the register dataflow analyses the paper's
// compiler uses: block-level def/use summaries, liveness, reaching
// definitions, def-use chains (the input to the data-dependence heuristic),
// and codependent sets (the blocks on all control-flow paths from a producer
// block to a consumer block).
//
// Only register dependences are analysed; memory dependences are left to the
// hardware (ARB + synchronization table), exactly as the paper does for
// pointer-heavy code.
package dataflow

import (
	"math/bits"
	"strings"

	"multiscalar/internal/cfganal"
	"multiscalar/internal/ir"
)

// RegSet is a bit set over the 64 architectural registers.
type RegSet uint64

// Add returns the set with register r added.
func (s RegSet) Add(r ir.Reg) RegSet { return s | 1<<uint(r) }

// Has reports whether register r is in the set.
func (s RegSet) Has(r ir.Reg) bool { return s&(1<<uint(r)) != 0 }

// Union returns the union of the two sets.
func (s RegSet) Union(t RegSet) RegSet { return s | t }

// Minus returns s with the members of t removed.
func (s RegSet) Minus(t RegSet) RegSet { return s &^ t }

// Intersect returns the registers present in both sets.
func (s RegSet) Intersect(t RegSet) RegSet { return s & t }

// Count returns the number of registers in the set.
func (s RegSet) Count() int {
	n := 0
	for v := uint64(s); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// String renders the set as "{r3 r5 f0}" in ascending register order.
func (s RegSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, r := range s.Regs() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(r.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// Regs returns the members in ascending order.
func (s RegSet) Regs() []ir.Reg {
	var out []ir.Reg
	for r := 0; r < ir.NumRegs; r++ {
		if s.Has(ir.Reg(r)) {
			out = append(out, ir.Reg(r))
		}
	}
	return out
}

// BlockFacts summarizes one basic block.
type BlockFacts struct {
	// Use is the set of registers read before any write in the block
	// (upward-exposed uses), including the branch condition register.
	Use RegSet
	// Def is the set of registers written anywhere in the block.
	Def RegSet
	// LiveIn/LiveOut are the liveness solutions.
	LiveIn, LiveOut RegSet
}

// DefUseEdge is a register dependence from a definition in one block to an
// upward-exposed use in another (or the same) block, at block granularity —
// the granularity at which the paper's data-dependence heuristic works.
type DefUseEdge struct {
	Reg ir.Reg
	Def ir.BlockID // block containing the reaching definition
	Use ir.BlockID // block with the exposed use
	// Freq is the profiled execution frequency of the dependence (filled by
	// the caller from profile data; zero when no profile is attached).
	Freq uint64
}

// Facts holds the dataflow solutions for one function.
type Facts struct {
	Fn     *ir.Function
	G      *cfganal.CFG
	Blocks []BlockFacts
	// Edges are the def-use edges across blocks, deterministically ordered.
	Edges []DefUseEdge
}

// Analyze computes all register dataflow facts for the function.
func Analyze(g *cfganal.CFG) *Facts {
	f := g.Fn
	n := len(f.Blocks)
	facts := &Facts{Fn: f, G: g, Blocks: make([]BlockFacts, n)}
	for i, b := range f.Blocks {
		use, def := blockUseDef(b)
		facts.Blocks[i] = BlockFacts{Use: use, Def: def}
	}
	facts.liveness()
	facts.defUseEdges()
	return facts
}

// blockUseDef computes the upward-exposed uses and the definitions of a
// block, including the terminator's condition register.
func blockUseDef(b *ir.Block) (use, def RegSet) {
	var scratch [2]ir.Reg
	for _, in := range b.Instrs {
		for _, r := range in.Uses(scratch[:0]) {
			if r != ir.RegZero && !def.Has(r) {
				use = use.Add(r)
			}
		}
		if d, ok := in.Def(); ok {
			def = def.Add(d)
		}
	}
	if b.Term.Kind == ir.TermBr {
		if c := b.Term.Cond; c != ir.RegZero && !def.Has(c) {
			use = use.Add(c)
		}
	}
	return use, def
}

// liveness solves backward liveness over the CFG. Calls are treated as
// reading and preserving all registers (our calling convention is
// caller-managed), and returns/halts conservatively treat every register as
// live-out of the function so that cross-function dependences are never
// dropped.
func (fa *Facts) liveness() {
	const allLive = ^RegSet(0)
	for changed := true; changed; {
		changed = false
		// Iterate in reverse RPO (postorder) for fast convergence.
		for i := len(fa.G.RPO) - 1; i >= 0; i-- {
			b := fa.G.RPO[i]
			blk := fa.Fn.Block(b)
			var out RegSet
			switch blk.Term.Kind {
			case ir.TermRet, ir.TermHalt:
				out = allLive
			case ir.TermCall:
				// The callee may read anything; its return continues at Fall.
				out = allLive
			default:
				for _, s := range fa.G.Succs[b] {
					out = out.Union(fa.Blocks[s].LiveIn)
				}
			}
			in := fa.Blocks[b].Use.Union(out.Minus(fa.Blocks[b].Def))
			if in != fa.Blocks[b].LiveIn || out != fa.Blocks[b].LiveOut {
				fa.Blocks[b].LiveIn = in
				fa.Blocks[b].LiveOut = out
				changed = true
			}
		}
	}
}

// defUseEdges computes block-granularity def-use chains as reaching
// definitions over bit sets of def sites. A def site is a (register, block)
// pair whose block writes the register; sites are numbered by register, then
// by block, so one register's sites are a contiguous range: a block's kill
// clears one range per register it defines, and a join is a word OR.
func (fa *Facts) defUseEdges() {
	n := len(fa.Fn.Blocks)
	// start[r] is register r's first site, start[r+1] one past its last.
	var start [ir.NumRegs + 1]int
	for _, bf := range fa.Blocks {
		for d := uint64(bf.Def); d != 0; d &= d - 1 {
			start[bits.TrailingZeros64(d)+1]++
		}
	}
	for r := 0; r < ir.NumRegs; r++ {
		start[r+1] += start[r]
	}
	// siteBlock maps a site to its block; block b generates the sites
	// gen[genAt[b]:genAt[b+1]].
	siteBlock := make([]ir.BlockID, start[ir.NumRegs])
	gen := make([]int, 0, len(siteBlock))
	genAt := make([]int, n+1)
	next := start
	for b, bf := range fa.Blocks {
		for d := uint64(bf.Def); d != 0; d &= d - 1 {
			r := bits.TrailingZeros64(d)
			siteBlock[next[r]] = ir.BlockID(b)
			gen = append(gen, next[r])
			next[r]++
		}
		genAt[b+1] = len(gen)
	}

	// reachIn[b*w:(b+1)*w] holds the sites reaching the entry of block b; one
	// more w-word slot past the last block holds a block's out set.
	w := (len(siteBlock) + 63) / 64
	reachIn := make([]uint64, (n+1)*w)
	out := reachIn[n*w:]
	for changed := true; changed; {
		changed = false
		for _, b := range fa.G.RPO {
			if stops(fa.Fn.Block(b).Term.Kind) {
				// Dependences across calls/returns are inter-procedural; the
				// paper terminates tasks there, so chains stop too.
				continue
			}
			copy(out, reachIn[int(b)*w:])
			for d := uint64(fa.Blocks[b].Def); d != 0; d &= d - 1 {
				r := bits.TrailingZeros64(d)
				clearRange(out, start[r], start[r+1])
			}
			for _, site := range gen[genAt[b]:genAt[b+1]] {
				out[site>>6] |= 1 << (site & 63)
			}
			for _, s := range fa.G.Succs[b] {
				in := reachIn[int(s)*w : int(s+1)*w]
				for i, v := range out {
					if v&^in[i] != 0 {
						in[i] |= v
						changed = true
					}
				}
			}
		}
	}

	// chains visits every chain in (use, register, def) order. A counting
	// sort by def block turns that into the (def, use, register) order: one
	// pass counts each def block's chains, the next places each chain in its
	// def block's next slot.
	chains := func(visit func(DefUseEdge)) {
		for b := 0; b < n; b++ {
			in := reachIn[b*w : (b+1)*w]
			for u := uint64(fa.Blocks[b].Use); u != 0; u &= u - 1 {
				r := bits.TrailingZeros64(u)
				for site := start[r]; site < start[r+1]; site++ {
					if d := siteBlock[site]; in[site>>6]&(1<<(site&63)) != 0 && d != ir.BlockID(b) {
						visit(DefUseEdge{Reg: ir.Reg(r), Def: d, Use: ir.BlockID(b)})
					}
				}
			}
		}
	}
	slot := make([]int, n+1)
	chains(func(e DefUseEdge) { slot[e.Def+1]++ })
	for b := 0; b < n; b++ {
		slot[b+1] += slot[b]
	}
	if slot[n] == 0 {
		return
	}
	fa.Edges = make([]DefUseEdge, slot[n])
	chains(func(e DefUseEdge) {
		fa.Edges[slot[e.Def]] = e
		slot[e.Def]++
	})
}

// clearRange clears bits lo through hi-1 of the bit set.
func clearRange(set []uint64, lo, hi int) {
	for lo < hi {
		w := lo >> 6
		mask := ^uint64(0) << (lo & 63)
		if end := (w + 1) << 6; hi < end {
			mask &= 1<<(hi&63) - 1
			lo = hi
		} else {
			lo = end
		}
		set[w] &^= mask
	}
}

// stops reports whether a terminator ends every intra-procedural path
// through its block: calls, returns and halts.
func stops(k ir.TermKind) bool {
	return k == ir.TermCall || k == ir.TermRet || k == ir.TermHalt
}

// Codependent returns the codependent set of the def-use edge as a dense set
// indexed by block ID: every block on some control-flow path from e.Def to
// e.Use (endpoints included). Paths never extend through call/ret/halt
// terminators, matching how the chains were built.
//
// The set is forward reach from the def intersected with backward reach from
// the use. A block on a path to the use is forward-reachable whenever the
// path's first block is, so the backward walk only visits forward-reachable
// blocks and its visited set is the intersection.
func (fa *Facts) Codependent(e DefUseEdge) []bool {
	n := len(fa.Fn.Blocks)
	marks := make([]bool, 2*n)
	fwd, set := marks[:n], marks[n:]
	work := make([]ir.BlockID, 0, n)
	fwd[e.Def] = true
	work = append(work, e.Def)
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if stops(fa.Fn.Block(b).Term.Kind) {
			continue
		}
		for _, s := range fa.G.Succs[b] {
			if !fwd[s] {
				fwd[s] = true
				work = append(work, s)
			}
		}
	}
	set[e.Use] = true
	work = append(work, e.Use)
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range fa.G.Preds[b] {
			if fwd[p] && !set[p] && !stops(fa.Fn.Block(p).Term.Kind) {
				set[p] = true
				work = append(work, p)
			}
		}
	}
	set[e.Def] = true
	return set
}
