package core

import (
	"multiscalar/internal/cfganal"
	"multiscalar/internal/ir"
)

// ApplyTaskSize applies the task-size heuristic's code transformations to the
// program in place (callers pass a clone):
//
//   - Innermost loops whose static body is under LOOP_THRESH instructions are
//     unrolled until the body reaches the threshold, so short loop bodies
//     form adequately sized tasks.
//   - Induction-variable increments are hoisted from the loop latch to the
//     top of the header (with a compensating decrement in a new preheader),
//     so successor iterations receive induction values without waiting for
//     the previous task to end.
//
// The CALL_THRESH part of the heuristic (including short callees inside
// tasks) does not transform code; it is applied during selection. Returns
// whether anything changed.
func ApplyTaskSize(p *ir.Program, opts Options) bool {
	opts = opts.withDefaults()
	changed := false
	for _, f := range p.Fns {
		for unrollOnce(f, opts.LoopThresh) {
			changed = true
		}
	}
	if changed {
		p.Layout()
	}
	return changed
}

// RestructureLoops applies the always-on Multiscalar loop restructuring the
// paper compiles every binary with (§4.2 "loop restructuring ... and
// register communication scheduling"): induction-variable increments move to
// the top of their loops so successor tasks receive induction values without
// waiting for the predecessor to finish. It must run before any unrolling —
// an unrolled loop has one increment per iteration copy and no longer
// satisfies the single-definition hoisting condition. Returns whether
// anything changed.
func RestructureLoops(p *ir.Program) bool {
	_, changed := restructureLoops(p)
	return changed
}

// restructureLoops is RestructureLoops that also returns each function's CFG
// after restructuring, indexed by ir.FnID: the analysis of its last hoisting
// pass, the one that hoisted nothing. Layout assigns addresses only, so the
// analysis stays exact after it.
func restructureLoops(p *ir.Program) ([]*cfganal.CFG, bool) {
	cfgs := make([]*cfganal.CFG, len(p.Fns))
	changed := false
	for i, f := range p.Fns {
		var hoisted bool
		cfgs[i], hoisted = hoistInductions(f)
		changed = changed || hoisted
	}
	if changed {
		p.Layout()
	}
	return cfgs, changed
}

// unrollOnce finds one innermost loop under the threshold and unrolls it,
// returning whether it did. Callers loop until fixpoint; termination is
// guaranteed because an unrolled loop's body reaches the threshold.
func unrollOnce(f *ir.Function, thresh int) bool {
	g := analyzeCFG(f)
	for _, l := range g.Loops {
		if hasChild(g, l) {
			continue
		}
		size := l.NumInstrs(f)
		if size >= thresh || size == 0 {
			continue
		}
		k := (thresh + size - 1) / size // total iterations in the unrolled body
		if k < 2 {
			continue
		}
		unrollLoop(f, l, k)
		return true
	}
	return false
}

func hasChild(g *cfganal.CFG, l *cfganal.Loop) bool {
	for _, other := range g.Loops {
		if other.Parent == l {
			return true
		}
	}
	return false
}

// unrollLoop replicates the loop body k-1 times. Iteration copies are chained
// through their back edges (copy i's back edge enters copy i+1's header; the
// last copy's back edge returns to the original header), and exit edges from
// every copy go to the original exit targets, preserving semantics for any
// trip count.
func unrollLoop(f *ir.Function, l *cfganal.Loop, k int) {
	// blockMap[c][orig] = BlockID of orig's copy in iteration copy c (1-based;
	// iteration 0 is the original).
	blockMap := make([]map[ir.BlockID]ir.BlockID, k)
	for c := 1; c < k; c++ {
		blockMap[c] = make(map[ir.BlockID]ir.BlockID, len(l.Blocks))
		for _, b := range l.Blocks {
			id := ir.BlockID(len(f.Blocks))
			nb := &ir.Block{ID: id, Instrs: append([]ir.Instr(nil), f.Block(b).Instrs...), Term: f.Block(b).Term}
			f.Blocks = append(f.Blocks, nb)
			blockMap[c][b] = id
		}
	}
	// retarget rewrites one terminator target for iteration copy c.
	retarget := func(c int, t ir.BlockID) ir.BlockID {
		if !l.Contains(t) {
			return t // exit edge: original target
		}
		if t == l.Header {
			// Back edge: next iteration copy, wrapping to the original.
			next := (c + 1) % k
			if next == 0 {
				return l.Header
			}
			return blockMap[next][l.Header]
		}
		if c == 0 {
			return t
		}
		return blockMap[c][t]
	}
	for c := 0; c < k; c++ {
		for _, b := range l.Blocks {
			var blk *ir.Block
			if c == 0 {
				blk = f.Block(b)
			} else {
				blk = f.Block(blockMap[c][b])
			}
			switch blk.Term.Kind {
			case ir.TermGoto:
				blk.Term.Taken = retarget(c, blk.Term.Taken)
			case ir.TermBr:
				blk.Term.Taken = retarget(c, blk.Term.Taken)
				blk.Term.Fall = retarget(c, blk.Term.Fall)
			case ir.TermCall:
				blk.Term.Fall = retarget(c, blk.Term.Fall)
			}
		}
	}
}

// hoistInductions applies the paper's induction-variable scheduling ("we move
// the induction variable increments to the top of the loops so that later
// iterations get the values of the induction variables from earlier
// iterations without any delay"). For each loop with a single latch ending in
// an unconditional jump to the header, an increment `addi r, r, c` in the
// latch — where r has no other definition in the loop and no use after the
// increment inside the latch — is moved to the front of the header, with a
// compensating `addi r, r, -c` in a fresh preheader. The net value of r at
// every original observation point is unchanged. Each hoist changes the CFG,
// so the function is analyzed again before the next one; the analysis that
// finds nothing to hoist is returned with whether anything was hoisted.
func hoistInductions(f *ir.Function) (*cfganal.CFG, bool) {
	changed := false
	for {
		g := analyzeCFG(f)
		hoisted := false
		for _, l := range g.Loops {
			if len(l.Latches) != 1 {
				continue
			}
			latch := f.Block(l.Latches[0])
			if latch.Term.Kind != ir.TermGoto || latch.Term.Taken != l.Header {
				continue
			}
			idx := findInduction(f, l, latch)
			if idx < 0 {
				continue
			}
			inc := latch.Instrs[idx]
			// Remove from latch, prepend to header.
			latch.Instrs = append(latch.Instrs[:idx], latch.Instrs[idx+1:]...)
			header := f.Block(l.Header)
			header.Instrs = append([]ir.Instr{inc}, header.Instrs...)
			insertPreheader(f, g, l, ir.Instr{Op: ir.OpAddI, Dst: inc.Dst, Src1: inc.Src1, Imm: -inc.Imm})
			changed = true
			hoisted = true
			break // CFG changed; re-analyze
		}
		if !hoisted {
			return g, changed
		}
	}
}

// findInduction returns the index in the latch of a hoistable increment, or
// -1. See hoistInductions for the conditions.
func findInduction(f *ir.Function, l *cfganal.Loop, latch *ir.Block) int {
	defCount := make(map[ir.Reg]int)
	for _, b := range l.Blocks {
		for _, in := range f.Block(b).Instrs {
			if d, ok := in.Def(); ok {
				defCount[d]++
			}
		}
		if t := f.Block(b); t.Term.Kind == ir.TermCall {
			return -1 // calls inside the loop may write anything
		}
	}
	var scratch [2]ir.Reg
	for i, in := range latch.Instrs {
		if in.Op != ir.OpAddI || in.Dst != in.Src1 || in.Dst == ir.RegZero {
			continue
		}
		if defCount[in.Dst] != 1 {
			continue
		}
		usedAfter := false
		for _, later := range latch.Instrs[i+1:] {
			for _, u := range later.Uses(scratch[:0]) {
				if u == in.Dst {
					usedAfter = true
				}
			}
			if d, ok := later.Def(); ok && d == in.Dst {
				usedAfter = true // shadowing def would double-count
			}
		}
		if usedAfter {
			continue
		}
		return i
	}
	return -1
}

// insertPreheader creates a block holding the compensating instruction and
// redirects every loop entry edge (and the function entry, if the header is
// the entry) through it.
func insertPreheader(f *ir.Function, g *cfganal.CFG, l *cfganal.Loop, comp ir.Instr) {
	pre := &ir.Block{
		ID:     ir.BlockID(len(f.Blocks)),
		Instrs: []ir.Instr{comp},
		Term:   ir.Terminator{Kind: ir.TermGoto, Taken: l.Header},
	}
	f.Blocks = append(f.Blocks, pre)
	for _, p := range g.Preds[l.Header] {
		if l.Contains(p) {
			continue // back edge stays on the header
		}
		blk := f.Block(p)
		switch blk.Term.Kind {
		case ir.TermGoto:
			if blk.Term.Taken == l.Header {
				blk.Term.Taken = pre.ID
			}
		case ir.TermBr:
			if blk.Term.Taken == l.Header {
				blk.Term.Taken = pre.ID
			}
			if blk.Term.Fall == l.Header {
				blk.Term.Fall = pre.ID
			}
		case ir.TermCall:
			if blk.Term.Fall == l.Header {
				blk.Term.Fall = pre.ID
			}
		}
	}
	if f.Entry == l.Header {
		f.Entry = pre.ID
	}
}
