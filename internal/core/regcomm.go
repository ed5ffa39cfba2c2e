package core

import (
	"slices"

	"multiscalar/internal/dataflow"
	"multiscalar/internal/ir"
)

// computeRegComm fills in each task's register communication metadata: the
// create mask (registers the task may write and therefore owns on the ring,
// filtered by dead-register analysis so dead values never travel) and the
// forward points (instructions that are provably the last definition of
// their register on every continuation path, letting the hardware send the
// value early instead of at task end). facts holds per-function dataflow
// solutions, writes per-function write summaries (fnWriteSummaries) and
// incl[fn][b] the included call blocks, each indexed by ir.FnID.
func computeRegComm(part *Partition, facts []*dataflow.Facts, writes []dataflow.RegSet, incl [][]bool) {
	maxBlocks := 0
	for _, f := range part.Prog.Fns {
		maxBlocks = max(maxBlocks, len(f.Blocks))
	}
	sc := &regCommScratch{blocks: make([]blockComm, maxBlocks)}
	for _, t := range part.Tasks {
		computeTaskRegComm(part.Prog, t, writes, facts[t.Fn], incl[t.Fn], sc)
	}
}

// regCommScratch holds computeTaskRegComm's per-block facts, indexed by
// block ID, and its forward points before they are copied out at their
// final size. It is reused across tasks: each task sets the entries of its
// own blocks before reading them.
type regCommScratch struct {
	blocks   []blockComm
	forwards []instrRef
}

// blockComm is what register communication knows of one member block.
type blockComm struct {
	cont   outcomes        // the block's CFG successors, split by continue edge
	def    dataflow.RegSet // own defs plus any included callee's writes
	reach  dataflow.RegSet // registers defined strictly later on a continuation path
	last   dataflow.RegSet // registers with a forward point in the block
	mustFw dataflow.RegSet // registers forwarded on every path from the block to an exit
}

// outcomes lists the successors a block continues to inside its task and
// whether any other outcome ends the task there.
type outcomes struct {
	succ  [2]ir.BlockID
	n     int
	exits bool
}

// fnWriteSummaries computes, for every function, the set of registers it or
// any transitive callee may write. Recursion is handled by fixpoint.
func fnWriteSummaries(p *ir.Program) []dataflow.RegSet {
	own := make([]dataflow.RegSet, len(p.Fns))
	for i, f := range p.Fns {
		var set dataflow.RegSet
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if d, ok := in.Def(); ok {
					set = set.Add(d)
				}
			}
		}
		own[i] = set
	}
	out := append([]dataflow.RegSet(nil), own...)
	for changed := true; changed; {
		changed = false
		for i, f := range p.Fns {
			for _, b := range f.Blocks {
				if b.Term.Kind != ir.TermCall {
					continue
				}
				merged := out[i].Union(out[b.Term.Callee])
				if merged != out[i] {
					out[i] = merged
					changed = true
				}
			}
		}
	}
	return out
}

func computeTaskRegComm(p *ir.Program, t *Task, fnWrites []dataflow.RegSet, fa *dataflow.Facts, incl []bool, sc *regCommScratch) {
	f := p.Fn(t.Fn)
	bc := sc.blocks
	var succBuf [2]ir.BlockID
	var callWrites dataflow.RegSet // regs written by included callees anywhere in the task
	edges := t.continues           // sorted by source; every source is a member
	for _, b := range t.Blocks {
		blk := f.Block(b)
		// The continue edges leaving b come next.
		k := 0
		for k < len(edges) && edges[k].from == b {
			k++
		}
		run := edges[:k]
		edges = edges[k:]
		// A return, a halt, a call whose callee is not included, or any
		// CFG successor not reached along a continue edge ends the task.
		c := outcomes{exits: blk.Term.Kind == ir.TermRet || blk.Term.Kind == ir.TermHalt ||
			(blk.Term.Kind == ir.TermCall && !incl[b])}
		for _, s := range blk.Succs(succBuf[:0]) {
			if slices.Contains(run, edge{from: b, to: s}) {
				c.succ[c.n] = s
				c.n++
			} else {
				c.exits = true
			}
		}
		bc[b].cont = c
		def := fa.Blocks[b].Def
		if incl[b] {
			cw := fnWrites[blk.Term.Callee]
			def = def.Union(cw)
			callWrites = callWrites.Union(cw)
		}
		bc[b].def = def
		t.CreateMask = t.CreateMask.Union(def)
	}

	// Dead-register analysis (the paper's §4.2 "dead register analysis for
	// register communication"): only registers live out of some task exit
	// need to travel on the ring. Exit points are blocks with at least one
	// non-continue outcome.
	var exitLive dataflow.RegSet
	for _, b := range t.Blocks {
		if bc[b].cont.exits {
			exitLive = exitLive.Union(fa.Blocks[b].LiveOut)
		}
	}
	t.CreateMask = t.CreateMask.Intersect(exitLive)
	callWrites = callWrites.Intersect(exitLive)

	// reach[b]: registers defined in blocks strictly after b on some
	// continuation path (via continue edges). Iterate to fixpoint over the
	// task's (acyclic) continue-edge subgraph. Both fixpoints below visit
	// the blocks in descending order, which mostly meets a block's
	// successors before the block; the fixpoint does not depend on the
	// order.
	for _, b := range t.Blocks {
		bc[b].reach = 0
	}
	for changed := true; changed; {
		changed = false
		for i := len(t.Blocks) - 1; i >= 0; i-- {
			b := t.Blocks[i]
			var out dataflow.RegSet
			c := &bc[b].cont
			for _, s := range c.succ[:c.n] {
				out = out.Union(bc[s].def).Union(bc[s].reach)
			}
			if out != bc[b].reach {
				bc[b].reach = out
				changed = true
			}
		}
	}

	// Mark last definitions. Registers written by included callees are never
	// early-forwarded (the callee body is opaque to the forward-point
	// analysis); they release at task end.
	fwd := sc.forwards[:0]
	t.endForward = callWrites
	for _, b := range t.Blocks {
		blk := f.Block(b)
		later := bc[b].reach
		if incl[b] {
			later = later.Union(fnWrites[blk.Term.Callee])
		}
		bc[b].last = 0
		n := len(fwd)
		for i := len(blk.Instrs) - 1; i >= 0; i-- {
			d, ok := blk.Instrs[i].Def()
			if !ok {
				continue
			}
			if !later.Has(d) && !callWrites.Has(d) {
				fwd = append(fwd, instrRef{blk: b, idx: i})
				bc[b].last = bc[b].last.Add(d)
			}
			later = later.Add(d)
		}
		slices.Reverse(fwd[n:]) // the block's forward points in index order
	}
	t.forwards = exactCopy(fwd)
	sc.forwards = fwd
	// endForward: registers in the create mask that are NOT guaranteed to hit
	// a forward point on every path from the task entry to an exit; those are
	// released when the task ends. Backward must-analysis over the (acyclic)
	// continue-edge subgraph: mustFw(b) = last(b) ∪ ⋂ outcomes(b), where an
	// exit outcome contributes the empty set.
	const all = ^dataflow.RegSet(0)
	for _, b := range t.Blocks {
		bc[b].mustFw = all // optimistic start for the greatest fixpoint
	}
	for changed := true; changed; {
		changed = false
		for i := len(t.Blocks) - 1; i >= 0; i-- {
			b := t.Blocks[i]
			c := &bc[b].cont
			meet := all
			if c.exits {
				meet = 0
			}
			for _, s := range c.succ[:c.n] {
				meet &= bc[s].mustFw
			}
			nv := bc[b].last.Union(meet)
			if nv != bc[b].mustFw {
				bc[b].mustFw = nv
				changed = true
			}
		}
	}
	t.endForward = t.endForward.Union(t.CreateMask.Minus(bc[t.Entry].mustFw))
}
