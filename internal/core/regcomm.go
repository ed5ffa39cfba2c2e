package core

import (
	"multiscalar/internal/dataflow"
	"multiscalar/internal/ir"
)

// computeRegComm fills in each task's register communication metadata: the
// create mask (registers the task may write and therefore owns on the ring,
// filtered by dead-register analysis so dead values never travel) and the
// forward points (instructions that are provably the last definition of
// their register on every continuation path, letting the hardware send the
// value early instead of at task end). facts holds per-function dataflow
// solutions and writes per-function write summaries (fnWriteSummaries), both
// indexed by ir.FnID; members[id] lists task id's blocks.
func computeRegComm(part *Partition, facts []*dataflow.Facts, members [][]ir.BlockID, writes []dataflow.RegSet) {
	maxBlocks := 0
	for _, f := range part.Prog.Fns {
		maxBlocks = max(maxBlocks, len(f.Blocks))
	}
	sc := &regCommScratch{
		cont:   make([]outcomes, maxBlocks),
		def:    make([]dataflow.RegSet, maxBlocks),
		reach:  make([]dataflow.RegSet, maxBlocks),
		last:   make([]dataflow.RegSet, maxBlocks),
		mustFw: make([]dataflow.RegSet, maxBlocks),
	}
	for _, t := range part.Tasks {
		computeTaskRegComm(part.Prog, t, members[t.ID], writes, facts[t.Fn], sc)
	}
}

// regCommScratch holds computeTaskRegComm's per-block facts, indexed by
// block ID and reused across tasks: each task sets the entries of its own
// blocks before reading them.
type regCommScratch struct {
	cont   []outcomes        // the block's CFG successors, split by continue edge
	def    []dataflow.RegSet // own defs plus any included callee's writes
	reach  []dataflow.RegSet // registers defined strictly later on a continuation path
	last   []dataflow.RegSet // registers with a forward point in the block
	mustFw []dataflow.RegSet // registers forwarded on every path from the block to an exit
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

func computeTaskRegComm(p *ir.Program, t *Task, blocks []ir.BlockID, fnWrites []dataflow.RegSet, fa *dataflow.Facts, sc *regCommScratch) {
	f := p.Fn(t.Fn)
	var succBuf [2]ir.BlockID
	var callWrites dataflow.RegSet // regs written by included callees anywhere in the task
	for _, b := range blocks {
		blk := f.Block(b)
		// A return, a halt, a call whose callee is not included, or any
		// CFG successor not reached along a continue edge ends the task.
		c := outcomes{exits: blk.Term.Kind == ir.TermRet || blk.Term.Kind == ir.TermHalt ||
			(blk.Term.Kind == ir.TermCall && !t.IncludeCall[b])}
		for _, s := range blk.Succs(succBuf[:0]) {
			if t.Continues(b, s) {
				c.succ[c.n] = s
				c.n++
			} else {
				c.exits = true
			}
		}
		sc.cont[b] = c
		var def dataflow.RegSet
		for _, in := range blk.Instrs {
			if d, ok := in.Def(); ok {
				def = def.Add(d)
			}
		}
		if t.IncludeCall[b] {
			cw := fnWrites[blk.Term.Callee]
			def = def.Union(cw)
			callWrites = callWrites.Union(cw)
		}
		sc.def[b] = def
		t.CreateMask = t.CreateMask.Union(def)
	}

	// Dead-register analysis (the paper's §4.2 "dead register analysis for
	// register communication"): only registers live out of some task exit
	// need to travel on the ring. Exit points are blocks with at least one
	// non-continue outcome.
	if fa != nil {
		var exitLive dataflow.RegSet
		for _, b := range blocks {
			if sc.cont[b].exits {
				exitLive = exitLive.Union(fa.Blocks[b].LiveOut)
			}
		}
		t.CreateMask = t.CreateMask.Intersect(exitLive)
		callWrites = callWrites.Intersect(exitLive)
	}

	// reach[b]: registers defined in blocks strictly after b on some
	// continuation path (via continue edges). Iterate to fixpoint over the
	// task's (acyclic) continue-edge subgraph.
	for _, b := range blocks {
		sc.reach[b] = 0
	}
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			var out dataflow.RegSet
			c := &sc.cont[b]
			for _, s := range c.succ[:c.n] {
				out = out.Union(sc.def[s]).Union(sc.reach[s])
			}
			if out != sc.reach[b] {
				sc.reach[b] = out
				changed = true
			}
		}
	}

	// Mark last definitions. Registers written by included callees are never
	// early-forwarded (the callee body is opaque to the forward-point
	// analysis); they release at task end.
	t.lastDef = make(map[instrRef]bool)
	t.endForward = callWrites
	for _, b := range blocks {
		blk := f.Block(b)
		later := sc.reach[b]
		if t.IncludeCall[b] {
			later = later.Union(fnWrites[blk.Term.Callee])
		}
		sc.last[b] = 0
		for i := len(blk.Instrs) - 1; i >= 0; i-- {
			d, ok := blk.Instrs[i].Def()
			if !ok {
				continue
			}
			if !later.Has(d) && !callWrites.Has(d) {
				t.lastDef[instrRef{blk: b, idx: i}] = true
				sc.last[b] = sc.last[b].Add(d)
			}
			later = later.Add(d)
		}
	}
	// endForward: registers in the create mask that are NOT guaranteed to hit
	// a forward point on every path from the task entry to an exit; those are
	// released when the task ends. Backward must-analysis over the (acyclic)
	// continue-edge subgraph: mustFw(b) = last(b) ∪ ⋂ outcomes(b), where an
	// exit outcome contributes the empty set.
	const all = ^dataflow.RegSet(0)
	for _, b := range blocks {
		sc.mustFw[b] = all // optimistic start for the greatest fixpoint
	}
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			c := &sc.cont[b]
			meet := all
			if c.exits {
				meet = 0
			}
			for _, s := range c.succ[:c.n] {
				meet &= sc.mustFw[s]
			}
			nv := sc.last[b].Union(meet)
			if nv != sc.mustFw[b] {
				sc.mustFw[b] = nv
				changed = true
			}
		}
	}
	t.endForward = t.endForward.Union(t.CreateMask.Minus(sc.mustFw[t.Entry]))
}
