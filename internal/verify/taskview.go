package verify

import (
	"sort"

	"multiscalar/internal/core"
	"multiscalar/internal/dataflow"
	"multiscalar/internal/ir"
)

// taskView recomputes, from the program text alone, the per-task facts the
// partition rules compare against the selector's stored results. Everything
// here deliberately mirrors the *specification* of a task (paper §2/§3, and
// the dynamic semantics in core's Instance.Step) rather than reading the
// selector's internals.
type taskView struct {
	c *checker
	t *core.Task
	f *ir.Function
	g *fnAnalysis

	members []ir.BlockID // sorted membership (the task's Blocks)

	// contSucc is the continue-edge adjacency (from the task's own edge set).
	contSucc map[ir.BlockID][]ir.BlockID

	// blockDef[b]: registers block b may write when executed inside this
	// task — its own instruction defs plus, for an included call, everything
	// the callee may transitively write.
	blockDef map[ir.BlockID]dataflow.RegSet
}

func (c *checker) viewTask(t *core.Task) *taskView {
	v := &taskView{
		c: c, t: t,
		f:        c.prog.Fn(t.Fn),
		g:        c.fns[t.Fn],
		members:  t.Blocks,
		contSucc: make(map[ir.BlockID][]ir.BlockID),
		blockDef: make(map[ir.BlockID]dataflow.RegSet, len(t.Blocks)),
	}
	for _, e := range t.ContinueEdges() {
		v.contSucc[e[0]] = append(v.contSucc[e[0]], e[1])
	}
	for _, b := range t.Blocks {
		blk := v.f.Block(b)
		var def dataflow.RegSet
		for _, in := range blk.Instrs {
			if d, ok := in.Def(); ok {
				def = def.Add(d)
			}
		}
		if t.IncludesCall(b) {
			def = def.Union(c.fnWrites[blk.Term.Callee])
		}
		v.blockDef[b] = def
	}
	return v
}

// terminalNode is the paper's is_a_terminal_node for this task: a block
// ending in a non-included call, a return, or halt ends the task
// unconditionally.
func (v *taskView) terminalNode(b ir.BlockID) bool {
	switch v.f.Block(b).Term.Kind {
	case ir.TermCall:
		return !v.t.IncludesCall(b)
	case ir.TermRet, ir.TermHalt:
		return true
	}
	return false
}

// dynSuccs returns where control can continue within the function's dynamic
// instruction stream after b executes inside this task (an included call
// resumes at its fall block once the callee finishes).
func (v *taskView) dynSuccs(b ir.BlockID) []ir.BlockID {
	blk := v.f.Block(b)
	switch blk.Term.Kind {
	case ir.TermCall:
		if v.t.IncludesCall(b) {
			return []ir.BlockID{blk.Term.Fall}
		}
		return nil
	case ir.TermGoto:
		return []ir.BlockID{blk.Term.Taken}
	case ir.TermBr:
		if blk.Term.Taken == blk.Term.Fall {
			return []ir.BlockID{blk.Term.Taken}
		}
		return []ir.BlockID{blk.Term.Taken, blk.Term.Fall}
	}
	return nil
}

// expectedTargets recomputes the task's successor set from its membership:
// the distinct places control can be when an instance ends, in the canonical
// order Select uses (blocks, then calls, then return, then halt).
func (v *taskView) expectedTargets() []core.Target {
	seen := make(map[core.Target]bool)
	var out []core.Target
	add := func(t core.Target) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, b := range v.members {
		blk := v.f.Block(b)
		switch blk.Term.Kind {
		case ir.TermCall:
			if !v.t.IncludesCall(b) {
				add(core.Target{Kind: core.TargetCall, Fn: blk.Term.Callee})
				continue
			}
		case ir.TermRet:
			add(core.Target{Kind: core.TargetReturn})
			continue
		case ir.TermHalt:
			add(core.Target{Kind: core.TargetHalt})
			continue
		}
		for _, succ := range v.dynSuccs(b) {
			if !v.t.Contains(succ) || succ == v.t.Entry ||
				v.g.g.IsTerminalEdge(b, succ) || v.terminalNode(b) {
				add(core.Target{Kind: core.TargetBlock, Blk: succ})
			}
		}
	}
	sortTargets(out)
	return out
}

// exitBlocks returns the members with at least one task-ending outcome: a
// return, halt, or non-included call, or any static successor edge that is
// not a continue edge.
func (v *taskView) exitBlocks() []ir.BlockID {
	var out []ir.BlockID
	for _, b := range v.members {
		if v.isExit(b) {
			out = append(out, b)
		}
	}
	return out
}

func (v *taskView) isExit(b ir.BlockID) bool {
	blk := v.f.Block(b)
	if blk.Term.Kind == ir.TermRet || blk.Term.Kind == ir.TermHalt ||
		(blk.Term.Kind == ir.TermCall && !v.t.IncludesCall(b)) {
		return true
	}
	for _, s := range blk.Succs(nil) {
		if !v.t.Continues(b, s) {
			return true
		}
	}
	return false
}

// continueReachable returns the members reachable from the task entry along
// continue edges — the blocks a single instance entered at Entry can execute.
func (v *taskView) continueReachable() map[ir.BlockID]bool {
	seen := map[ir.BlockID]bool{v.t.Entry: true}
	work := []ir.BlockID{v.t.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range v.contSucc[b] {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// downstreamDefs returns, per member block, the registers defined in blocks
// strictly after it on some continuation path (the relation forward points
// must be disjoint from).
func (v *taskView) downstreamDefs() map[ir.BlockID]dataflow.RegSet {
	out := make(map[ir.BlockID]dataflow.RegSet, len(v.members))
	for changed := true; changed; {
		changed = false
		for _, b := range v.members {
			var set dataflow.RegSet
			for _, s := range v.contSucc[b] {
				set = set.Union(v.blockDef[s]).Union(out[s])
			}
			if set != out[b] {
				out[b] = set
				changed = true
			}
		}
	}
	return out
}

// sortTargets orders a target list canonically, mirroring Select: block
// targets by block, call targets by callee, then return, then halt.
func sortTargets(ts []core.Target) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Kind == core.TargetBlock {
			return a.Blk < b.Blk
		}
		if a.Kind == core.TargetCall {
			return a.Fn < b.Fn
		}
		return false
	})
}
