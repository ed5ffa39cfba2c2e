package verify

import (
	"multiscalar/internal/core"
	"multiscalar/internal/dataflow"
	"multiscalar/internal/ir"
)

// checkPartition runs the partition-layer rules (PT001–PT010) against the
// recomputed per-function analyses.
func (c *checker) checkPartition() {
	c.checkPartIndex()
	c.checkCoverage()
	c.checkCallInclusion()
	for _, t := range c.part.Tasks {
		v := c.viewTask(t)
		c.checkTaskShape(v)
		c.checkTargets(v)
		c.checkRegComm(v)
	}
}

// maxTargets returns the hardware target limit the partition was built for
// (hand-built partitions may carry a zero Options; fall back to the paper's
// N=4).
func (c *checker) maxTargets() int {
	if n := c.part.Opts.MaxTargets; n > 0 {
		return n
	}
	return 4
}

// checkPartIndex (PT009) verifies the partition's own bookkeeping: dense
// task IDs, a mutually consistent ByEntry index, member and included-call
// lists in strictly ascending order (Contains and IncludesCall search them),
// entries that are members, and — so the sequencer can always continue — a
// task at every block target, at every non-included callee's entry, and at
// every post-call resume block.
func (c *checker) checkPartIndex() {
	p := c.part
	for i, t := range p.Tasks {
		if t.ID != i {
			c.report(RulePartIndex, SevError, t.Fn, ir.NoBlock, t.ID,
				"task ID %d does not match its slot %d", t.ID, i)
		}
		if !strictlyAscending(t.Blocks) {
			c.report(RulePartIndex, SevError, t.Fn, t.Entry, t.ID,
				"member blocks %v are not in strictly ascending order", t.Blocks)
		}
		if !strictlyAscending(t.IncludedCalls) {
			c.report(RulePartIndex, SevError, t.Fn, t.Entry, t.ID,
				"included calls %v are not in strictly ascending order", t.IncludedCalls)
		}
		if !t.Contains(t.Entry) {
			c.report(RulePartIndex, SevError, t.Fn, t.Entry, t.ID,
				"task does not contain its own entry block")
		}
		if got := p.TaskAt(t.Fn, t.Entry); got != t {
			c.report(RulePartIndex, SevError, t.Fn, t.Entry, t.ID,
				"ByEntry does not index the task at its entry")
		}
	}
	for i, tab := range p.ByEntry {
		for b, t := range tab {
			fn, blk := ir.FnID(i), ir.BlockID(b)
			if t != nil && (t.Fn != fn || t.Entry != blk) {
				c.report(RulePartIndex, SevError, fn, blk, t.ID,
					"ByEntry slot (fn %d, b%d) indexes a task with a different entry", fn, blk)
			}
		}
	}
	for _, t := range p.Tasks {
		for _, tgt := range t.Targets {
			switch tgt.Kind {
			case core.TargetBlock:
				if p.TaskAt(t.Fn, tgt.Blk) == nil {
					c.report(RulePartIndex, SevError, t.Fn, tgt.Blk, t.ID,
						"block target b%d starts no task; the sequencer cannot continue there", tgt.Blk)
				}
			case core.TargetCall:
				callee := c.prog.Fn(tgt.Fn)
				if p.TaskAt(tgt.Fn, callee.Entry) == nil {
					c.report(RulePartIndex, SevError, tgt.Fn, callee.Entry, t.ID,
						"call target fn %s has no task at its entry", callee.Name)
				}
			}
		}
		// A non-included call returns into the fall block, which therefore
		// must start a task of its own.
		f := c.prog.Fn(t.Fn)
		for _, b := range t.Blocks {
			blk := f.Block(b)
			if blk.Term.Kind == ir.TermCall && !t.IncludesCall(b) && p.TaskAt(t.Fn, blk.Term.Fall) == nil {
				c.report(RulePartIndex, SevError, t.Fn, blk.Term.Fall, t.ID,
					"post-call resume block b%d starts no task", blk.Term.Fall)
			}
		}
	}
}

func strictlyAscending(bs []ir.BlockID) bool {
	for i := 1; i < len(bs); i++ {
		if bs[i-1] >= bs[i] {
			return false
		}
	}
	return true
}

// checkCoverage (PT001) verifies every reachable block of every function
// that starts tasks belongs to at least one task — the paper's requirement
// that tasks partition (with overlap) the whole CFG, so sequencing can never
// fall off the task map.
func (c *checker) checkCoverage() {
	covered := make(map[core.EntryKey]bool)
	for _, t := range c.part.Tasks {
		for _, b := range t.Blocks {
			covered[core.EntryKey{Fn: t.Fn, Blk: b}] = true
		}
	}
	for i, f := range c.prog.Fns {
		fn := ir.FnID(i)
		if int(fn) < len(c.part.FnIncluded) && c.part.FnIncluded[fn] {
			continue // executes only inside including tasks
		}
		fa := c.fns[fn]
		for b := range f.Blocks {
			if fa.g.DFSNum[b] < 0 {
				continue // unreachable; IR001 already reports it
			}
			if !covered[core.EntryKey{Fn: fn, Blk: ir.BlockID(b)}] {
				c.report(RuleCoverage, SevError, fn, ir.BlockID(b), -1,
					"reachable block belongs to no task")
			}
		}
	}
}

// checkCallInclusion (PT008) verifies the CALL_THRESH bookkeeping:
// IncludedCalls lists only member call blocks (never self-recursive ones), and
// a fully-included function neither starts tasks nor appears as a call
// target — while every call to it from inside a task must be included.
func (c *checker) checkCallInclusion() {
	p := c.part
	for _, t := range p.Tasks {
		f := c.prog.Fn(t.Fn)
		for _, b := range t.IncludedCalls {
			if !t.Contains(b) {
				c.report(RuleCallInclusion, SevError, t.Fn, b, t.ID,
					"IncludedCalls lists b%d which is not a member block", b)
				continue
			}
			blk := f.Block(b)
			if blk.Term.Kind != ir.TermCall {
				c.report(RuleCallInclusion, SevError, t.Fn, b, t.ID,
					"IncludedCalls lists b%d whose terminator is %s, not a call", b, blk.Term.Kind)
				continue
			}
			if blk.Term.Callee == t.Fn {
				c.report(RuleCallInclusion, SevError, t.Fn, b, t.ID,
					"IncludedCalls lists a self-recursive call; inclusion would never terminate")
			}
		}
	}
	for i, inc := range p.FnIncluded {
		if !inc {
			continue
		}
		fn := ir.FnID(i)
		if fn == c.prog.Main {
			c.report(RuleCallInclusion, SevError, fn, ir.NoBlock, -1,
				"main cannot be a fully-included function")
		}
		for _, t := range p.Tasks {
			if t.Fn == fn {
				c.report(RuleCallInclusion, SevError, fn, t.Entry, t.ID,
					"fully-included function starts a task")
			}
			for _, tgt := range t.Targets {
				if tgt.Kind == core.TargetCall && tgt.Fn == fn {
					c.report(RuleCallInclusion, SevError, t.Fn, ir.NoBlock, t.ID,
						"task targets a call to fully-included function %s", c.prog.Fn(fn).Name)
				}
			}
			f := c.prog.Fn(t.Fn)
			for _, b := range t.Blocks {
				blk := f.Block(b)
				if blk.Term.Kind == ir.TermCall && blk.Term.Callee == fn && !t.IncludesCall(b) {
					c.report(RuleCallInclusion, SevError, t.Fn, b, t.ID,
						"call to fully-included function %s is not included here", c.prog.Fn(fn).Name)
				}
			}
		}
	}
}

// checkTaskShape verifies the paper's structural task definition (§2): a
// task is a connected (PT002), single-entry (PT003) subgraph of the CFG.
// Connectivity is judged along continue edges — the edges an instance
// entered at Entry actually executes — and single entry means no continue
// edge re-enters the entry or crosses the membership boundary.
func (c *checker) checkTaskShape(v *taskView) {
	t := v.t
	reach := v.continueReachable()
	for _, b := range v.members {
		if !reach[b] {
			c.report(RuleConnected, SevError, t.Fn, b, t.ID,
				"member block unreachable from task entry b%d via continue edges; no instance can execute it", t.Entry)
		}
	}
	for _, e := range t.ContinueEdges() {
		from, to := e[0], e[1]
		switch {
		case to == t.Entry:
			c.report(RuleSingleEntry, SevError, t.Fn, from, t.ID,
				"continue edge b%d→b%d re-enters the task entry; the instance would never end", from, to)
		case !t.Contains(from):
			c.report(RuleSingleEntry, SevError, t.Fn, from, t.ID,
				"continue edge b%d→b%d starts outside the task (side entrance)", from, to)
		case !t.Contains(to):
			c.report(RuleSingleEntry, SevError, t.Fn, to, t.ID,
				"continue edge b%d→b%d leaves the membership set", from, to)
		}
	}
	// Continue edges must also be real CFG edges that selection would keep
	// inside a task: non-terminal dynamic successor edges.
	for _, e := range t.ContinueEdges() {
		from, to := e[0], e[1]
		if !t.Contains(from) || !t.Contains(to) || to == t.Entry {
			continue // already reported above
		}
		real := false
		for _, s := range v.dynSuccs(from) {
			if s == to {
				real = true
			}
		}
		if !real {
			c.report(RuleSingleEntry, SevError, t.Fn, from, t.ID,
				"continue edge b%d→b%d is not a dynamic CFG edge", from, to)
		} else if v.g.g.IsTerminalEdge(from, to) || v.terminalNode(from) {
			c.report(RuleSingleEntry, SevError, t.Fn, from, t.ID,
				"continue edge b%d→b%d crosses a terminal edge or leaves a terminal node; the hardware ends the task there", from, to)
		}
	}
}

// checkTargets verifies the target list against the hardware limit (PT004)
// and against the successor set the membership actually implies (PT005) —
// paper §2's "number of targets ≤ what the hardware tracks" and the
// requirement that the sequencer's static target list agree with every
// dynamic exit the task can take.
func (c *checker) checkTargets(v *taskView) {
	t := v.t
	limit := c.maxTargets()
	if n := len(t.Targets); n > limit {
		sev := SevError
		if len(t.Blocks) == 1 {
			// A single block cannot be split further; the selector may keep
			// it with a truncated prediction list.
			sev = SevWarn
		}
		c.report(RuleTargetLimit, sev, t.Fn, t.Entry, t.ID,
			"%d targets exceed the hardware limit of %d", n, limit)
	}
	want := v.expectedTargets()
	if targetsEqualAsSets(want, t.Targets) {
		for i := range want {
			if t.Targets[i] != want[i] {
				c.report(RuleTargetSet, SevWarn, t.Fn, t.Entry, t.ID,
					"targets %v are not in canonical order (want %v); prediction indices will not be reproducible", t.Targets, want)
				break
			}
		}
		return
	}
	c.report(RuleTargetSet, SevError, t.Fn, t.Entry, t.ID,
		"targets %v disagree with the CFG exit-edge successors %v", t.Targets, want)
}

func targetsEqualAsSets(a, b []core.Target) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[core.Target]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	for _, t := range b {
		if !set[t] {
			return false
		}
	}
	return true
}

// checkRegComm verifies the register-communication metadata (paper §2.2 and
// §4.2): the create mask covers every register the task may update that is
// live at some exit (PT006), and every forwarded register is released
// soundly — forward points are genuinely last definitions, and any
// create-mask register without a forward point on some path is end-forwarded
// (PT007). Create-mask registers with no forward point in any member block at
// all (and no end-forward) are additionally flagged as dead mask bits (PT010).
func (c *checker) checkRegComm(v *taskView) {
	t := v.t
	// Expected create mask: the union of member (and included-callee) writes,
	// filtered by liveness at the task's exits.
	var writes, exitLive dataflow.RegSet
	for _, b := range v.members {
		writes = writes.Union(v.blockDef[b])
	}
	for _, b := range v.exitBlocks() {
		exitLive = exitLive.Union(v.g.facts.Blocks[b].LiveOut)
	}
	expected := writes.Intersect(exitLive)
	if missing := expected.Minus(t.CreateMask); missing != 0 {
		c.report(RuleCreateMask, SevError, t.Fn, t.Entry, t.ID,
			"create mask %s misses %s: the task may update them and they are live at an exit, so successor PUs would read stale values",
			t.CreateMask, missing)
	}
	if phantom := t.CreateMask.Minus(writes); phantom != 0 {
		c.report(RuleCreateMask, SevWarn, t.Fn, t.Entry, t.ID,
			"create mask claims %s which the task can never write; the ring would wait on values that never arrive", phantom)
	}
	if stuck := t.EndForward().Minus(t.CreateMask); stuck != 0 {
		c.report(RuleForwardPoint, SevWarn, t.Fn, t.Entry, t.ID,
			"end-forward set %s is not contained in the create mask %s", t.EndForward(), t.CreateMask)
	}

	// Forward-point soundness: a flagged instruction must be the last
	// definition of its register on every continuation path.
	down := v.downstreamDefs()
	fwdRegs := make(map[ir.BlockID]dataflow.RegSet, len(v.members))
	for _, b := range v.members {
		blk := v.f.Block(b)
		var calleeWrites dataflow.RegSet
		if t.IncludesCall(b) {
			calleeWrites = c.fnWrites[blk.Term.Callee]
		}
		var laterInBlock dataflow.RegSet
		for i := len(blk.Instrs) - 1; i >= 0; i-- {
			if !t.ForwardsAt(b, i) {
				if d, ok := blk.Instrs[i].Def(); ok {
					laterInBlock = laterInBlock.Add(d)
				}
				continue
			}
			d, ok := blk.Instrs[i].Def()
			if !ok {
				c.report(RuleForwardPoint, SevError, t.Fn, b, t.ID,
					"instr %d (%s) is a forward point but defines no register", i, blk.Instrs[i])
				continue
			}
			switch {
			case laterInBlock.Has(d):
				c.report(RuleForwardPoint, SevError, t.Fn, b, t.ID,
					"forward point at instr %d forwards %s which the same block redefines later (stale forward)", i, d)
			case calleeWrites.Has(d):
				c.report(RuleForwardPoint, SevError, t.Fn, b, t.ID,
					"forward point at instr %d forwards %s which the included callee may rewrite (stale forward)", i, d)
			case down[b].Has(d):
				c.report(RuleForwardPoint, SevError, t.Fn, b, t.ID,
					"forward point at instr %d forwards %s which a later block on a continuation path redefines (stale forward)", i, d)
			}
			fwdRegs[b] = fwdRegs[b].Add(d)
			laterInBlock = laterInBlock.Add(d)
		}
	}

	// Release completeness: every create-mask register must either hit a
	// forward point on every path from entry to exit, or be in the
	// end-forward set (released when the task retires). Backward
	// must-analysis over the acyclic continue-edge subgraph.
	const all = ^dataflow.RegSet(0)
	mustFwd := make(map[ir.BlockID]dataflow.RegSet, len(v.members))
	for _, b := range v.members {
		mustFwd[b] = all
	}
	for changed := true; changed; {
		changed = false
		for _, b := range v.members {
			blk := v.f.Block(b)
			meet := all
			exits := false
			nOutcomes := 0
			for _, s := range blk.Succs(nil) {
				nOutcomes++
				if t.Continues(b, s) {
					meet = meet.Intersect(mustFwd[s])
				} else {
					exits = true
				}
			}
			if nOutcomes == 0 || blk.Term.Kind == ir.TermRet || blk.Term.Kind == ir.TermHalt ||
				(blk.Term.Kind == ir.TermCall && !t.IncludesCall(b)) {
				exits = true
			}
			if exits {
				meet = 0
			}
			nv := fwdRegs[b].Union(meet)
			if nv != mustFwd[b] {
				mustFwd[b] = nv
				changed = true
			}
		}
	}
	if unreleased := t.CreateMask.Minus(t.EndForward()).Minus(mustFwd[t.Entry]); unreleased != 0 {
		c.report(RuleForwardPoint, SevError, t.Fn, t.Entry, t.ID,
			"create-mask registers %s reach a task exit on some path with no forward point and are not end-forwarded; successor PUs would deadlock waiting for them",
			unreleased)
	}

	// Dead forward bits (PT010): a create-mask register that is not
	// end-forwarded and has a forward point in no member block at all. PT007
	// above already errors that such a register is unreleased; the sharper
	// diagnosis here is that the forwarding machinery for the bit does not
	// exist anywhere in the task — usually an over-approximated mask whose
	// bit should be dropped (or end-forwarded), not a misplaced forward
	// point, which PT007 alone reports when at least one path forwards it.
	var fwdAll dataflow.RegSet
	for _, b := range v.members {
		fwdAll = fwdAll.Union(fwdRegs[b])
	}
	if dead := t.CreateMask.Minus(t.EndForward()).Minus(fwdAll); dead != 0 {
		c.report(RuleDeadForward, SevWarn, t.Fn, t.Entry, t.ID,
			"create-mask registers %s have no forward point in any member block and are not end-forwarded: dead mask bits the selector should release or drop",
			dead)
	}
}
