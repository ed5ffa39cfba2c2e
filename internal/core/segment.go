package core

import (
	"fmt"

	"multiscalar/internal/emu"
	"multiscalar/internal/ir"
)

// Instance tracks one dynamic execution of a task and decides, block by
// block, when the task ends and through which target. The identical rules
// are used by the trace walker below and by the cycle-level simulator's
// processing units, so static targets, dynamic boundaries, and timing always
// agree.
type Instance struct {
	Task *Task
	// inclDepth is the call depth inside an included callee (0 = executing
	// the task's home function).
	inclDepth int
	// inclCall is the home-function call block that started the current
	// inclusion (valid when inclDepth > 0).
	inclCall ir.BlockID
}

// NewInstance starts a dynamic instance of the task.
func NewInstance(t *Task) *Instance { return &Instance{Task: t} }

// Step consumes the outcome of executing block blk: nextBlk is the block
// control moves to within the current function's dynamic stream (the branch
// target, the call fall-through on return, or the callee entry — the caller
// derives it from its own control state). It reports whether the task
// instance continues; if not, tgt says through which task target it exited.
func (inst *Instance) Step(blk *ir.Block, nextBlk ir.BlockID) (cont bool, tgt Target) {
	t := inst.Task
	switch blk.Term.Kind {
	case ir.TermGoto, ir.TermBr:
		if inst.inclDepth > 0 {
			return true, Target{}
		}
		if t.Continues(blk.ID, nextBlk) {
			return true, Target{}
		}
		return false, Target{Kind: TargetBlock, Blk: nextBlk}
	case ir.TermCall:
		if inst.inclDepth > 0 {
			inst.inclDepth++
			return true, Target{}
		}
		if t.IncludesCall(blk.ID) {
			inst.inclDepth = 1
			inst.inclCall = blk.ID
			return true, Target{}
		}
		return false, Target{Kind: TargetCall, Fn: blk.Term.Callee}
	case ir.TermRet:
		if inst.inclDepth > 1 {
			inst.inclDepth--
			return true, Target{}
		}
		if inst.inclDepth == 1 {
			inst.inclDepth = 0
			callBlk := inst.inclCall
			if t.Continues(callBlk, nextBlk) {
				return true, Target{}
			}
			return false, Target{Kind: TargetBlock, Blk: nextBlk}
		}
		return false, Target{Kind: TargetReturn}
	case ir.TermHalt:
		return false, Target{Kind: TargetHalt}
	}
	panic(fmt.Sprintf("core: bad terminator kind %d", blk.Term.Kind))
}

// TaskExec describes one completed dynamic task instance.
type TaskExec struct {
	Task *Task
	// DynInstrs is the dynamic instruction count of the instance,
	// terminators and included callees included.
	DynInstrs int
	// CTInstrs is the number of dynamic control-transfer instructions.
	CTInstrs int
	// Target is the exit target; TargetIndex is its index in Task.Targets
	// (the number the predictor must produce), or -1 if the target is not in
	// the static list (possible only for truncated feasible sets).
	Target      Target
	TargetIndex int
	// Next identifies the successor task's entry (invalid after TargetHalt).
	Next EntryKey
}

// WalkTasks executes the partitioned program sequentially and invokes visit
// for every dynamic task instance in program order. It is the measurement
// backbone for Table 1 (task sizes, control-transfer counts, prediction
// feeds) and the oracle for the simulator's task sequencing.
func WalkTasks(part *Partition, limit uint64, visit func(TaskExec)) error {
	m := emu.New(part.Prog)
	fn, blk := m.PC()
	cur := part.TaskAt(fn, blk)
	if cur == nil {
		return fmt.Errorf("core: no task at program entry %v/%v", fn, blk)
	}
	inst := NewInstance(cur)
	instrs, ct := 0, 0
	var prevCount uint64
	for {
		fn, blkID := m.PC()
		b := part.Prog.Fn(fn).Block(blkID)
		done, err := m.StepBlock()
		if err != nil {
			return err
		}
		instrs += int(m.Count - prevCount)
		prevCount = m.Count
		if b.Term.IsCT() {
			ct++
		}
		var nextBlk ir.BlockID
		nfn, nblkID := m.PC()
		switch b.Term.Kind {
		case ir.TermGoto, ir.TermBr, ir.TermRet:
			nextBlk = nblkID
		case ir.TermCall:
			nextBlk = nblkID // callee entry; Step ignores it unless included
		}
		cont, tgt := inst.Step(b, nextBlk)
		if done && cont {
			// Ret from main with a non-empty instance (e.g. main's task did
			// not mark ret as exit) — treat as a return exit.
			cont, tgt = false, Target{Kind: TargetReturn}
		}
		if cont {
			if uint64(instrs) > limit {
				return fmt.Errorf("core: %w during task walk", emu.ErrLimit)
			}
			continue
		}
		te := TaskExec{
			Task:        inst.Task,
			DynInstrs:   instrs,
			CTInstrs:    ct,
			Target:      tgt,
			TargetIndex: inst.Task.TargetIndex(tgt),
		}
		if !done {
			te.Next = EntryKey{Fn: nfn, Blk: nblkID}
		}
		visit(te)
		if done {
			return nil
		}
		next := part.TaskAt(nfn, nblkID)
		if next == nil {
			return fmt.Errorf("core: task %d (fn %d entry b%d) exited to %v/b%d which starts no task",
				inst.Task.ID, inst.Task.Fn, inst.Task.Entry, nfn, nblkID)
		}
		inst = NewInstance(next)
		instrs, ct = 0, 0
	}
}
