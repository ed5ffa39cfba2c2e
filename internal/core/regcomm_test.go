package core

import (
	"testing"

	"multiscalar/internal/ir"
)

func TestCreateMaskCoversAllWrites(t *testing.T) {
	for _, h := range []Heuristic{BasicBlock, ControlFlow, DataDependence} {
		part := mustSelect(t, loopProg(t), Options{Heuristic: h})
		for _, task := range part.Tasks {
			f := part.Prog.Fn(task.Fn)
			for _, b := range task.Blocks {
				for _, in := range f.Block(b).Instrs {
					if d, ok := in.Def(); ok && !task.CreateMask.Has(d) {
						t.Errorf("%v: task %d writes %v outside create mask", h, task.ID, d)
					}
				}
			}
		}
	}
}

func TestLastDefMarksOnlyFinalWrites(t *testing.T) {
	// Two writes of r4 in one block: only the second is a forward point.
	b := ir.NewBuilder("p")
	f := b.Func("main")
	f.Block("entry").
		MovI(ir.R(4), 1).
		AddI(ir.R(4), ir.R(4), 1).
		MovI(ir.R(5), 2).
		Halt()
	f.End()
	part := mustSelect(t, b.Build(), Options{Heuristic: ControlFlow})
	task := part.EntryTask()
	if task.ForwardsAt(0, 0) {
		t.Error("first write of r4 marked as last def")
	}
	if !task.ForwardsAt(0, 1) {
		t.Error("final write of r4 not marked")
	}
	if !task.ForwardsAt(0, 2) {
		t.Error("sole write of r5 not marked")
	}
}

func TestLastDefAcrossBlocks(t *testing.T) {
	// r4 written in entry and rewritten in join: the entry write must not be
	// a forward point; the join write must be.
	b := ir.NewBuilder("p")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(4), 1).MovI(ir.R(6), 1).Br(ir.R(6), "left", "right")
	f.Block("left").Nop().Goto("join")
	f.Block("right").Nop().Goto("join")
	f.Block("join").AddI(ir.R(4), ir.R(4), 1).Halt()
	f.End()
	part := mustSelect(t, b.Build(), Options{Heuristic: ControlFlow})
	task := part.EntryTask()
	if len(task.Blocks) != 4 {
		t.Fatalf("diamond not folded: %v", task.Blocks)
	}
	if task.ForwardsAt(0, 0) {
		t.Error("entry write of r4 forwarded despite later redefinition")
	}
	if !task.ForwardsAt(3, 0) {
		t.Error("join write of r4 not marked")
	}
}

func TestLastDefConditionalRedefinitionBlocksForward(t *testing.T) {
	// r4 written in entry, conditionally rewritten on one arm: the entry
	// write must not forward early (some path redefines), and the arm write
	// must forward (nothing after it).
	b := ir.NewBuilder("p")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(4), 1).MovI(ir.R(6), 1).Br(ir.R(6), "redef", "skip")
	f.Block("redef").MovI(ir.R(4), 2).Goto("join")
	f.Block("skip").Nop().Goto("join")
	f.Block("join").Nop().Halt()
	f.End()
	part := mustSelect(t, b.Build(), Options{Heuristic: ControlFlow})
	task := part.EntryTask()
	if task.ForwardsAt(0, 0) {
		t.Error("entry write forwards although the redef arm may rewrite r4")
	}
	if !task.ForwardsAt(1, 0) {
		t.Error("arm write not marked as last def")
	}
	// endForward must contain r4 (no early forward guaranteed on all paths).
	if !task.EndForward().Has(ir.R(4)) {
		t.Error("r4 missing from end-forward set")
	}
}

func TestIncludedCallWritesInCreateMask(t *testing.T) {
	part := mustSelect(t, callProg(t), Options{Heuristic: ControlFlow, TaskSize: true})
	var found bool
	for _, task := range part.Tasks {
		if len(task.IncludedCalls) == 0 {
			continue
		}
		found = true
		// tiny writes RegRV; the including task must own it and must not
		// early-forward it.
		if !task.CreateMask.Has(ir.RegRV) {
			t.Errorf("task %d create mask misses included callee's RegRV write", task.ID)
		}
		if !task.EndForward().Has(ir.RegRV) {
			t.Errorf("task %d early-forwards a register written by an included callee", task.ID)
		}
		for _, ref := range task.forwards {
			d, _ := part.Prog.Fn(task.Fn).Block(ref.blk).Instrs[ref.idx].Def()
			if d == ir.RegRV {
				t.Errorf("task %d marks RegRV as last-def despite included call writing it", task.ID)
			}
		}
	}
	if !found {
		t.Fatal("no task with an included call")
	}
}

func TestFnWriteSummariesTransitive(t *testing.T) {
	b := ir.NewBuilder("p")
	leaf := b.DeclareFn("leaf")
	mid := b.DeclareFn("mid")
	f := b.Func("main")
	f.Block("entry").Call(mid, "end")
	f.Block("end").Halt()
	f.End()
	g := b.Func("mid")
	g.Block("entry").MovI(ir.R(9), 1).Call(leaf, "back")
	g.Block("back").Ret()
	g.End()
	h := b.Func("leaf")
	h.Block("entry").MovI(ir.R(10), 2).Ret()
	h.End()
	p := b.Build()
	w := fnWriteSummaries(p)
	if !w[mid].Has(ir.R(9)) || !w[mid].Has(ir.R(10)) {
		t.Errorf("mid summary %v missing own or callee writes", w[mid].Regs())
	}
	if !w[p.Main].Has(ir.R(10)) {
		t.Error("main summary missing transitive write")
	}
	if w[leaf].Has(ir.R(9)) {
		t.Error("leaf summary has caller's write")
	}
}

func TestFnWriteSummariesRecursion(t *testing.T) {
	b := ir.NewBuilder("p")
	rec := b.DeclareFn("rec")
	f := b.Func("main")
	f.Block("entry").Call(rec, "end")
	f.Block("end").Halt()
	f.End()
	g := b.Func("rec")
	g.Block("entry").MovI(ir.R(9), 1).SltI(ir.R(6), ir.R(9), 0).Br(ir.R(6), "again", "out")
	g.Block("again").Call(rec, "out")
	g.Block("out").Ret()
	g.End()
	p := b.Build()
	w := fnWriteSummaries(p) // must terminate despite the cycle
	if !w[rec].Has(ir.R(9)) {
		t.Error("recursive summary missing write")
	}
}
