package core

import (
	"strings"
	"testing"

	"multiscalar/internal/emu"
	"multiscalar/internal/ir"
)

// loopProg: a counted loop with a small body plus an exit store.
func loopProg(t testing.TB) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("loop")
	out := b.Zeros(1)
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).MovI(ir.R(4), 0).MovI(ir.R(8), int64(out)).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 20).Br(ir.R(5), "body", "exit")
	f.Block("body").Add(ir.R(4), ir.R(4), ir.R(3)).AddI(ir.R(3), ir.R(3), 1).Goto("head")
	f.Block("exit").Store(ir.R(4), ir.R(8), 0).Halt()
	f.End()
	return b.Build()
}

// diamondProg: entry -> branchy diamond -> join -> halt (no loops).
func diamondProg(t testing.TB) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("diamond")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 5).MovI(ir.R(6), 1).Br(ir.R(6), "left", "right")
	f.Block("left").AddI(ir.R(4), ir.R(3), 100).Goto("join")
	f.Block("right").AddI(ir.R(4), ir.R(3), 200).Goto("join")
	f.Block("join").Add(ir.R(5), ir.R(4), ir.R(3)).Halt()
	f.End()
	return b.Build()
}

// callProg: main calls tiny helper in a loop (helper is includable).
func callProg(t testing.TB) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("calls")
	tiny := b.DeclareFn("tiny")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 8).Br(ir.R(5), "body", "exit")
	f.Block("body").Mov(ir.RegArg0, ir.R(3)).Call(tiny, "cont")
	f.Block("cont").Add(ir.R(7), ir.R(7), ir.RegRV).AddI(ir.R(3), ir.R(3), 1).Goto("head")
	f.Block("exit").Halt()
	f.End()
	g := b.Func("tiny")
	g.Block("entry").AddI(ir.RegRV, ir.RegArg0, 1).Ret()
	g.End()
	return b.Build()
}

func mustSelect(t testing.TB, p *ir.Program, opts Options) *Partition {
	t.Helper()
	part, err := Select(p, opts)
	if err != nil {
		t.Fatalf("Select(%v): %v", opts.Heuristic, err)
	}
	return part
}

func TestBasicBlockTasksOnePerBlock(t *testing.T) {
	p := loopProg(t)
	part := mustSelect(t, p, Options{Heuristic: BasicBlock})
	// Loop restructuring adds a preheader block, so 4 source blocks
	// partition into 5 basic-block tasks.
	if len(part.Tasks) != 5 {
		t.Fatalf("tasks = %d, want 5", len(part.Tasks))
	}
	for _, task := range part.Tasks {
		if len(task.Blocks) != 1 {
			t.Errorf("task %d has %d blocks", task.ID, len(task.Blocks))
		}
		if task.NumTargets() > 2 {
			t.Errorf("basic block task %d has %d targets", task.ID, task.NumTargets())
		}
	}
}

func TestControlFlowTasksMergeDiamond(t *testing.T) {
	p := diamondProg(t)
	part := mustSelect(t, p, Options{Heuristic: ControlFlow})
	// The whole acyclic diamond should fold into one task ending at halt.
	entry := part.EntryTask()
	if entry == nil {
		t.Fatal("no entry task")
	}
	if len(entry.Blocks) != 4 {
		t.Errorf("entry task blocks = %d, want 4 (diamond folded)", len(entry.Blocks))
	}
	if entry.NumTargets() != 1 || entry.Targets[0].Kind != TargetHalt {
		t.Errorf("targets = %v, want [halt]", entry.Targets)
	}
}

func TestControlFlowTargetLimit(t *testing.T) {
	// A block fanning out to many terminal-ish paths: verify the feasible
	// task respects MaxTargets = 2.
	b := ir.NewBuilder("fan")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 1).Br(ir.R(3), "a", "b")
	f.Block("a").MovI(ir.R(4), 1).Br(ir.R(4), "c", "d")
	f.Block("b").MovI(ir.R(5), 2).Goto("e")
	f.Block("c").Nop().Goto("end")
	f.Block("d").Nop().Goto("end")
	f.Block("e").Nop().Goto("end")
	f.Block("end").Halt()
	f.End()
	p := b.Build()
	part := mustSelect(t, p, Options{Heuristic: ControlFlow, MaxTargets: 2})
	for _, task := range part.Tasks {
		if got := task.NumTargets(); got > 2 {
			t.Errorf("task %d (entry b%d) has %d targets > limit 2: %v",
				task.ID, task.Entry, got, task.Targets)
		}
	}
}

func TestLoopBodySingleTaskPerIteration(t *testing.T) {
	p := loopProg(t)
	part := mustSelect(t, p, Options{Heuristic: ControlFlow})
	// head must start a task (loop entry edge + back edge both terminal).
	head := part.TaskAt(0, 1)
	if head == nil {
		t.Fatal("no task at loop head")
	}
	// The head task should absorb the body (head->body edge is not terminal)
	// but end at the back edge.
	if !head.Blocks[2] {
		t.Errorf("head task does not include body: %v", head.Blocks)
	}
	if head.Continues(2, 1) {
		t.Error("back edge marked as continue")
	}
	hasSelf := false
	for _, tgt := range head.Targets {
		if tgt.Kind == TargetBlock && tgt.Blk == 1 {
			hasSelf = true
		}
	}
	if !hasSelf {
		t.Errorf("loop task targets %v missing self re-entry", head.Targets)
	}
}

func TestEveryTargetHasATask(t *testing.T) {
	for _, h := range []Heuristic{BasicBlock, ControlFlow, DataDependence} {
		for _, prog := range []*ir.Program{loopProg(t), diamondProg(t), callProg(t)} {
			part := mustSelect(t, prog, Options{Heuristic: h})
			for _, task := range part.Tasks {
				for _, tgt := range task.Targets {
					switch tgt.Kind {
					case TargetBlock:
						if part.TaskAt(task.Fn, tgt.Blk) == nil {
							t.Errorf("%v/%s: task %d target %v has no task", h, prog.Name, task.ID, tgt)
						}
					case TargetCall:
						callee := part.Prog.Fn(tgt.Fn)
						if part.TaskAt(tgt.Fn, callee.Entry) == nil {
							t.Errorf("%v/%s: callee fn%d entry has no task", h, prog.Name, tgt.Fn)
						}
					}
				}
			}
		}
	}
}

func TestCallInclusionUnderThreshold(t *testing.T) {
	p := callProg(t)
	part := mustSelect(t, p, Options{Heuristic: ControlFlow, TaskSize: true})
	// tiny is 2 instructions, far below CALL_THRESH: every call site included.
	foundInclusion := false
	for _, task := range part.Tasks {
		for range task.IncludeCall {
			foundInclusion = true
		}
	}
	if !foundInclusion {
		t.Error("no call inclusion despite tiny callee")
	}
	tinyFn := part.Prog.FnByName("tiny")
	if !part.FnIncluded[tinyFn.ID] {
		t.Error("tiny not marked fully included")
	}
}

func TestNoInclusionWithoutTaskSize(t *testing.T) {
	p := callProg(t)
	part := mustSelect(t, p, Options{Heuristic: ControlFlow, TaskSize: false})
	for _, task := range part.Tasks {
		if len(task.IncludeCall) != 0 {
			t.Error("call inclusion without task-size heuristic")
		}
	}
}

func TestWalkTasksCoversWholeExecution(t *testing.T) {
	for _, h := range []Heuristic{BasicBlock, ControlFlow, DataDependence} {
		for _, taskSize := range []bool{false, true} {
			for _, prog := range []*ir.Program{loopProg(t), diamondProg(t), callProg(t)} {
				part := mustSelect(t, prog, Options{Heuristic: h, TaskSize: taskSize})
				var total, tasks int
				err := WalkTasks(part, 1_000_000, func(te TaskExec) {
					total += te.DynInstrs
					tasks++
					if te.DynInstrs <= 0 {
						t.Errorf("%v ts=%v %s: empty task instance", h, taskSize, prog.Name)
					}
				})
				if err != nil {
					t.Fatalf("%v ts=%v %s: WalkTasks: %v", h, taskSize, prog.Name, err)
				}
				m := emu.New(part.Prog)
				if err := m.Run(1_000_000); err != nil {
					t.Fatal(err)
				}
				if uint64(total) != m.Count {
					t.Errorf("%v ts=%v %s: tasks cover %d instrs, emulator ran %d",
						h, taskSize, prog.Name, total, m.Count)
				}
				if tasks == 0 {
					t.Errorf("%v ts=%v %s: no task instances", h, taskSize, prog.Name)
				}
			}
		}
	}
}

func TestWalkTasksTargetIndicesValid(t *testing.T) {
	p := callProg(t)
	part := mustSelect(t, p, Options{Heuristic: ControlFlow})
	err := WalkTasks(part, 1_000_000, func(te TaskExec) {
		if te.TargetIndex < 0 {
			t.Errorf("task %d exited via %v which is not in its target list %v",
				te.Task.ID, te.Target, te.Task.Targets)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDataDependenceTasksSmallerOrEqual(t *testing.T) {
	// The DD heuristic terminates tasks once dependences are included, so its
	// average task should not exceed the CF task size on dependence-light
	// code. (Not a strict theorem; holds for this simple program.)
	p := loopProg(t)
	cf := mustSelect(t, p, Options{Heuristic: ControlFlow})
	dd := mustSelect(t, p, Options{Heuristic: DataDependence})
	size := func(part *Partition) (n int) {
		var blocks int
		for _, task := range part.Tasks {
			blocks += len(task.Blocks)
		}
		return blocks / len(part.Tasks)
	}
	if size(dd) > size(cf) {
		t.Errorf("dd avg blocks %d > cf avg blocks %d", size(dd), size(cf))
	}
}

func TestSelectDeterministic(t *testing.T) {
	for _, h := range []Heuristic{BasicBlock, ControlFlow, DataDependence} {
		a := mustSelect(t, callProg(t), Options{Heuristic: h, TaskSize: true})
		b := mustSelect(t, callProg(t), Options{Heuristic: h, TaskSize: true})
		if len(a.Tasks) != len(b.Tasks) {
			t.Fatalf("%v: nondeterministic task count %d vs %d", h, len(a.Tasks), len(b.Tasks))
		}
		for i := range a.Tasks {
			x, y := a.Tasks[i], b.Tasks[i]
			if x.Fn != y.Fn || x.Entry != y.Entry || len(x.Blocks) != len(y.Blocks) ||
				len(x.Targets) != len(y.Targets) {
				t.Errorf("%v: task %d differs between runs", h, i)
			}
		}
	}
}

func TestSelectDoesNotMutateInput(t *testing.T) {
	p := loopProg(t)
	before := ir.Format(p)
	mustSelect(t, p, Options{Heuristic: DataDependence, TaskSize: true})
	if after := ir.Format(p); after != before {
		t.Error("Select mutated its input program")
	}
}

// TestHeuristicString pins both names of each heuristic: the short one the
// CLIs and the HTTP API parse, and the long one Table 1's headers print.
func TestHeuristicString(t *testing.T) {
	for _, c := range []struct {
		short, long string
		h           Heuristic
	}{
		{"bb", "basic block", BasicBlock},
		{"cf", "control flow", ControlFlow},
		{"dd", "data dependence", DataDependence},
	} {
		if got := c.h.String(); got != c.long {
			t.Errorf("%v.String() = %q, want %q; Table 1 headers depend on it", c.h, got, c.long)
		}
		if got, err := ParseHeuristic(c.short); err != nil || got != c.h {
			t.Errorf("ParseHeuristic(%q) = %v, %v; want %v", c.short, got, err, c.h)
		}
	}
	for _, bad := range []string{"", "BB", "ts", "basic block"} {
		if _, err := ParseHeuristic(bad); err == nil || !strings.Contains(err.Error(), "want bb, cf, or dd") {
			t.Errorf("ParseHeuristic(%q) error = %v", bad, err)
		}
	}
}
