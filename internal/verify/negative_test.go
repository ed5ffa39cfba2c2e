package verify

import (
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/dataflow"
	"multiscalar/internal/ir"
)

// fixtureProgram builds the small loop program the partition fixtures
// corrupt: entry → head → {body → head, exit}.
func fixtureProgram() *ir.Program {
	b := ir.NewBuilder("fixture")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).MovI(ir.R(4), 10).Goto("head")
	f.Block("head").Slt(ir.R(5), ir.R(3), ir.R(4)).Br(ir.R(5), "body", "exit")
	f.Block("body").AddI(ir.R(3), ir.R(3), 1).Goto("head")
	f.Block("exit").Store(ir.R(3), ir.R(0), int64(ir.DataBase)).Halt()
	f.End()
	return b.Build()
}

// selectFixture partitions the fixture program with the given heuristic.
func selectFixture(t *testing.T, h core.Heuristic) *core.Partition {
	t.Helper()
	part, err := core.Select(fixtureProgram(), core.Options{Heuristic: h})
	if err != nil {
		t.Fatal(err)
	}
	if fs := Partition(part); fs.Errors() != 0 {
		t.Fatalf("fixture partition not clean before corruption:\n%s", fs.MinSeverity(SevError))
	}
	return part
}

// multiBlockTask returns a task with more than one member block.
func multiBlockTask(t *testing.T, part *core.Partition) *core.Task {
	t.Helper()
	for _, task := range part.Tasks {
		if len(task.Blocks) > 1 {
			return task
		}
	}
	t.Fatal("fixture has no multi-block task")
	return nil
}

// nonMember returns a reachable block outside the task.
func nonMember(t *testing.T, part *core.Partition, task *core.Task) ir.BlockID {
	t.Helper()
	f := part.Prog.Fn(task.Fn)
	for i := range f.Blocks {
		if !task.Blocks[ir.BlockID(i)] {
			return ir.BlockID(i)
		}
	}
	t.Fatal("task covers the whole function")
	return ir.NoBlock
}

// TestNegativePartitions corrupts Select output one invariant at a time and
// asserts the intended rule fires exactly once. Other rules may fire too —
// corruption has knock-on effects — but the intended rule must isolate the
// seeded defect.
func TestNegativePartitions(t *testing.T) {
	cases := []struct {
		name    string
		rule    RuleID
		sev     Severity
		corrupt func(t *testing.T, part *core.Partition)
	}{
		{
			name: "side-entry continue edge",
			rule: RuleSingleEntry,
			sev:  SevError,
			corrupt: func(t *testing.T, part *core.Partition) {
				task := multiBlockTask(t, part)
				outside := nonMember(t, part, task)
				var interior ir.BlockID = ir.NoBlock
				for b := range task.Blocks {
					if b != task.Entry {
						interior = b
					}
				}
				task.AddContinueEdge(outside, interior)
			},
		},
		{
			name: "continue edge re-enters entry",
			rule: RuleSingleEntry,
			sev:  SevError,
			corrupt: func(t *testing.T, part *core.Partition) {
				task := multiBlockTask(t, part)
				var interior ir.BlockID = ir.NoBlock
				for b := range task.Blocks {
					if b != task.Entry {
						interior = b
					}
				}
				task.AddContinueEdge(interior, task.Entry)
			},
		},
		{
			name: "disconnected member block",
			rule: RuleConnected,
			sev:  SevError,
			corrupt: func(t *testing.T, part *core.Partition) {
				task := multiBlockTask(t, part)
				task.Blocks[nonMember(t, part, task)] = true
			},
		},
		{
			name: "overfull target list",
			rule: RuleTargetLimit,
			sev:  SevError,
			corrupt: func(t *testing.T, part *core.Partition) {
				task := multiBlockTask(t, part)
				for len(task.Targets) <= part.Opts.MaxTargets {
					task.Targets = append(task.Targets, task.Targets[0])
				}
			},
		},
		{
			name: "create-mask hole",
			rule: RuleCreateMask,
			sev:  SevError,
			corrupt: func(t *testing.T, part *core.Partition) {
				for _, task := range part.Tasks {
					if task.CreateMask != 0 {
						r := task.CreateMask.Regs()[0]
						task.CreateMask = task.CreateMask.Minus(dataflow.RegSet(0).Add(r))
						return
					}
				}
				t.Fatal("no task with a nonempty create mask")
			},
		},
		{
			name: "dead forward bit",
			rule: RuleDeadForward,
			sev:  SevWarn,
			corrupt: func(t *testing.T, part *core.Partition) {
				// R(9) is written nowhere in the fixture, so no member block
				// can have a forward point for it: claiming it in the create
				// mask leaves a bit no forwarding machinery ever serves.
				// (PT007 co-fires — the bit is also unreleased — but PT010
				// isolates the "no forward point anywhere" diagnosis.)
				task := multiBlockTask(t, part)
				task.CreateMask = task.CreateMask.Add(ir.R(9))
			},
		},
		{
			name: "target set disagrees with CFG",
			rule: RuleTargetSet,
			sev:  SevError,
			corrupt: func(t *testing.T, part *core.Partition) {
				task := multiBlockTask(t, part)
				task.Targets = task.Targets[:len(task.Targets)-1]
			},
		},
		{
			name: "include-call on a non-call block",
			rule: RuleCallInclusion,
			sev:  SevError,
			corrupt: func(t *testing.T, part *core.Partition) {
				task := part.Tasks[0]
				task.IncludeCall[task.Entry] = true
			},
		},
		{
			name: "task ID out of step with slot",
			rule: RulePartIndex,
			sev:  SevError,
			corrupt: func(t *testing.T, part *core.Partition) {
				part.Tasks[len(part.Tasks)-1].ID = 999
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			part := selectFixture(t, core.ControlFlow)
			tc.corrupt(t, part)
			fs := Partition(part)
			hits := byRule(fs, tc.rule).MinSeverity(tc.sev)
			if len(hits) != 1 {
				t.Errorf("rule %s fired %d times, want exactly 1; all findings:\n%s",
					tc.rule, len(hits), fs)
			}
		})
	}
}

// TestNegativeCoverage removes a basic-block task and asserts PT001 flags
// the orphaned block exactly once.
func TestNegativeCoverage(t *testing.T) {
	part := selectFixture(t, core.BasicBlock)
	victim := part.Tasks[len(part.Tasks)-1]
	// Only drop a task whose block no other task covers, and keep IDs dense
	// so PT009 stays quiet about slots.
	part.Tasks = part.Tasks[:len(part.Tasks)-1]
	delete(part.ByEntry, core.EntryKey{Fn: victim.Fn, Blk: victim.Entry})
	fs := Partition(part)
	hits := byRule(fs, RuleCoverage)
	if len(hits) != 1 {
		t.Errorf("PT001 fired %d times, want exactly 1; all findings:\n%s", len(hits), fs)
	}
}

// TestNegativeIRRules hand-builds programs that trip each IR-layer rule.
func TestNegativeIRRules(t *testing.T) {
	t.Run("IR000 invalid program", func(t *testing.T) {
		fs := Program(&ir.Program{Name: "empty"})
		if hits := byRule(fs, RuleInvalidIR); len(hits) != 1 || hits[0].Sev != SevError {
			t.Errorf("IR000: got %v", fs)
		}
	})
	t.Run("IR001 unreachable block", func(t *testing.T) {
		b := ir.NewBuilder("p")
		f := b.Func("main")
		f.Block("entry").MovI(ir.R(3), 1).Goto("end")
		f.Block("orphan").Goto("end")
		f.Block("end").Halt()
		f.End()
		fs := Program(b.Build())
		if hits := byRule(fs, RuleUnreachable); len(hits) != 1 {
			t.Errorf("IR001 fired %d times, want 1:\n%s", len(hits), fs)
		}
	})
	t.Run("IR002 use before any def", func(t *testing.T) {
		b := ir.NewBuilder("p")
		f := b.Func("main")
		f.Block("entry").Add(ir.R(3), ir.R(9), ir.R(9)).Halt()
		f.End()
		fs := Program(b.Build())
		hits := byRule(fs, RuleUndefUse)
		if len(hits) != 1 || hits[0].Sev != SevWarn {
			t.Errorf("IR002: got:\n%s", fs)
		}
	})
	t.Run("IR003 dead store", func(t *testing.T) {
		b := ir.NewBuilder("p")
		f := b.Func("main")
		f.Block("entry").MovI(ir.R(3), 1).MovI(ir.R(3), 2).
			Store(ir.R(3), ir.R(0), int64(ir.DataBase)).Halt()
		f.End()
		fs := Program(b.Build())
		hits := byRule(fs, RuleDeadStore).MinSeverity(SevWarn)
		if len(hits) != 1 {
			t.Errorf("IR003 fired %d times at warn, want 1:\n%s", len(hits), fs)
		}
	})
	t.Run("IR004 undefined branch condition", func(t *testing.T) {
		b := ir.NewBuilder("p")
		f := b.Func("main")
		f.Block("entry").MovI(ir.R(3), 1).Br(ir.R(9), "a", "b")
		f.Block("a").Halt()
		f.Block("b").Halt()
		f.End()
		fs := Program(b.Build())
		if hits := byRule(fs, RuleUndefBranch); len(hits) != 1 {
			t.Errorf("IR004 fired %d times, want 1:\n%s", len(hits), fs)
		}
	})
	t.Run("IR005 recursion report", func(t *testing.T) {
		b := ir.NewBuilder("p")
		self := b.DeclareFn("worker")
		w := b.Func("worker")
		w.Block("entry").MovI(ir.R(3), 1).Call(self, "out")
		w.Block("out").Ret()
		w.End()
		m := b.Func("main")
		m.Block("entry").Call(self, "done")
		m.Block("done").Halt()
		m.End()
		fs := Program(b.Build())
		hits := byRule(fs, RuleRecursiveCall)
		if len(hits) != 1 || hits[0].Sev != SevInfo {
			t.Errorf("IR005: got:\n%s", fs)
		}
	})
}

// byRule returns the findings for one rule, preserving order.
func byRule(fs Findings, r RuleID) Findings {
	var out Findings
	for _, f := range fs {
		if f.Rule == r {
			out = append(out, f)
		}
	}
	return out
}
