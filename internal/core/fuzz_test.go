package core

import (
	"errors"
	"fmt"
	"testing"

	"multiscalar/internal/emu"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
)

// TestFuzzPipeline drives generated programs through validation, emulation,
// every selection heuristic, task-walk coverage, and register-communication
// invariants. Subtest seed<i> checks the program of gen.CorpusParams(1, i).
func TestFuzzPipeline(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		p := gen.CorpusParams(1, i)
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			if err := gen.Check([]gen.Params{p}, pipelineHolds); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// pipelineHolds checks one program under every heuristic, with and without
// the task-size heuristic.
func pipelineHolds(prog *ir.Program) error {
	if err := ir.Validate(prog); err != nil {
		return fmt.Errorf("generated invalid program: %w", err)
	}
	ref := emu.New(prog)
	if err := ref.Run(2_000_000); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	for _, h := range []Heuristic{BasicBlock, ControlFlow, DataDependence} {
		for _, ts := range []bool{false, true} {
			if err := armHolds(prog, ref, Options{Heuristic: h, TaskSize: ts}); err != nil {
				return fmt.Errorf("%v/ts=%v: %w", h, ts, err)
			}
		}
	}
	return nil
}

// armHolds checks one selection of prog against the reference run: the
// partition's invariants, every task exit among its targets, tasks covering
// every dynamic instruction, and the transformed program's final memory.
func armHolds(prog *ir.Program, ref *emu.Machine, opts Options) error {
	part, err := Select(prog, opts)
	if err != nil {
		return err
	}
	if err := partitionInvariants(part); err != nil {
		return err
	}
	var covered int
	var stray error
	if err := WalkTasks(part, 2_000_000, func(te TaskExec) {
		covered += te.DynInstrs
		if te.TargetIndex < 0 && stray == nil {
			stray = fmt.Errorf("task %d exit %v not in targets %v", te.Task.ID, te.Target, te.Task.Targets)
		}
	}); err != nil {
		return fmt.Errorf("WalkTasks: %w", err)
	}
	if stray != nil {
		return stray
	}
	m := emu.New(part.Prog)
	if err := m.Run(2_000_000); err != nil {
		return err
	}
	if uint64(covered) != m.Count {
		return fmt.Errorf("tasks cover %d of %d instrs", covered, m.Count)
	}
	if m.Mem.Checksum() != ref.Mem.Checksum() {
		return errors.New("transformed program diverged from reference")
	}
	return nil
}

// partitionInvariants verifies structural properties every partition must
// satisfy, returning the first violation.
func partitionInvariants(part *Partition) error {
	for _, task := range part.Tasks {
		if !task.Blocks[task.Entry] {
			return fmt.Errorf("task %d does not contain its own entry", task.ID)
		}
		if part.ByEntry[EntryKey{Fn: task.Fn, Blk: task.Entry}] != task {
			return fmt.Errorf("task %d not indexed by its entry", task.ID)
		}
		if task.NumTargets() > part.Opts.MaxTargets &&
			len(task.Blocks) > 1 {
			return fmt.Errorf("task %d: %d targets exceed limit %d with %d blocks",
				task.ID, task.NumTargets(), part.Opts.MaxTargets, len(task.Blocks))
		}
		for _, tgt := range task.Targets {
			if tgt.Kind == TargetBlock && part.TaskAt(task.Fn, tgt.Blk) == nil {
				return fmt.Errorf("task %d target %v has no task", task.ID, tgt)
			}
		}
		// Continue edges stay inside the task and never re-enter the entry.
		f := part.Prog.Fn(task.Fn)
		for b := range task.Blocks {
			for _, s := range f.Block(b).Succs(nil) {
				if task.Continues(b, s) {
					if !task.Blocks[s] {
						return fmt.Errorf("task %d: continue edge b%d->b%d leaves the task", task.ID, b, s)
					}
					if s == task.Entry {
						return fmt.Errorf("task %d: continue edge re-enters the entry", task.ID)
					}
				}
			}
		}
	}
	return nil
}
