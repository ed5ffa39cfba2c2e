package sim

import (
	"errors"
	"fmt"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/emu"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
)

// TestFuzzSimulatorOracle drives generated programs through every heuristic
// and several machine shapes, checking that the simulator's final
// architectural state always equals the sequential emulator's and that the
// basic result invariants hold. Subtest seed<i> checks the program of
// gen.CorpusParams(1, i); even points also apply the task-size heuristic.
func TestFuzzSimulatorOracle(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		p, taskSize := gen.CorpusParams(1, i), i%2 == 0
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			err := gen.Check([]gen.Params{p}, func(prog *ir.Program) error {
				return oracleHolds(prog, taskSize)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// oracleHolds simulates prog's partition under every heuristic on 1, 3 and
// 8 PUs, in order and out of order, against the emulator's final state.
func oracleHolds(prog *ir.Program, taskSize bool) error {
	for _, h := range []core.Heuristic{core.BasicBlock, core.ControlFlow, core.DataDependence} {
		part, err := core.Select(prog, core.Options{Heuristic: h, TaskSize: taskSize})
		if err != nil {
			return fmt.Errorf("%v: %w", h, err)
		}
		ref := emu.New(part.Prog)
		if err := ref.Run(2_000_000); err != nil {
			return fmt.Errorf("%v: %w", h, err)
		}
		for _, pus := range []int{1, 3, 8} {
			for _, inorder := range []bool{false, true} {
				cfg := DefaultConfig(pus)
				cfg.InOrder = inorder
				if err := resultMatches(part, cfg, ref); err != nil {
					return fmt.Errorf("%v/%dPU/io=%v: %w", h, pus, inorder, err)
				}
			}
		}
	}
	return nil
}

// resultMatches runs one simulation and compares it with the reference run.
func resultMatches(part *core.Partition, cfg Config, ref *emu.Machine) error {
	res, err := Run(part, cfg)
	switch {
	case err != nil:
		return err
	case res.FinalChecksum != ref.Mem.Checksum():
		return errors.New("memory diverged")
	case res.FinalRegs != ref.Regs:
		return errors.New("registers diverged")
	case res.Instrs != ref.Count:
		return fmt.Errorf("instrs %d vs %d", res.Instrs, ref.Count)
	case res.Cycles <= 0 || res.IPC <= 0:
		return fmt.Errorf("degenerate result %d cycles IPC %.3f", res.Cycles, res.IPC)
	case res.IPC > float64(cfg.NumPUs*cfg.IssueWidth):
		return fmt.Errorf("IPC %.3f exceeds machine width", res.IPC)
	}
	return nil
}
