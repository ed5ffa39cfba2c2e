package main

import (
	"time"

	"multiscalar/internal/emu"
	"multiscalar/internal/ir"
	"multiscalar/internal/sim"
)

// emuLimit bounds a reference run; every benchmark program halts far below.
const emuLimit = 50_000_000

// ref is the architectural end state the functional emulator reaches on a
// program: the oracle every simulated result must match.
type ref struct {
	checksum uint64
	regs     [ir.NumRegs]uint64
	instrs   uint64
}

func (r ref) matches(res *sim.Result) bool {
	return res != nil && res.FinalChecksum == r.checksum && res.FinalRegs == r.regs && res.Instrs == r.instrs
}

// oracle runs the emulator and keeps the time it took, for emu.ns_per_instr.
type oracle struct {
	busy   time.Duration
	instrs uint64
}

func (o *oracle) reference(p *ir.Program) (ref, error) {
	m := emu.New(p)
	t0 := time.Now()
	if err := m.Run(emuLimit); err != nil {
		return ref{}, err
	}
	o.busy += time.Since(t0)
	o.instrs += m.Count
	return ref{checksum: m.Mem.Checksum(), regs: m.Regs, instrs: m.Count}, nil
}

func (o *oracle) nsPerInstr() float64 {
	if o.instrs == 0 {
		return 0
	}
	return float64(o.busy.Nanoseconds()) / float64(o.instrs)
}

// counts are the exact simulated totals over a workload's reference unit of
// work. They depend only on the inputs, never on the host: any change that
// only makes the program faster must leave them identical.
type counts struct {
	Instrs      uint64 `json:"sim.instrs"`
	Cycles      int64  `json:"sim.cycles"`
	Tasks       uint64 `json:"sim.tasks"`
	Restarts    uint64 `json:"sim.restarts"`
	StaticTasks int    `json:"core.static_tasks"`
}

func (c *counts) add(r *sim.Result) {
	c.Instrs += r.Instrs
	c.Cycles += r.Cycles
	c.Tasks += r.TaskInstances
	c.Restarts += r.Restarts
}
