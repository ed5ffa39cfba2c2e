// Package sim is the cycle-level Multiscalar timing simulator. It is
// functional-first and timing-directed: tasks are executed functionally in
// program order (so architectural state always matches the sequential
// emulator — an invariant the integration tests check), and a detailed
// timing model is overlaid per task: fetch through the L1 I-cache, two-way
// in-order or out-of-order issue with the paper's functional units and ROB /
// issue-list sizes, gshare intra-task branch prediction, path-based
// inter-task prediction, compiler-directed register communication over the
// ring, and ARB-based memory dependence speculation with squash/restart and
// the synchronization table.
//
// Because information between tasks flows through explicitly timestamped
// events (register forwards, speculative stores, retirement), tasks can be
// timed in program order: control mispredictions delay the assignment of the
// corrected task, memory violations restart the offending task at the
// violating store's cycle, and wrong-path occupancy is subsumed by those
// delayed assignments. DESIGN.md discusses this structure and its
// (documented) idealizations.
package sim

import (
	"fmt"

	"multiscalar/internal/core"
	"multiscalar/internal/emu"
	"multiscalar/internal/ir"
)

// traceOp is one dynamic instruction of a task instance, annotated with
// everything the timing model needs. Only addr, taken and forwards vary
// between executions of the same static instruction; the rest comes from the
// block's decoded template. The fields pack into 32 bytes, since every task
// copies its ops from the templates.
type traceOp struct {
	pc      uint64 // instruction address (gshare index, sync-table identity)
	addr    uint64 // effective address for loads/stores
	lat     int32
	srcs    [2]ir.Reg
	nsrc    uint8
	dst     ir.Reg
	class   ir.Class
	hasDst  bool
	isLoad  bool
	isStore bool
	// newBlock is set on the first op of each basic block, whose pc is the
	// block's code address (I-cache access granularity).
	newBlock bool
	// branch terminator info
	isBranch bool
	taken    bool
	// forwards marks a compiler-designated forward point (last def).
	forwards bool
}

// taskTrace is the functional execution record of one task instance.
type taskTrace struct {
	task *core.Task
	ops  []traceOp
	// exit describes how the instance ended.
	exit core.Target
	// exitIdx is the target number (index into task.Targets, -1 if absent).
	exitIdx int
	// next is the successor task's entry (invalid when done).
	next core.EntryKey
	// retResume is, for a TargetCall exit, the caller-side entry where
	// execution resumes after the callee returns (the sequencer pushes it on
	// the return-address stack).
	retResume core.EntryKey
	done      bool
	// ctInstrs counts dynamic control transfers.
	ctInstrs int
}

// machine is the sequential architectural state the functional pass runs on.
type machine struct {
	prog  *ir.Program
	regs  [ir.NumRegs]uint64
	mem   emu.Memory
	fn    ir.FnID
	blk   ir.BlockID
	stack []retAddr
	count uint64

	// tr is the trace runTask fills; its ops buffer is reused by every task
	// instance.
	tr taskTrace
	// spans[fnBase[fn]+blk] locates a block's op templates in tmpl. A block
	// is decoded on its first execution; end == 0 marks one not yet decoded
	// (every block has at least its terminator).
	fnBase []int
	spans  []opSpan
	tmpl   []traceOp
}

type opSpan struct{ start, end int32 }

type retAddr struct {
	fn  ir.FnID
	blk ir.BlockID
}

// reset parks the machine at p's entry, with p's initial memory image, the
// initial registers and no block decoded: the state a run of p starts from.
// Every buffer keeps its capacity.
func (m *machine) reset(p *ir.Program) {
	*m = machine{
		prog: p, mem: m.mem, fn: p.Main, blk: p.Fn(p.Main).Entry, stack: m.stack[:0],
		tr: taskTrace{ops: m.tr.ops[:0]}, fnBase: m.fnBase[:0], spans: m.spans, tmpl: m.tmpl[:0],
	}
	m.regs[ir.RegSP] = ir.StackBase
	m.mem.Reset()
	m.mem.LoadImage(p)
	n := 0
	for _, f := range p.Fns {
		m.fnBase = append(m.fnBase, n)
		n += len(f.Blocks)
	}
	m.spans = cleared(m.spans, n)
}

// decode returns the op templates of b, the block the machine is parked at,
// terminator last, building them on the block's first execution.
func (m *machine) decode(b *ir.Block) []traceOp {
	sp := &m.spans[m.fnBase[m.fn]+int(m.blk)]
	if sp.end == 0 {
		sp.start = int32(len(m.tmpl))
		for idx, in := range b.Instrs {
			op := traceOp{
				class:   in.Op.FUClass(),
				lat:     int32(in.Op.Latency()),
				pc:      b.Addr + uint64(idx*ir.InstrBytes),
				isLoad:  in.Op == ir.OpLoad,
				isStore: in.Op == ir.OpStore,
			}
			op.nsrc = uint8(len(in.Uses(op.srcs[:0])))
			if d, ok := in.Def(); ok {
				op.dst, op.hasDst = d, true
			}
			m.tmpl = append(m.tmpl, op)
		}
		// Terminator: occupies the branch unit for one cycle.
		term := traceOp{
			class: ir.ClassBranch,
			lat:   1,
			pc:    b.Addr + uint64(len(b.Instrs)*ir.InstrBytes),
		}
		if b.Term.Kind == ir.TermBr {
			term.isBranch = true
			term.srcs[0] = b.Term.Cond
			term.nsrc = 1
		}
		m.tmpl = append(m.tmpl, term)
		m.tmpl[sp.start].newBlock = true
		sp.end = int32(len(m.tmpl))
	}
	return m.tmpl[sp.start:sp.end]
}

// runTask executes one dynamic instance of the task the machine is parked at
// and returns its annotated trace, which is valid until the next call. The
// machine advances to the successor task's entry.
func (m *machine) runTask(part *core.Partition, t *core.Task, budget uint64) (*taskTrace, error) {
	inst := core.NewInstance(t)
	tr := &m.tr
	*tr = taskTrace{task: t, ops: tr.ops[:0], exitIdx: -1}
	for {
		b := m.prog.Fn(m.fn).Block(m.blk)
		n := len(tr.ops)
		tr.ops = append(tr.ops, m.decode(b)...)
		ops := tr.ops[n:]
		for idx, in := range b.Instrs {
			if op := &ops[idx]; op.isLoad || op.isStore {
				op.addr = uint64(int64(m.regs[in.Src1]) + in.Imm)
			}
			// Forward points are set by markForwards after the whole trace
			// is known (per-path release, as the Multiscalar compiler's
			// register communication scheduling produces).
			emu.ExecOn(in, &m.regs, m.mem.Load, m.mem.Store)
		}
		m.count += uint64(len(ops))
		// Evaluate the terminator: advance machine position and compute the
		// dynamic successor block Instance.Step needs.
		var nextBlk ir.BlockID
		done := false
		switch b.Term.Kind {
		case ir.TermGoto:
			nextBlk = b.Term.Taken
			m.blk = nextBlk
		case ir.TermBr:
			if m.regs[b.Term.Cond] != 0 {
				ops[len(b.Instrs)].taken = true
				nextBlk = b.Term.Taken
			} else {
				nextBlk = b.Term.Fall
			}
			m.blk = nextBlk
		case ir.TermCall:
			m.stack = append(m.stack, retAddr{fn: m.fn, blk: b.Term.Fall})
			m.fn = b.Term.Callee
			m.blk = m.prog.Fn(b.Term.Callee).Entry
			nextBlk = m.blk
		case ir.TermRet:
			if len(m.stack) == 0 {
				done = true // return from main ends the program
				break
			}
			top := m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
			m.fn, m.blk = top.fn, top.blk
			nextBlk = top.blk
		case ir.TermHalt:
			done = true
		}
		if b.Term.IsCT() {
			tr.ctInstrs++
		}
		if done {
			if b.Term.Kind == ir.TermRet {
				tr.exit = core.Target{Kind: core.TargetReturn}
			} else {
				tr.exit = core.Target{Kind: core.TargetHalt}
			}
			tr.exitIdx = t.TargetIndex(tr.exit)
			tr.done = true
			return tr, m.checkBudget(budget)
		}
		cont, tgt := inst.Step(b, nextBlk)
		if !cont {
			tr.exit = tgt
			tr.exitIdx = t.TargetIndex(tgt)
			tr.next = core.EntryKey{Fn: m.fn, Blk: m.blk}
			if tgt.Kind == core.TargetCall && len(m.stack) > 0 {
				top := m.stack[len(m.stack)-1]
				tr.retResume = core.EntryKey{Fn: top.fn, Blk: top.blk}
			}
			return tr, m.checkBudget(budget)
		}
		if err := m.checkBudget(budget); err != nil {
			return nil, err
		}
	}
}

func (m *machine) checkBudget(budget uint64) error {
	if m.count > budget {
		return fmt.Errorf("sim: %w (budget %d)", emu.ErrLimit, budget)
	}
	return nil
}

// markForwards marks, for every register in the task's create mask, the
// dynamically last write in the instance as the forward point. This models
// the paper's compiler-scheduled register communication: a forward bit on
// the last update along each path, with release instructions on paths that
// update a register earlier (or not at all — those registers release at task
// end, which the timing model applies to any created register without a
// marked forward).
func markForwards(tr *taskTrace) {
	var seen [ir.NumRegs]bool
	for i := len(tr.ops) - 1; i >= 0; i-- {
		op := &tr.ops[i]
		if op.hasDst && !seen[op.dst] && tr.task.CreateMask.Has(op.dst) {
			op.forwards = true
			seen[op.dst] = true
		}
	}
}
