// Package emu is the sequential functional emulator for the IR. It serves
// three purposes in the reproduction:
//
//  1. It produces the dynamic profile (block frequencies, edge frequencies,
//     per-invocation dynamic instruction counts) that the paper's task-size
//     and data-dependence heuristics consume.
//  2. It is the architectural oracle: the cycle-level Multiscalar simulator
//     must leave memory and registers in exactly the state the emulator
//     computes, which the integration tests check.
//  3. It measures the dynamic instruction stream used for per-task metrics
//     (Table 1's #dyn inst and #ct inst columns).
package emu

import (
	"errors"
	"fmt"

	"multiscalar/internal/ir"
	"multiscalar/internal/paged"
)

// ErrLimit is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrLimit = errors.New("emu: instruction limit exceeded")

// Memory is a sparse word-addressed memory. Addresses are byte addresses;
// accesses are aligned down to 8-byte words. Words live in 4 KiB pages that
// a directory indexes by word number (paged.Table): a page is allocated on
// its first write and kept across Reset, and a map holds only the words past
// the directory's 32 MiB, which no program reaches. Reset and Checksum visit
// only the pages written since the last Reset, so both cost what the last
// run touched. The zero value is usable.
type Memory struct {
	words paged.Table[uint64]
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return new(Memory) }

// Load returns the word at the (aligned-down) byte address.
func (m *Memory) Load(addr uint64) uint64 { return m.words.At(addr / ir.WordBytes) }

// Store writes the word at the (aligned-down) byte address.
func (m *Memory) Store(addr, val uint64) { *m.words.Ref(addr / ir.WordBytes) = val }

// Reset empties the memory and keeps its pages for reuse.
func (m *Memory) Reset() { m.words.Reset() }

// LoadImage copies the program's initial data image into memory.
func (m *Memory) LoadImage(p *ir.Program) {
	for i, w := range p.Data {
		m.Store(ir.DataBase+uint64(i)*ir.WordBytes, uint64(w))
	}
}

// Checksum folds every word of memory into a deterministic 64-bit hash
// (address-sensitive), used to compare simulator and emulator end states.
// Words are folded in address order, and zero words are skipped: they are
// indistinguishable from untouched memory.
func (m *Memory) Checksum() uint64 {
	var sum uint64 = 14695981039346656037 // FNV offset basis
	m.words.Pages(func(first uint64, vals []uint64) {
		for i, v := range vals {
			if v == 0 {
				continue
			}
			sum ^= first + uint64(i)
			sum *= 1099511628211
			sum ^= v
			sum *= 1099511628211
		}
	})
	return sum
}

// Profile is the dynamic profile of one program run.
type Profile struct {
	// BlockFreq[fn][block] is the execution count of each basic block.
	BlockFreq [][]uint64
	// CallFreq[fn] is the number of invocations of each function.
	CallFreq []uint64
	// InclInstrs[fn] is the total dynamic instructions executed inside each
	// function including its callees, summed over invocations.
	InclInstrs []uint64
}

// AvgInclInstrs returns the average dynamic instructions per invocation of
// fn, callees included; returns 0 when the function never ran.
func (p *Profile) AvgInclInstrs(fn ir.FnID) float64 {
	if p == nil || int(fn) >= len(p.CallFreq) || p.CallFreq[fn] == 0 {
		return 0
	}
	return float64(p.InclInstrs[fn]) / float64(p.CallFreq[fn])
}

// Freq returns the execution count of a block, 0 when no profile.
func (p *Profile) Freq(fn ir.FnID, b ir.BlockID) uint64 {
	if p == nil || int(fn) >= len(p.BlockFreq) || int(b) >= len(p.BlockFreq[fn]) {
		return 0
	}
	return p.BlockFreq[fn][b]
}

// Machine executes a program sequentially.
type Machine struct {
	Prog *ir.Program
	Regs [ir.NumRegs]uint64
	Mem  *Memory

	fn    ir.FnID
	blk   ir.BlockID
	stack []retAddr

	// Count is the number of dynamic instructions executed so far
	// (terminators included).
	Count uint64

	prof       *Profile
	inclEnter  []uint64 // Count at entry per active frame, parallel to stack
	curEntered uint64   // Count at entry of the current frame
}

type retAddr struct {
	fn  ir.FnID
	blk ir.BlockID
}

// New returns a machine ready to run the program from its main function,
// with the data image loaded and the stack pointer initialized.
func New(p *ir.Program) *Machine {
	if !p.LaidOut() {
		p.Layout()
	}
	m := &Machine{Prog: p, Mem: NewMemory()}
	m.Mem.LoadImage(p)
	m.Regs[ir.RegSP] = ir.StackBase
	m.fn = p.Main
	m.blk = p.Fn(p.Main).Entry
	return m
}

// EnableProfile attaches a fresh profile that Run will populate.
func (m *Machine) EnableProfile() *Profile {
	p := &Profile{
		BlockFreq:  make([][]uint64, len(m.Prog.Fns)),
		CallFreq:   make([]uint64, len(m.Prog.Fns)),
		InclInstrs: make([]uint64, len(m.Prog.Fns)),
	}
	for i, f := range m.Prog.Fns {
		p.BlockFreq[i] = make([]uint64, len(f.Blocks))
	}
	p.CallFreq[m.Prog.Main]++
	m.prof = p
	return p
}

// Run executes until the program halts or limit instructions have executed.
// It returns ErrLimit if the budget ran out.
func (m *Machine) Run(limit uint64) error {
	for {
		done, err := m.StepBlock()
		if err != nil {
			return err
		}
		if done {
			if m.prof != nil {
				m.prof.InclInstrs[m.Prog.Main] += m.Count - m.curEntered
			}
			return nil
		}
		if m.Count > limit {
			return fmt.Errorf("%w (limit %d)", ErrLimit, limit)
		}
	}
}

// StepBlock executes the current basic block including its terminator and
// advances control. It returns done=true when the program halts.
func (m *Machine) StepBlock() (done bool, err error) {
	f := m.Prog.Fn(m.fn)
	b := f.Block(m.blk)
	if m.prof != nil {
		m.prof.BlockFreq[m.fn][m.blk]++
	}
	for _, in := range b.Instrs {
		m.Exec(in)
	}
	m.Count++ // the terminator
	switch b.Term.Kind {
	case ir.TermGoto:
		m.blk = b.Term.Taken
	case ir.TermBr:
		if m.Regs[b.Term.Cond] != 0 {
			m.blk = b.Term.Taken
		} else {
			m.blk = b.Term.Fall
		}
	case ir.TermCall:
		m.stack = append(m.stack, retAddr{fn: m.fn, blk: b.Term.Fall})
		if m.prof != nil {
			m.prof.CallFreq[b.Term.Callee]++
			m.inclEnter = append(m.inclEnter, m.curEntered)
			m.curEntered = m.Count
		}
		m.fn = b.Term.Callee
		m.blk = m.Prog.Fn(m.fn).Entry
	case ir.TermRet:
		if len(m.stack) == 0 {
			return true, nil // return from main ends the program
		}
		if m.prof != nil {
			m.prof.InclInstrs[m.fn] += m.Count - m.curEntered
			m.curEntered = m.inclEnter[len(m.inclEnter)-1]
			m.inclEnter = m.inclEnter[:len(m.inclEnter)-1]
		}
		top := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		m.fn, m.blk = top.fn, top.blk
	case ir.TermHalt:
		return true, nil
	}
	return false, nil
}

// Exec executes one straight-line instruction against the machine state.
// It is exported because the cycle simulator reuses it for functional
// execution (with its own register/memory views via ExecOn).
func (m *Machine) Exec(in ir.Instr) {
	m.Count++
	ExecOn(in, &m.Regs, m.Mem.Load, m.Mem.Store)
}

// ExecOn executes one instruction against an arbitrary register file and
// memory access functions. This is the single functional-semantics
// implementation shared by the emulator and the Multiscalar simulator, so
// the two can never diverge.
func ExecOn(in ir.Instr, regs *[ir.NumRegs]uint64, load func(uint64) uint64, store func(uint64, uint64)) {
	r := func(x ir.Reg) uint64 { return regs[x] }
	set := func(x ir.Reg, v uint64) {
		if x != ir.RegZero {
			regs[x] = v
		}
	}
	i64 := func(x ir.Reg) int64 { return int64(regs[x]) }
	f64 := func(x ir.Reg) float64 { return ir.F64(regs[x]) }
	setf := func(x ir.Reg, v float64) { set(x, ir.F64Bits(v)) }
	b2i := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	switch in.Op {
	case ir.OpNop:
	case ir.OpAdd:
		set(in.Dst, uint64(i64(in.Src1)+i64(in.Src2)))
	case ir.OpSub:
		set(in.Dst, uint64(i64(in.Src1)-i64(in.Src2)))
	case ir.OpMul:
		set(in.Dst, uint64(i64(in.Src1)*i64(in.Src2)))
	case ir.OpDiv:
		if d := i64(in.Src2); d != 0 {
			set(in.Dst, uint64(i64(in.Src1)/d))
		} else {
			set(in.Dst, 0)
		}
	case ir.OpRem:
		if d := i64(in.Src2); d != 0 {
			set(in.Dst, uint64(i64(in.Src1)%d))
		} else {
			set(in.Dst, 0)
		}
	case ir.OpAnd:
		set(in.Dst, r(in.Src1)&r(in.Src2))
	case ir.OpOr:
		set(in.Dst, r(in.Src1)|r(in.Src2))
	case ir.OpXor:
		set(in.Dst, r(in.Src1)^r(in.Src2))
	case ir.OpShl:
		set(in.Dst, r(in.Src1)<<(r(in.Src2)&63))
	case ir.OpShr:
		set(in.Dst, uint64(i64(in.Src1)>>(r(in.Src2)&63)))
	case ir.OpSlt:
		set(in.Dst, b2i(i64(in.Src1) < i64(in.Src2)))
	case ir.OpSle:
		set(in.Dst, b2i(i64(in.Src1) <= i64(in.Src2)))
	case ir.OpSeq:
		set(in.Dst, b2i(r(in.Src1) == r(in.Src2)))
	case ir.OpSne:
		set(in.Dst, b2i(r(in.Src1) != r(in.Src2)))
	case ir.OpAddI:
		set(in.Dst, uint64(i64(in.Src1)+in.Imm))
	case ir.OpMulI:
		set(in.Dst, uint64(i64(in.Src1)*in.Imm))
	case ir.OpAndI:
		set(in.Dst, r(in.Src1)&uint64(in.Imm))
	case ir.OpOrI:
		set(in.Dst, r(in.Src1)|uint64(in.Imm))
	case ir.OpXorI:
		set(in.Dst, r(in.Src1)^uint64(in.Imm))
	case ir.OpShlI:
		set(in.Dst, r(in.Src1)<<(uint64(in.Imm)&63))
	case ir.OpShrI:
		set(in.Dst, uint64(i64(in.Src1)>>(uint64(in.Imm)&63)))
	case ir.OpSltI:
		set(in.Dst, b2i(i64(in.Src1) < in.Imm))
	case ir.OpSeqI:
		set(in.Dst, b2i(i64(in.Src1) == in.Imm))
	case ir.OpMovI:
		set(in.Dst, uint64(in.Imm))
	case ir.OpMov:
		set(in.Dst, r(in.Src1))
	case ir.OpLoad:
		set(in.Dst, load(uint64(i64(in.Src1)+in.Imm)))
	case ir.OpStore:
		store(uint64(i64(in.Src1)+in.Imm), r(in.Dst))
	case ir.OpFAdd:
		setf(in.Dst, f64(in.Src1)+f64(in.Src2))
	case ir.OpFSub:
		setf(in.Dst, f64(in.Src1)-f64(in.Src2))
	case ir.OpFMul:
		setf(in.Dst, f64(in.Src1)*f64(in.Src2))
	case ir.OpFDiv:
		setf(in.Dst, fdiv(f64(in.Src1), f64(in.Src2)))
	case ir.OpFNeg:
		setf(in.Dst, -f64(in.Src1))
	case ir.OpFAbs:
		setf(in.Dst, fabs(f64(in.Src1)))
	case ir.OpFSqrt:
		setf(in.Dst, fsqrt(f64(in.Src1)))
	case ir.OpFSlt:
		set(in.Dst, b2i(f64(in.Src1) < f64(in.Src2)))
	case ir.OpFSle:
		set(in.Dst, b2i(f64(in.Src1) <= f64(in.Src2)))
	case ir.OpFSeq:
		set(in.Dst, b2i(f64(in.Src1) == f64(in.Src2)))
	case ir.OpFMovI:
		set(in.Dst, uint64(in.Imm))
	case ir.OpCvtIF:
		setf(in.Dst, float64(i64(in.Src1)))
	case ir.OpCvtFI:
		set(in.Dst, uint64(int64(f64(in.Src1))))
	default:
		panic(fmt.Sprintf("emu: unimplemented opcode %v", in.Op))
	}
}

func fdiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fabs(a float64) float64 {
	if a < 0 {
		return -a
	}
	return a
}

// fsqrt is Newton's method sqrt to avoid importing math in the hot loop; the
// simulator and emulator share it so results agree bit-for-bit.
func fsqrt(a float64) float64 {
	if a <= 0 {
		return 0
	}
	x := a
	for i := 0; i < 32; i++ {
		nx := 0.5 * (x + a/x)
		if nx == x {
			break
		}
		x = nx
	}
	return x
}

// PC returns the current function and block (for tests).
func (m *Machine) PC() (ir.FnID, ir.BlockID) { return m.fn, m.blk }

// Depth returns the current call-stack depth.
func (m *Machine) Depth() int { return len(m.stack) }
