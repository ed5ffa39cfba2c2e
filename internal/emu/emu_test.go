package emu

import (
	"errors"
	"testing"
	"testing/quick"

	"multiscalar/internal/ir"
)

// sumProg computes sum of 0..9 into memory word at DataBase.
func sumProg(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("sum")
	out := b.Zeros(1)
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).MovI(ir.R(4), 0).MovI(ir.R(8), int64(out)).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 10).Br(ir.R(5), "body", "exit")
	f.Block("body").Add(ir.R(4), ir.R(4), ir.R(3)).AddI(ir.R(3), ir.R(3), 1).Goto("head")
	f.Block("exit").Store(ir.R(4), ir.R(8), 0).Halt()
	f.End()
	return b.Build()
}

func TestRunSumLoop(t *testing.T) {
	m := New(sumProg(t))
	if err := m.Run(10000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := m.Mem.Load(ir.DataBase); got != 45 {
		t.Errorf("sum = %d, want 45", got)
	}
	if m.Regs[ir.R(3)] != 10 {
		t.Errorf("induction variable = %d, want 10", m.Regs[ir.R(3)])
	}
}

func TestInstructionLimit(t *testing.T) {
	b := ir.NewBuilder("inf")
	f := b.Func("main")
	f.Block("spin").Nop().Goto("spin")
	f.End()
	m := New(b.Build())
	if err := m.Run(100); !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

func TestCallAndReturn(t *testing.T) {
	b := ir.NewBuilder("call")
	sq := b.DeclareFn("square")
	f := b.Func("main")
	f.Block("entry").MovI(ir.RegArg0, 7).Call(sq, "after")
	f.Block("after").Mov(ir.R(10), ir.RegRV).Halt()
	f.End()
	g := b.Func("square")
	g.Block("entry").Mul(ir.RegRV, ir.RegArg0, ir.RegArg0).Ret()
	g.End()
	m := New(b.Build())
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if m.Regs[ir.R(10)] != 49 {
		t.Errorf("square(7) = %d", m.Regs[ir.R(10)])
	}
	if m.Depth() != 0 {
		t.Errorf("stack depth = %d after completion", m.Depth())
	}
}

func TestRecursionViaExplicitSpills(t *testing.T) {
	// fact(n): spills arg to the stack around the recursive call.
	b := ir.NewBuilder("fact")
	fact := b.DeclareFn("fact")
	f := b.Func("main")
	f.Block("entry").MovI(ir.RegArg0, 6).Call(fact, "after")
	f.Block("after").Mov(ir.R(10), ir.RegRV).Halt()
	f.End()
	g := b.Func("fact")
	g.Block("entry").SltI(ir.R(6), ir.RegArg0, 2).Br(ir.R(6), "base", "rec")
	g.Block("base").MovI(ir.RegRV, 1).Ret()
	g.Block("rec").
		AddI(ir.RegSP, ir.RegSP, -8).
		Store(ir.RegArg0, ir.RegSP, 0).
		AddI(ir.RegArg0, ir.RegArg0, -1).
		Call(fact, "unwind")
	g.Block("unwind").
		Load(ir.RegArg0, ir.RegSP, 0).
		AddI(ir.RegSP, ir.RegSP, 8).
		Mul(ir.RegRV, ir.RegArg0, ir.RegRV).
		Ret()
	g.End()
	m := New(b.Build())
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m.Regs[ir.R(10)] != 720 {
		t.Errorf("fact(6) = %d, want 720", m.Regs[ir.R(10)])
	}
}

func TestProfileCounts(t *testing.T) {
	m := New(sumProg(t))
	prof := m.EnableProfile()
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if prof.BlockFreq[0][0] != 1 {
		t.Errorf("entry freq = %d", prof.BlockFreq[0][0])
	}
	if prof.BlockFreq[0][1] != 11 { // head: 10 iterations + exit test
		t.Errorf("head freq = %d, want 11", prof.BlockFreq[0][1])
	}
	if prof.BlockFreq[0][2] != 10 {
		t.Errorf("body freq = %d, want 10", prof.BlockFreq[0][2])
	}
}

func TestProfileInclusiveInstrs(t *testing.T) {
	b := ir.NewBuilder("incl")
	leaf := b.DeclareFn("leaf")
	mid := b.DeclareFn("mid")
	f := b.Func("main")
	f.Block("entry").Call(mid, "after")
	f.Block("after").Halt()
	f.End()
	g := b.Func("mid")
	g.Block("entry").Nop().Call(leaf, "back")
	g.Block("back").Ret()
	g.End()
	h := b.Func("leaf")
	h.Block("entry").Nop().Nop().Ret()
	h.End()
	m := New(b.Build())
	prof := m.EnableProfile()
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	// leaf: 2 nops + ret = 3; mid inclusive: nop + call + leaf(3) + ret = 6.
	if got := prof.AvgInclInstrs(leaf); got != 3 {
		t.Errorf("leaf inclusive = %v, want 3", got)
	}
	if got := prof.AvgInclInstrs(mid); got != 6 {
		t.Errorf("mid inclusive = %v, want 6", got)
	}
}

func TestMemorySparseAndAligned(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 7)
	if m.Load(0x1003) != 7 { // same word, aligned down
		t.Error("unaligned load did not align down")
	}
	if m.Load(0x1008) != 0 {
		t.Error("untouched memory not zero")
	}
}

func TestChecksumOrderInsensitiveToWriteOrder(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.Store(8, 1)
	a.Store(16, 2)
	b.Store(16, 2)
	b.Store(8, 1)
	if a.Checksum() != b.Checksum() {
		t.Error("checksum depends on write order")
	}
	b.Store(8, 3)
	if a.Checksum() == b.Checksum() {
		t.Error("checksum insensitive to value change")
	}
}

func TestChecksumIgnoresZeroWrites(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.Store(64, 0)
	if a.Checksum() != b.Checksum() {
		t.Error("explicit zero store changed checksum")
	}
}

func TestExecArithmetic(t *testing.T) {
	var regs [ir.NumRegs]uint64
	load := func(uint64) uint64 { return 0 }
	store := func(uint64, uint64) {}
	regs[ir.R(4)] = ^uint64(5)
	regs[ir.R(5)] = 4
	cases := []struct {
		op   ir.Opcode
		want int64
	}{
		{ir.OpAdd, -2}, {ir.OpSub, -10}, {ir.OpMul, -24}, {ir.OpDiv, -1},
		{ir.OpRem, -2}, {ir.OpSlt, 1}, {ir.OpSle, 1}, {ir.OpSeq, 0}, {ir.OpSne, 1},
	}
	for _, c := range cases {
		ExecOn(ir.Instr{Op: c.op, Dst: ir.R(6), Src1: ir.R(4), Src2: ir.R(5)}, &regs, load, store)
		if got := int64(regs[ir.R(6)]); got != c.want {
			t.Errorf("%v(-6,4) = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestExecDivByZero(t *testing.T) {
	var regs [ir.NumRegs]uint64
	regs[ir.R(4)] = 10
	ExecOn(ir.Instr{Op: ir.OpDiv, Dst: ir.R(6), Src1: ir.R(4), Src2: ir.R(5)}, &regs, nil, nil)
	if regs[ir.R(6)] != 0 {
		t.Error("div by zero != 0")
	}
	ExecOn(ir.Instr{Op: ir.OpRem, Dst: ir.R(6), Src1: ir.R(4), Src2: ir.R(5)}, &regs, nil, nil)
	if regs[ir.R(6)] != 0 {
		t.Error("rem by zero != 0")
	}
}

func TestExecZeroRegisterImmutable(t *testing.T) {
	var regs [ir.NumRegs]uint64
	ExecOn(ir.Instr{Op: ir.OpMovI, Dst: ir.RegZero, Imm: 99}, &regs, nil, nil)
	if regs[ir.RegZero] != 0 {
		t.Error("write to r0 not discarded")
	}
}

func TestExecFloatOps(t *testing.T) {
	var regs [ir.NumRegs]uint64
	regs[ir.F(0)] = ir.F64Bits(3.5)
	regs[ir.F(1)] = ir.F64Bits(2.0)
	check := func(op ir.Opcode, want float64) {
		t.Helper()
		ExecOn(ir.Instr{Op: op, Dst: ir.F(2), Src1: ir.F(0), Src2: ir.F(1)}, &regs, nil, nil)
		if got := ir.F64(regs[ir.F(2)]); got != want {
			t.Errorf("%v(3.5,2.0) = %g, want %g", op, got, want)
		}
	}
	check(ir.OpFAdd, 5.5)
	check(ir.OpFSub, 1.5)
	check(ir.OpFMul, 7.0)
	check(ir.OpFDiv, 1.75)
}

func TestExecFSqrtMatchesNewton(t *testing.T) {
	f := func(x float64) bool {
		if x < 0 || x != x || x > 1e150 {
			return true
		}
		got := fsqrt(x)
		return got*got-x < 1e-9*x+1e-12 && x-got*got < 1e-9*x+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExecCvt(t *testing.T) {
	var regs [ir.NumRegs]uint64
	regs[ir.R(4)] = ^uint64(2)
	ExecOn(ir.Instr{Op: ir.OpCvtIF, Dst: ir.F(0), Src1: ir.R(4)}, &regs, nil, nil)
	if ir.F64(regs[ir.F(0)]) != -3.0 {
		t.Error("cvtif wrong")
	}
	regs[ir.F(1)] = ir.F64Bits(-2.9)
	ExecOn(ir.Instr{Op: ir.OpCvtFI, Dst: ir.R(5), Src1: ir.F(1)}, &regs, nil, nil)
	if int64(regs[ir.R(5)]) != -2 {
		t.Errorf("cvtfi(-2.9) = %d, want -2 (truncation)", int64(regs[ir.R(5)]))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		m := New(sumProg(t))
		if err := m.Run(10000); err != nil {
			t.Fatal(err)
		}
		return m.Count, m.Mem.Checksum()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Error("emulator is nondeterministic")
	}
}

func TestPCTracking(t *testing.T) {
	m := New(sumProg(t))
	fn, blk := m.PC()
	if fn != 0 || blk != 0 {
		t.Errorf("initial PC = %d/%d", fn, blk)
	}
	if done, err := m.StepBlock(); done || err != nil {
		t.Fatalf("StepBlock: %v %v", done, err)
	}
	if _, blk = m.PC(); blk != 1 {
		t.Errorf("PC after entry = b%d, want b1", blk)
	}
}

// words returns the number of nonzero words resident in m.
func words(m *Memory) int {
	n := 0
	m.words.Pages(func(_ uint64, vals []uint64) {
		for _, v := range vals {
			if v != 0 {
				n++
			}
		}
	})
	return n
}

func TestMemoryWordsCount(t *testing.T) {
	m := NewMemory()
	if words(m) != 0 {
		t.Error("fresh memory has words")
	}
	m.Store(0, 5)
	m.Store(8, 0) // zero store does not count
	m.Store(16, 7)
	if got := words(m); got != 2 {
		t.Errorf("Words = %d, want 2", got)
	}
	m.Reset()
	if got := words(m); got != 0 || m.Load(16) != 0 {
		t.Errorf("after Reset: %d words, word 16 = %d; want an empty memory", got, m.Load(16))
	}
}

func TestLoadImage(t *testing.T) {
	b := ir.NewBuilder("img")
	addr := b.Data(11, 22, 33)
	f := b.Func("main")
	f.Block("entry").Halt()
	f.End()
	m := New(b.Build())
	for i, want := range []uint64{11, 22, 33} {
		if got := m.Mem.Load(addr + uint64(i*8)); got != want {
			t.Errorf("image word %d = %d, want %d", i, got, want)
		}
	}
}
