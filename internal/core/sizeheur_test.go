package core

import (
	"testing"

	"multiscalar/internal/cfganal"
	"multiscalar/internal/emu"
	"multiscalar/internal/ir"
)

// runBoth runs the original and transformed programs and compares final
// architectural state — the semantic-preservation oracle for every task-size
// transformation.
func runBoth(t *testing.T, orig, xform *ir.Program) {
	t.Helper()
	m1 := emu.New(orig)
	if err := m1.Run(10_000_000); err != nil {
		t.Fatalf("original: %v", err)
	}
	m2 := emu.New(xform)
	if err := m2.Run(10_000_000); err != nil {
		t.Fatalf("transformed: %v", err)
	}
	if m1.Mem.Checksum() != m2.Mem.Checksum() {
		t.Errorf("memory diverged: %#x vs %#x", m1.Mem.Checksum(), m2.Mem.Checksum())
	}
	for r := 0; r < ir.NumRegs; r++ {
		if m1.Regs[r] != m2.Regs[r] {
			t.Errorf("register %v diverged: %d vs %d", ir.Reg(r), int64(m1.Regs[r]), int64(m2.Regs[r]))
		}
	}
	if m1.Count != m2.Count {
		// Unrolling/hoisting may change instruction counts (preheaders add
		// instructions, unrolling only rewires edges). Only flag wild
		// divergence which would indicate broken control flow.
		diff := int64(m1.Count) - int64(m2.Count)
		if diff < 0 {
			diff = -diff
		}
		if diff > int64(m1.Count)/2+64 {
			t.Errorf("dynamic count diverged wildly: %d vs %d", m1.Count, m2.Count)
		}
	}
}

func TestUnrollPreservesSemantics(t *testing.T) {
	orig := loopProg(t)
	xform := ir.Clone(orig)
	if !ApplyTaskSize(xform, Options{LoopThresh: 30, CallThresh: 30}) {
		t.Fatal("ApplyTaskSize reported no change on a small loop")
	}
	if err := ir.Validate(xform); err != nil {
		t.Fatalf("transformed program invalid: %v", err)
	}
	runBoth(t, orig, xform)
}

func TestUnrollExpandsBody(t *testing.T) {
	p := loopProg(t)
	before := cfganal.Analyze(p.Fn(0)).Loops[0].NumInstrs(p.Fn(0))
	ApplyTaskSize(p, Options{LoopThresh: 30, CallThresh: 30})
	g := cfganal.Analyze(p.Fn(0))
	if len(g.Loops) == 0 {
		t.Fatal("loop disappeared")
	}
	after := g.Loops[0].NumInstrs(p.Fn(0))
	if after < 30 {
		t.Errorf("unrolled body = %d instrs (was %d), want >= 30", after, before)
	}
}

func TestUnrollNonMultipleTripCount(t *testing.T) {
	// Trip count 7 with an unroll factor that does not divide it: correctness
	// must hold because iteration copies re-test the condition.
	b := ir.NewBuilder("trip7")
	out := b.Zeros(1)
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).MovI(ir.R(4), 0).MovI(ir.R(8), int64(out)).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 7).Br(ir.R(5), "body", "exit")
	f.Block("body").Add(ir.R(4), ir.R(4), ir.R(3)).AddI(ir.R(3), ir.R(3), 1).Goto("head")
	f.Block("exit").Store(ir.R(4), ir.R(8), 0).Halt()
	f.End()
	orig := b.Build()
	xform := ir.Clone(orig)
	ApplyTaskSize(xform, Options{LoopThresh: 30, CallThresh: 30})
	runBoth(t, orig, xform)
	m := emu.New(xform)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load(ir.DataBase); got != 21 {
		t.Errorf("sum 0..6 = %d, want 21", got)
	}
}

func TestUnrollZeroTripLoop(t *testing.T) {
	b := ir.NewBuilder("trip0")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 10).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 5).Br(ir.R(5), "body", "exit")
	f.Block("body").AddI(ir.R(3), ir.R(3), 1).Goto("head")
	f.Block("exit").Halt()
	f.End()
	orig := b.Build()
	xform := ir.Clone(orig)
	ApplyTaskSize(xform, Options{LoopThresh: 30, CallThresh: 30})
	runBoth(t, orig, xform)
}

func TestUnrollSkipsLargeLoops(t *testing.T) {
	b := ir.NewBuilder("big")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 4).Br(ir.R(5), "body", "exit")
	bb := f.Block("body")
	for i := 0; i < 40; i++ {
		bb.Nop()
	}
	bb.AddI(ir.R(3), ir.R(3), 1)
	bb.Goto("head")
	f.Block("exit").Halt()
	f.End()
	p := b.Build()
	nBefore := len(p.Fn(0).Blocks)
	ApplyTaskSize(p, Options{LoopThresh: 30, CallThresh: 30})
	// The loop is already 40+ instructions; hoisting may add a preheader but
	// no iteration copies should appear.
	if got := len(p.Fn(0).Blocks); got > nBefore+1 {
		t.Errorf("blocks grew %d -> %d; large loop was unrolled", nBefore, got)
	}
}

func TestUnrollNestedLoopsOnlyInnermost(t *testing.T) {
	b := ir.NewBuilder("nest")
	out := b.Zeros(1)
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).MovI(ir.R(7), 0).MovI(ir.R(8), int64(out)).Goto("ohead")
	f.Block("ohead").SltI(ir.R(5), ir.R(3), 5).Br(ir.R(5), "iinit", "exit")
	f.Block("iinit").MovI(ir.R(4), 0).Goto("ihead")
	f.Block("ihead").SltI(ir.R(6), ir.R(4), 3).Br(ir.R(6), "ibody", "olatch")
	f.Block("ibody").Add(ir.R(7), ir.R(7), ir.R(4)).AddI(ir.R(4), ir.R(4), 1).Goto("ihead")
	f.Block("olatch").AddI(ir.R(3), ir.R(3), 1).Goto("ohead")
	f.Block("exit").Store(ir.R(7), ir.R(8), 0).Halt()
	f.End()
	orig := b.Build()
	xform := ir.Clone(orig)
	ApplyTaskSize(xform, Options{LoopThresh: 30, CallThresh: 30})
	runBoth(t, orig, xform)
	m := emu.New(xform)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load(ir.DataBase); got != 15 { // 5 * (0+1+2)
		t.Errorf("nested sum = %d, want 15", got)
	}
}

func TestUnrollLoopWithCall(t *testing.T) {
	b := ir.NewBuilder("loopcall")
	hlp := b.DeclareFn("h")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 6).Br(ir.R(5), "body", "exit")
	f.Block("body").Mov(ir.RegArg0, ir.R(3)).Call(hlp, "cont")
	f.Block("cont").Add(ir.R(7), ir.R(7), ir.RegRV).AddI(ir.R(3), ir.R(3), 1).Goto("head")
	f.Block("exit").Halt()
	f.End()
	g := b.Func("h")
	g.Block("entry").MulI(ir.RegRV, ir.RegArg0, 2).Ret()
	g.End()
	orig := b.Build()
	xform := ir.Clone(orig)
	ApplyTaskSize(xform, Options{LoopThresh: 30, CallThresh: 30})
	if err := ir.Validate(xform); err != nil {
		t.Fatalf("invalid after unroll with call: %v", err)
	}
	runBoth(t, orig, xform)
}

func TestInductionHoisting(t *testing.T) {
	// A loop shaped so hoisting applies: latch ends in goto head, increment
	// last, register used only in the body before the latch.
	b := ir.NewBuilder("hoist")
	out := b.Zeros(1)
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).MovI(ir.R(4), 0).MovI(ir.R(8), int64(out)).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 9).Br(ir.R(5), "latch", "exit")
	f.Block("latch").Add(ir.R(4), ir.R(4), ir.R(3)).AddI(ir.R(3), ir.R(3), 1).Goto("head")
	f.Block("exit").Store(ir.R(4), ir.R(8), 0).Store(ir.R(3), ir.R(8), 8).Halt()
	f.End()
	orig := b.Build()
	xform := ir.Clone(orig)
	if _, hoisted := hoistInductions(xform.Fn(0)); !hoisted {
		t.Fatal("hoistInductions found nothing")
	}
	xform.Layout()
	if err := ir.Validate(xform); err != nil {
		t.Fatalf("invalid after hoist: %v", err)
	}
	runBoth(t, orig, xform)
	m := emu.New(xform)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load(ir.DataBase); got != 36 {
		t.Errorf("sum = %d, want 36", got)
	}
	if got := int64(m.Mem.Load(ir.DataBase + 8)); got != 9 {
		t.Errorf("final induction value = %d, want 9", got)
	}
}

func TestHoistSkipsMultiDef(t *testing.T) {
	b := ir.NewBuilder("multidef")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 5).Br(ir.R(5), "latch", "exit")
	f.Block("latch").AddI(ir.R(3), ir.R(3), 1).AddI(ir.R(3), ir.R(3), 0).Goto("head")
	f.Block("exit").Halt()
	f.End()
	p := b.Build()
	if _, hoisted := hoistInductions(p.Fn(0)); hoisted {
		t.Error("hoisted a register with two defs in the loop")
	}
}

func TestTaskSizeFullPipelinePreservesSemantics(t *testing.T) {
	for _, mk := range []func(testing.TB) *ir.Program{loopProg, diamondProg, callProg} {
		orig := mk(t)
		xform := ir.Clone(orig)
		ApplyTaskSize(xform, Options{LoopThresh: 30, CallThresh: 30})
		if err := ir.Validate(xform); err != nil {
			t.Fatalf("%s: %v", orig.Name, err)
		}
		runBoth(t, orig, xform)
	}
}
