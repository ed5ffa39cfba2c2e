package sim

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/emu"
	"multiscalar/internal/ir"
	"multiscalar/internal/mem"
)

// vecSum builds a program that initializes an array and reduces it — a
// loop-parallel workload with cross-task (loop-carried) register dependence
// on the accumulator.
func vecSum(t testing.TB, n int64) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("vecsum")
	arr := b.Zeros(int(n))
	out := b.Zeros(2)
	f := b.Func("main")
	f.Block("entry").
		MovI(ir.R(3), 0).MovI(ir.R(8), int64(arr)).MovI(ir.R(9), int64(out)).
		Goto("ihead")
	f.Block("ihead").SltI(ir.R(5), ir.R(3), n).Br(ir.R(5), "ibody", "sinit")
	f.Block("ibody").
		MulI(ir.R(6), ir.R(3), 3).
		ShlI(ir.R(7), ir.R(3), 3).
		Add(ir.R(7), ir.R(7), ir.R(8)).
		Store(ir.R(6), ir.R(7), 0).
		AddI(ir.R(3), ir.R(3), 1).
		Goto("ihead")
	f.Block("sinit").MovI(ir.R(3), 0).MovI(ir.R(4), 0).Goto("shead")
	f.Block("shead").SltI(ir.R(5), ir.R(3), n).Br(ir.R(5), "sbody", "exit")
	f.Block("sbody").
		ShlI(ir.R(7), ir.R(3), 3).
		Add(ir.R(7), ir.R(7), ir.R(8)).
		Load(ir.R(6), ir.R(7), 0).
		Add(ir.R(4), ir.R(4), ir.R(6)).
		AddI(ir.R(3), ir.R(3), 1).
		Goto("shead")
	f.Block("exit").Store(ir.R(4), ir.R(9), 0).Halt()
	f.End()
	return b.Build()
}

// memDepProg stores through one pointer then loads through another within
// neighboring iterations, producing true cross-task memory dependences the
// ARB must catch: the produced value goes through a long divide chain, so the
// store lands late while the consumer's address (induction-based) is ready
// early — the successor task's speculative load races ahead of it.
func memDepProg(t testing.TB) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("memdep")
	buf := b.Zeros(64)
	f := b.Func("main")
	f.Block("entry").
		MovI(ir.R(3), 1).MovI(ir.R(8), int64(buf)).MovI(ir.R(10), 3).
		MovI(ir.R(11), 1000000).Store(ir.R(11), ir.R(8), 0).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 40).Br(ir.R(5), "body", "exit")
	f.Block("body").
		AddI(ir.R(6), ir.R(3), -1).
		ShlI(ir.R(6), ir.R(6), 3).
		Add(ir.R(6), ir.R(6), ir.R(8)).
		Load(ir.R(7), ir.R(6), 0). // reads what the previous iteration stored
		Div(ir.R(7), ir.R(7), ir.R(10)).
		Div(ir.R(7), ir.R(7), ir.R(10)).
		AddI(ir.R(7), ir.R(7), 1000000).
		ShlI(ir.R(9), ir.R(3), 3).
		Add(ir.R(9), ir.R(9), ir.R(8)).
		Store(ir.R(7), ir.R(9), 0).
		AddI(ir.R(3), ir.R(3), 1).
		Goto("head")
	f.Block("exit").Halt()
	f.End()
	return b.Build()
}

func partition(t testing.TB, p *ir.Program, h core.Heuristic) *core.Partition {
	t.Helper()
	part, err := core.Select(p, core.Options{Heuristic: h, TaskSize: true})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	return part
}

func runSim(t testing.TB, part *core.Partition, cfg Config) *Result {
	t.Helper()
	res, err := Run(part, cfg)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return res
}

// TestOracle checks the central invariant: the simulator's architectural end
// state equals the sequential emulator's, for every heuristic, PU count, and
// pipeline style.
func TestOracle(t *testing.T) {
	progs := []*ir.Program{vecSum(t, 50), memDepProg(t)}
	for _, p := range progs {
		for _, h := range []core.Heuristic{core.BasicBlock, core.ControlFlow, core.DataDependence} {
			part := partition(t, p, h)
			m := emu.New(part.Prog)
			if err := m.Run(10_000_000); err != nil {
				t.Fatal(err)
			}
			for _, pus := range []int{1, 4, 8} {
				for _, inorder := range []bool{false, true} {
					cfg := DefaultConfig(pus)
					cfg.InOrder = inorder
					res := runSim(t, part, cfg)
					if res.FinalChecksum != m.Mem.Checksum() {
						t.Errorf("%s/%v/%dPU/inorder=%v: memory checksum %#x, emulator %#x",
							p.Name, h, pus, inorder, res.FinalChecksum, m.Mem.Checksum())
					}
					if res.FinalRegs != m.Regs {
						t.Errorf("%s/%v/%dPU/inorder=%v: final registers diverge", p.Name, h, pus, inorder)
					}
					if res.Instrs != m.Count {
						t.Errorf("%s/%v/%dPU/inorder=%v: %d instrs simulated, emulator ran %d",
							p.Name, h, pus, inorder, res.Instrs, m.Count)
					}
				}
			}
		}
	}
}

func TestIPCWithinIssueBound(t *testing.T) {
	part := partition(t, vecSum(t, 100), core.ControlFlow)
	for _, pus := range []int{1, 4, 8} {
		res := runSim(t, part, DefaultConfig(pus))
		maxIPC := float64(pus * DefaultConfig(pus).IssueWidth)
		if res.IPC <= 0 || res.IPC > maxIPC {
			t.Errorf("%d PUs: IPC = %.3f outside (0, %.0f]", pus, res.IPC, maxIPC)
		}
	}
}

func TestMorePUsNotSlowerOnParallelLoop(t *testing.T) {
	part := partition(t, vecSum(t, 200), core.ControlFlow)
	r4 := runSim(t, part, DefaultConfig(4))
	r8 := runSim(t, part, DefaultConfig(8))
	// Allow a little slack: more PUs never hurt by much on a parallel loop.
	if float64(r8.Cycles) > 1.05*float64(r4.Cycles) {
		t.Errorf("8 PUs slower than 4: %d vs %d cycles", r8.Cycles, r4.Cycles)
	}
}

func TestHeuristicsBeatBasicBlocks(t *testing.T) {
	// The paper's headline: control-flow tasks outperform basic-block tasks.
	p := vecSum(t, 200)
	bb := runSim(t, partition(t, p, core.BasicBlock), DefaultConfig(4))
	cf := runSim(t, partition(t, p, core.ControlFlow), DefaultConfig(4))
	if cf.IPC <= bb.IPC {
		t.Errorf("control flow IPC %.3f not above basic block IPC %.3f", cf.IPC, bb.IPC)
	}
	if cf.AvgTaskSize <= bb.AvgTaskSize {
		t.Errorf("control flow task size %.1f not above basic block %.1f",
			cf.AvgTaskSize, bb.AvgTaskSize)
	}
}

func TestMemoryDependencesDetected(t *testing.T) {
	p := memDepProg(t)
	part, err := core.Select(p, core.Options{Heuristic: core.ControlFlow})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4)
	cfg.SyncTable = false
	res := runSim(t, part, cfg)
	if res.Violations == 0 {
		t.Error("no ARB violations on a loop-carried memory dependence with sync disabled")
	}
	if res.Restarts == 0 {
		t.Error("violations recorded but no restarts")
	}
}

func TestSyncTableReducesRestarts(t *testing.T) {
	part := partition(t, memDepProg(t), core.ControlFlow)
	noSync := DefaultConfig(4)
	noSync.SyncTable = false
	withSync := DefaultConfig(4)
	a := runSim(t, part, noSync)
	b := runSim(t, part, withSync)
	if b.Restarts >= a.Restarts && a.Restarts > 0 {
		t.Errorf("sync table did not reduce restarts: %d -> %d", a.Restarts, b.Restarts)
	}
}

func TestInOrderNotFasterThanOOO(t *testing.T) {
	part := partition(t, vecSum(t, 100), core.ControlFlow)
	ooo := runSim(t, part, DefaultConfig(4))
	ino := DefaultConfig(4)
	ino.InOrder = true
	inr := runSim(t, part, ino)
	if inr.IPC > ooo.IPC*1.01 {
		t.Errorf("in-order IPC %.3f exceeds out-of-order %.3f", inr.IPC, ooo.IPC)
	}
}

func TestDeterministicResults(t *testing.T) {
	part := partition(t, memDepProg(t), core.DataDependence)
	a := runSim(t, part, DefaultConfig(8))
	b := runSim(t, part, DefaultConfig(8))
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs || a.Violations != b.Violations {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestTaskPredAccuracyRange(t *testing.T) {
	part := partition(t, vecSum(t, 100), core.ControlFlow)
	res := runSim(t, part, DefaultConfig(4))
	if res.TaskPredAccuracy < 0 || res.TaskPredAccuracy > 1 {
		t.Errorf("task pred accuracy %.3f out of range", res.TaskPredAccuracy)
	}
	if res.BrPredAccuracy < 0 || res.BrPredAccuracy > 1 {
		t.Errorf("br pred accuracy %.3f out of range", res.BrPredAccuracy)
	}
	// A steady loop should predict well once warmed.
	if res.TaskPredAccuracy < 0.8 {
		t.Errorf("task pred accuracy %.3f unexpectedly low for a steady loop", res.TaskPredAccuracy)
	}
}

func TestWindowSpanFormula(t *testing.T) {
	part := partition(t, vecSum(t, 100), core.ControlFlow)
	res := runSim(t, part, DefaultConfig(4))
	want := 0.0
	term := res.AvgTaskSize
	for i := 0; i < 4; i++ {
		want += term
		term *= res.TaskPredAccuracy
	}
	if diff := res.WindowSpan - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("window span %.3f, formula gives %.3f", res.WindowSpan, want)
	}
	if res.WindowSpan < res.AvgTaskSize {
		t.Error("window span below a single task size")
	}
}

func TestBreakdownNonNegative(t *testing.T) {
	part := partition(t, memDepProg(t), core.ControlFlow)
	res := runSim(t, part, DefaultConfig(4))
	b := res.Breakdown
	for name, v := range map[string]int64{
		"start": b.StartOverhead, "inter": b.InterTaskWait, "intra": b.IntraTaskWait,
		"imbalance": b.LoadImbalance, "end": b.EndOverhead,
		"ctrl": b.CtrlPenalty, "mem": b.MemPenalty,
	} {
		if v < 0 {
			t.Errorf("breakdown %s = %d < 0", name, v)
		}
	}
}

// TestRunRejectsBadConfig: a machine the timing pass cannot run is an error
// naming the field, never a panic. ROBSize and IssueQSize size the
// out-of-order windows only, so an in-order machine may leave them zero.
func TestRunRejectsBadConfig(t *testing.T) {
	part := partition(t, vecSum(t, 10), core.BasicBlock)
	with := func(edit func(*Config)) Config {
		cfg := DefaultConfig(4)
		edit(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string // "" = valid
	}{
		{"zero", Config{}, "NumPUs"},
		{"only PUs", Config{NumPUs: 4, MaxInstrs: 2e8}, "IssueWidth"},
		{"no issue width", with(func(c *Config) { c.IssueWidth = 0 }), "IssueWidth"},
		{"no int units", with(func(c *Config) { c.IntUnits = 0 }), "IntUnits"},
		{"no fp units", with(func(c *Config) { c.FPUnits = 0 }), "FPUnits"},
		{"no mem units", with(func(c *Config) { c.MemUnits = 0 }), "MemUnits"},
		{"negative branch units", with(func(c *Config) { c.BranchUnits = -1 }), "BranchUnits"},
		{"no rob", with(func(c *Config) { c.ROBSize = 0 }), "ROBSize"},
		{"no issue queue", with(func(c *Config) { c.IssueQSize = 0 }), "IssueQSize"},
		{"in-order, no windows", with(func(c *Config) { c.InOrder, c.ROBSize, c.IssueQSize = true, 0, 0 }), ""},
		{"in-order, no int units", with(func(c *Config) { c.InOrder, c.IntUnits = true, 0 }), "IntUnits"},
		{"no ras", with(func(c *Config) { c.RASDepth = 0 }), "RASDepth"},
		{"negative ras", with(func(c *Config) { c.RASDepth = -1 }), "RASDepth"},
		// Rejected before any machine is reset: a run would first ask for
		// two tables of 1<<40 entries.
		{"huge history", with(func(c *Config) { c.HistoryBits = 40 }), "HistoryBits"},
		{"history past the bound", with(func(c *Config) { c.HistoryBits = maxHistoryBits + 1 }), "HistoryBits"},
		// Each of these ran before as a different machine, without an error.
		{"no ring bandwidth", with(func(c *Config) { c.RingBW = 0 }), "RingBW"},
		{"negative ring bandwidth", with(func(c *Config) { c.RingBW = -3 }), "RingBW"},
		{"no targets", with(func(c *Config) { c.MaxTargets = 0 }), "MaxTargets"},
		{"negative targets", with(func(c *Config) { c.MaxTargets = -1 }), "MaxTargets"},
		{"negative banks", with(func(c *Config) { c.L1DBanks = -2 }), "L1DBanks"},
		{"negative arb", with(func(c *Config) { c.ARBEntries = -1 }), "ARBEntries"},
		{"negative start overhead", with(func(c *Config) { c.TaskStartOverhead = -5 }), "TaskStartOverhead"},
		{"negative end overhead", with(func(c *Config) { c.TaskEndOverhead = -5 }), "TaskEndOverhead"},
		{"negative mem pus", with(func(c *Config) { c.Mem.NumPUs = -1 }), "Mem.NumPUs"},
		{"negative l1 size", with(func(c *Config) { c.Mem.L1Size = -1 }), "Mem.L1Size"},
		{"negative l1 ways", with(func(c *Config) { c.Mem.L1Ways = -1 }), "Mem.L1Ways"},
		{"negative block size", with(func(c *Config) { c.Mem.BlockSize = -32 }), "Mem.BlockSize"},
		{"negative l2 size", with(func(c *Config) { c.Mem.L2Size = -1 }), "Mem.L2Size"},
		{"negative l2 ways", with(func(c *Config) { c.Mem.L2Ways = -1 }), "Mem.L2Ways"},
		{"negative l2 latency", with(func(c *Config) { c.Mem.L2HitLat = -1 }), "Mem.L2HitLat"},
		{"negative memory latency", with(func(c *Config) { c.Mem.MemLat = -1 }), "Mem.MemLat"},
		// Zero still selects the default where it did.
		{"default banks, arb and caches", with(func(c *Config) { c.L1DBanks, c.ARBEntries, c.Mem = 0, 0, mem.Config{} }), ""},
		{"no overheads", with(func(c *Config) { c.TaskStartOverhead, c.TaskEndOverhead = 0, 0 }), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(part, tc.cfg)
			switch {
			case tc.field == "" && err != nil:
				t.Fatalf("Run rejected a valid config: %v", err)
			case tc.field == "" && res.Instrs == 0:
				t.Fatal("valid config simulated nothing")
			case tc.field != "" && (err == nil || !strings.Contains(err.Error(), tc.field)):
				t.Fatalf("Run error = %v, want one naming %s", err, tc.field)
			}
		})
	}
}

// countedLoop builds a loop of trips iterations that updates an array of
// words words, a power of two, 61 words apart: 100 trips already reach
// every page of a 2048-word array. Its footprint in pages stays fixed while
// its dynamic length grows with trips.
func countedLoop(t testing.TB, trips int64, words int) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("counted")
	arr := b.Zeros(words)
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).MovI(ir.R(8), int64(arr)).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), trips).Br(ir.R(5), "body", "exit")
	f.Block("body").
		MulI(ir.R(6), ir.R(3), 61).
		AndI(ir.R(6), ir.R(6), int64(words-1)).
		ShlI(ir.R(6), ir.R(6), 3).
		Add(ir.R(6), ir.R(6), ir.R(8)).
		Load(ir.R(7), ir.R(6), 0).
		Add(ir.R(7), ir.R(7), ir.R(3)).
		Store(ir.R(7), ir.R(6), 0).
		AddI(ir.R(3), ir.R(3), 1).
		Goto("head")
	f.Block("exit").Halt()
	f.End()
	return b.Build()
}

// Once a run has warmed up, the simulator's per-task path allocates
// nothing: allocations per Run follow the program's static size and memory
// footprint, never its dynamic length. Counting allocations does not depend
// on host speed, so this holds where wall-time benchmarks drift. The
// collector is off while counting, because a cycle that lands inside a run
// can add a few runtime allocations of its own.
//
// Two footprints are run: 8 words fit in one memory page and one ARB page,
// and 2048 words span four of each.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, words := range []int{8, 2048} {
		for _, h := range []core.Heuristic{core.BasicBlock, core.ControlFlow} {
			var want float64
			for i, trips := range []int64{100, 1_000, 10_000} {
				part := partition(t, countedLoop(t, trips, words), h)
				runtime.GC()
				allocs := testing.AllocsPerRun(3, func() { runSim(t, part, DefaultConfig(4)) })
				if i == 0 {
					want = allocs
				} else if allocs != want {
					t.Errorf("%v, %d words: %d trips took %v allocations per run, 100 trips %v", h, words, trips, allocs, want)
				}
			}
		}
	}
}
