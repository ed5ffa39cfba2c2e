package multiscalar_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"multiscalar"
)

// buildVecAdd constructs a small loop program through the public API.
func buildVecAdd(t testing.TB, n int64) *multiscalar.Program {
	t.Helper()
	r := multiscalar.R
	b := multiscalar.NewBuilder("vecadd")
	buf := b.Zeros(int(n))
	out := b.Zeros(1)
	f := b.Func("main")
	f.Block("entry").
		MovI(r(3), 0).MovI(r(4), 0).
		MovI(r(8), int64(buf)).MovI(r(9), int64(out)).
		Goto("head")
	f.Block("head").SltI(r(5), r(3), n).Br(r(5), "body", "exit")
	f.Block("body").
		MulI(r(6), r(3), 5).
		ShlI(r(7), r(3), 3).
		Add(r(7), r(7), r(8)).
		Store(r(6), r(7), 0).
		Add(r(4), r(4), r(6)).
		AddI(r(3), r(3), 1).
		Goto("head")
	f.Block("exit").Store(r(4), r(9), 0).Halt()
	f.End()
	return b.Build()
}

func TestPublicPipeline(t *testing.T) {
	prog := buildVecAdd(t, 64)
	instrs, checksum, err := multiscalar.Emulate(prog, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if instrs == 0 || checksum == 0 {
		t.Fatal("emulation produced nothing")
	}
	for _, h := range []multiscalar.Heuristic{multiscalar.BasicBlock, multiscalar.ControlFlow, multiscalar.DataDependence} {
		part, err := multiscalar.Select(prog, multiscalar.Options{Heuristic: h})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		res, err := multiscalar.Simulate(part, multiscalar.DefaultConfig(4))
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if res.FinalChecksum != checksum {
			t.Errorf("%v: simulator checksum %#x != emulator %#x", h, res.FinalChecksum, checksum)
		}
		// The partition simulates its own (loop-restructured) clone, which
		// may execute a few more instructions than the input program.
		pInstrs, pSum, err := multiscalar.Emulate(part.Prog, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Instrs != pInstrs || pSum != checksum {
			t.Errorf("%v: %d simulated instrs, partition program runs %d (checksums %#x/%#x)",
				h, res.Instrs, pInstrs, pSum, checksum)
		}
		_ = instrs
	}
}

func TestPublicAsmRoundTrip(t *testing.T) {
	prog := buildVecAdd(t, 16)
	text := multiscalar.FormatProgram(prog)
	re, err := multiscalar.ParseAsm("vecadd", text)
	if err != nil {
		t.Fatal(err)
	}
	re.Data = append([]int64(nil), prog.Data...)
	re.Layout()
	i1, c1, err := multiscalar.Emulate(prog, 100000)
	if err != nil {
		t.Fatal(err)
	}
	i2, c2, err := multiscalar.Emulate(re, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 || c1 != c2 {
		t.Error("assembler round trip diverged")
	}
}

func TestPublicWalkTasks(t *testing.T) {
	prog := buildVecAdd(t, 32)
	part, err := multiscalar.Select(prog, multiscalar.Options{Heuristic: multiscalar.ControlFlow})
	if err != nil {
		t.Fatal(err)
	}
	instrs, _, err := multiscalar.Emulate(prog, 100000)
	if err != nil {
		t.Fatal(err)
	}
	var covered int
	if err := multiscalar.WalkTasks(part, 100000, func(te multiscalar.TaskExec) {
		covered += te.DynInstrs
	}); err != nil {
		t.Fatal(err)
	}
	// The partition clones (and possibly restructures) the program, so walk
	// coverage is measured against the partition's own program.
	pInstrs, _, err := multiscalar.Emulate(part.Prog, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(covered) != pInstrs {
		t.Errorf("tasks cover %d of %d instructions", covered, pInstrs)
	}
	_ = instrs
}

func TestPublicVerify(t *testing.T) {
	prog := buildVecAdd(t, 32)
	if fs := multiscalar.VerifyProgram(prog); fs.Errors() != 0 {
		t.Errorf("VerifyProgram found errors:\n%s", fs.MinSeverity(multiscalar.SevError))
	}
	part, err := multiscalar.Select(prog, multiscalar.Options{Heuristic: multiscalar.DataDependence, TaskSize: true})
	if err != nil {
		t.Fatal(err)
	}
	if fs := multiscalar.Verify(part); fs.Errors() != 0 {
		t.Errorf("Verify found errors on a Select partition:\n%s", fs.MinSeverity(multiscalar.SevError))
	}
	// A seeded defect must surface as an error finding.
	part.Tasks[0].CreateMask = 0
	part.Tasks[len(part.Tasks)-1].ID = 999
	if fs := multiscalar.Verify(part); fs.Errors() == 0 {
		t.Error("Verify missed a corrupted partition")
	}
}

func TestPublicWorkloads(t *testing.T) {
	if got := len(multiscalar.Workloads()); got != 18 {
		t.Fatalf("workload count = %d, want 18", got)
	}
	w, err := multiscalar.WorkloadByName("tomcatv")
	if err != nil || !w.FP {
		t.Fatalf("tomcatv lookup: %v (fp=%v)", err, w.FP)
	}
	if _, err := multiscalar.WorkloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPublicExperimentsSubset(t *testing.T) {
	r := multiscalar.NewRunner()
	cells, err := multiscalar.Figure5(r, []int{4}, []string{"ijpeg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 { // 4 variants × {ooo, inorder}
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	out := multiscalar.FormatFigure5(cells)
	if !strings.Contains(out, "ijpeg") || !strings.Contains(out, "Figure 5") {
		t.Errorf("unexpected Figure 5 output:\n%s", out)
	}
	rows, err := multiscalar.Table1(r, []string{"ijpeg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Workload != "ijpeg" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].DDWinSpan < rows[0].BBWinSpan {
		t.Errorf("dd window span %.0f below bb %.0f", rows[0].DDWinSpan, rows[0].BBWinSpan)
	}
	tbl := multiscalar.FormatTable1(rows)
	if !strings.Contains(tbl, "win") {
		t.Errorf("unexpected Table 1 output:\n%s", tbl)
	}
}

func TestPublicGrid(t *testing.T) {
	dir := t.TempDir()
	g := multiscalar.NewGrid(multiscalar.GridOptions{Workers: 2, CacheDir: dir})
	r := multiscalar.NewRunnerOn(g)
	cells, err := multiscalar.Figure5(r, []int{4}, []string{"fpppp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	if s := g.Stats(); s.Sims == 0 || s.Jobs != s.Done {
		t.Errorf("grid stats after a run: %+v", s)
	}
	// Direct job against the same engine hits the memo.
	w, err := multiscalar.WorkloadByName("fpppp")
	if err != nil {
		t.Fatal(err)
	}
	before := g.Stats().Sims
	res, err := g.Run(multiscalar.GridJob{
		Workload: w.Name,
		Select:   multiscalar.Options{Heuristic: multiscalar.ControlFlow},
		Config:   multiscalar.DefaultConfig(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Error("nonpositive IPC from grid job")
	}
	if after := g.Stats().Sims; after != before {
		t.Errorf("memoized job re-simulated (%d -> %d)", before, after)
	}

	warm := multiscalar.NewGrid(multiscalar.GridOptions{CacheDir: dir})
	if _, err := multiscalar.Figure5(multiscalar.NewRunnerOn(warm), []int{4}, []string{"fpppp"}); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Sims != 0 {
		t.Errorf("warm grid simulated %d jobs, want 0", s.Sims)
	}
}

// TestPublicObservability exercises the exported tracing/metrics surface:
// an observed simulation matches the plain one bit for bit, events collect,
// the Chrome trace exports as valid JSON, and the metrics snapshot is
// deterministic.
func TestPublicObservability(t *testing.T) {
	prog := buildVecAdd(t, 64)
	part, err := multiscalar.Select(prog, multiscalar.Options{Heuristic: multiscalar.ControlFlow})
	if err != nil {
		t.Fatal(err)
	}
	cfg := multiscalar.DefaultConfig(4)
	plain, err := multiscalar.Simulate(part, cfg)
	if err != nil {
		t.Fatal(err)
	}

	col := &multiscalar.TraceCollector{}
	reg := multiscalar.NewMetrics()
	tl := multiscalar.NewTimeline(part)
	observed, err := multiscalar.SimulateObserved(part, cfg,
		multiscalar.Tee(col, multiscalar.SimMetrics(reg), tl))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Error("observed simulation diverged from plain Simulate")
	}
	if len(col.Events) == 0 {
		t.Fatal("collector saw no events")
	}
	if got := uint64(len(tl.Timeline())); got != observed.TaskInstances {
		t.Errorf("timeline has %d records, want %d task instances", got, observed.TaskInstances)
	}

	var buf bytes.Buffer
	if err := multiscalar.WriteChromeTrace(&buf, col.Events, 4); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("trace has no events")
	}

	snap := reg.Snapshot()
	if len(snap.Metrics) == 0 {
		t.Fatal("metrics snapshot is empty")
	}
	blob, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "sim_tasks_total") {
		t.Errorf("snapshot missing sim_tasks_total:\n%s", blob)
	}
}
