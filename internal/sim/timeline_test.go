package sim

import (
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/ir"
)

// runTimeline simulates with the timeline view attached.
func runTimeline(t testing.TB, part *core.Partition, cfg Config) (*Result, Timeline) {
	t.Helper()
	rec := NewTimeline(part)
	res, err := RunObserved(part, cfg, rec)
	if err != nil {
		t.Fatalf("sim.RunObserved: %v", err)
	}
	return res, rec.Timeline()
}

func TestTimelineRecording(t *testing.T) {
	part := partition(t, vecSum(t, 50), core.ControlFlow)
	res, tl := runTimeline(t, part, DefaultConfig(4))
	if uint64(len(tl)) != res.TaskInstances {
		t.Fatalf("timeline has %d records, %d instances", len(tl), res.TaskInstances)
	}
	var prevRetire, prevAssign int64
	total := 0
	for i, rec := range tl {
		if rec.Seq != i {
			t.Errorf("record %d has seq %d", i, rec.Seq)
		}
		if rec.PU != i%4 {
			t.Errorf("record %d on PU %d, want %d", i, rec.PU, i%4)
		}
		if rec.Assign < prevAssign {
			t.Errorf("record %d assigned at %d before predecessor %d", i, rec.Assign, prevAssign)
		}
		if rec.Start < rec.Assign || rec.Complete < rec.Start || rec.Retire < rec.Complete {
			t.Errorf("record %d out of order: %+v", i, rec)
		}
		if rec.Retire < prevRetire {
			t.Errorf("record %d retires at %d before predecessor at %d (order violated)",
				i, rec.Retire, prevRetire)
		}
		prevRetire = rec.Retire
		prevAssign = rec.Assign
		total += rec.Instrs
	}
	if uint64(total) != res.Instrs {
		t.Errorf("timeline instrs %d != result %d", total, res.Instrs)
	}
	if last := tl[len(tl)-1]; last.Retire != res.Cycles {
		t.Errorf("last retire %d != total cycles %d", last.Retire, res.Cycles)
	}
}

// TestTimelineMispredictFlags ties the per-record flags and restart counts to
// the Result totals, on a run that squashes.
func TestTimelineMispredictFlags(t *testing.T) {
	part := partition(t, memDepProg(t), core.ControlFlow)
	cfg := DefaultConfig(4)
	cfg.SyncTable = false
	res, tl := runTimeline(t, part, cfg)
	if res.Restarts == 0 || res.CtrlMispredicts == 0 {
		t.Fatalf("fixture has %d restarts, %d mispredicts; the checks below are vacuous",
			res.Restarts, res.CtrlMispredicts)
	}
	var flagged, restarts uint64
	for _, rec := range tl {
		if rec.Mispredicted {
			flagged++
		}
		restarts += uint64(rec.Restarts)
	}
	if flagged != res.CtrlMispredicts {
		t.Errorf("%d flagged records, %d mispredicts", flagged, res.CtrlMispredicts)
	}
	if restarts != res.Restarts {
		t.Errorf("records sum to %d restarts, result has %d", restarts, res.Restarts)
	}
}

func TestFormatTimeline(t *testing.T) {
	part := partition(t, vecSum(t, 30), core.ControlFlow)
	_, tl := runTimeline(t, part, DefaultConfig(2))
	out := FormatTimeline(tl, 5)
	if !strings.Contains(out, "activity") {
		t.Errorf("missing header:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 6 { // header + 5 rows
		t.Errorf("rows = %d, want 6:\n%s", got, out)
	}
	if FormatTimeline(nil, 10) != "(empty timeline)\n" {
		t.Error("empty timeline not handled")
	}
}

// TestFormatTimelineEdges covers the degenerate shapes FormatTimeline must
// not choke on: a single record (span collapses to one cycle), max larger
// than the record count, and max <= 0 meaning "all".
func TestFormatTimelineEdges(t *testing.T) {
	one := Timeline{{Seq: 0, TaskID: 3, PU: 1, Assign: 10, Start: 10, Complete: 10, Retire: 10, Instrs: 1}}
	out := FormatTimeline(one, 1)
	if got := strings.Count(out, "\n"); got != 2 { // header + 1 row
		t.Errorf("single zero-span record: rows = %d, want 2:\n%s", got, out)
	}
	// All three phases collapse onto one column; the retire mark wins.
	if !strings.Contains(out, "|-") {
		t.Errorf("zero-span record drew no activity:\n%s", out)
	}

	two := Timeline{
		{Seq: 0, PU: 0, Assign: 0, Start: 1, Complete: 5, Retire: 6, Instrs: 4},
		{Seq: 1, PU: 1, Assign: 2, Start: 3, Complete: 8, Retire: 9, Instrs: 5},
	}
	// max beyond the record count clamps to all records rather than slicing
	// out of range.
	if a, b := FormatTimeline(two, 100), FormatTimeline(two, 2); a != b {
		t.Errorf("max > len differs from max == len:\n%s\nvs\n%s", a, b)
	}
	// max <= 0 means all records.
	if a, b := FormatTimeline(two, 0), FormatTimeline(two, 2); a != b {
		t.Errorf("max = 0 differs from max == len:\n%s\nvs\n%s", a, b)
	}
	if got := strings.Count(FormatTimeline(two, -1), "\n"); got != 3 {
		t.Errorf("max = -1 rows = %d, want 3", got)
	}
}

func TestUtilizationRange(t *testing.T) {
	part := partition(t, vecSum(t, 80), core.ControlFlow)
	_, tl := runTimeline(t, part, DefaultConfig(4))
	u := tl.Utilization(4)
	if u <= 0 || u > 1 {
		t.Errorf("utilization %v out of (0,1]", u)
	}
	if Timeline(nil).Utilization(4) != 0 {
		t.Error("empty utilization not zero")
	}
}

// TestUtilizationEdges pins the occupancy denominator to the recorded span
// (first assign to last retire), not to cycle 0.
func TestUtilizationEdges(t *testing.T) {
	// A timeline that starts late in the run: one PU busy from 1000 to 1100
	// after a 1000-cycle lead-in it never saw. Occupancy over its own span is
	// 100%; measuring from cycle 0 would report ~9%.
	late := Timeline{{Seq: 0, PU: 0, Assign: 1000, Start: 1000, Complete: 1090, Retire: 1100}}
	if u := late.Utilization(1); u != 1.0 {
		t.Errorf("late-start utilization = %v, want 1.0 (span is 100 cycles, all busy)", u)
	}
	// Two PUs, one fully busy and one idle over the same span: 50%.
	half := Timeline{
		{Seq: 0, PU: 0, Assign: 100, Start: 100, Complete: 190, Retire: 200},
	}
	if u := half.Utilization(2); u != 0.5 {
		t.Errorf("half utilization = %v, want 0.5", u)
	}
	// A single instantaneous record has zero span; report 0 rather than
	// dividing by zero.
	point := Timeline{{Seq: 0, PU: 0, Assign: 42, Start: 42, Complete: 42, Retire: 42}}
	if u := point.Utilization(4); u != 0 {
		t.Errorf("zero-span utilization = %v, want 0", u)
	}
	// busy can exceed the span when assign-to-start overhead overlaps (clamp
	// guards against >1 from rounding or overlapping records).
	over := Timeline{
		{Seq: 0, PU: 0, Assign: 0, Start: 0, Complete: 10, Retire: 10},
		{Seq: 1, PU: 0, Assign: 0, Start: 0, Complete: 10, Retire: 10},
	}
	if u := over.Utilization(1); u != 1 {
		t.Errorf("overlapping records utilization = %v, want clamp to 1", u)
	}
}

// TestARBOverflowStalls builds a task touching more speculative words than
// the ARB holds and checks the overflow counter fires (the access stalls to
// non-speculative time rather than corrupting state).
func TestARBOverflowStalls(t *testing.T) {
	b := ir.NewBuilder("bigtask")
	buf := b.Zeros(128)
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(8), int64(buf)).MovI(ir.R(3), 0).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 4).Br(ir.R(5), "body", "exit")
	// One giant straight-line block touching 48 distinct words (> 32 ARB
	// entries per task stage).
	bb := f.Block("body")
	for i := 0; i < 48; i++ {
		bb.Store(ir.R(3), ir.R(8), int64(i*8))
	}
	bb.AddI(ir.R(3), ir.R(3), 1)
	bb.Goto("head")
	f.Block("exit").Halt()
	f.End()
	part, err := core.Select(b.Build(), core.Options{Heuristic: core.ControlFlow})
	if err != nil {
		t.Fatal(err)
	}
	res := runSim(t, part, DefaultConfig(4))
	if res.ARBOverflows == 0 {
		t.Error("48-word speculative task did not overflow a 32-entry ARB stage")
	}
}

// TestRASHandlesDeepCalls checks return-target sequencing through nested
// calls (the sequencer's RAS must resolve every return without mispredicts
// once warmed).
func TestRASHandlesDeepCalls(t *testing.T) {
	b := ir.NewBuilder("deep")
	inner := b.DeclareFn("inner")
	outer := b.DeclareFn("outer")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).Goto("head")
	f.Block("head").SltI(ir.R(5), ir.R(3), 10).Br(ir.R(5), "body", "exit")
	f.Block("body").Nop().Call(outer, "cont")
	f.Block("cont").AddI(ir.R(3), ir.R(3), 1).Goto("head")
	f.Block("exit").Halt()
	f.End()
	o := b.Func("outer")
	// Pad so the callee exceeds CALL_THRESH and is never included.
	ob := o.Block("entry")
	for i := 0; i < 40; i++ {
		ob.Nop()
	}
	ob.Call(inner, "back")
	o.Block("back").Ret()
	o.End()
	in := b.Func("inner")
	ib := in.Block("entry")
	for i := 0; i < 40; i++ {
		ib.Nop()
	}
	ib.Ret()
	in.End()
	part, err := core.Select(b.Build(), core.Options{Heuristic: core.ControlFlow, TaskSize: true})
	if err != nil {
		t.Fatal(err)
	}
	res := runSim(t, part, DefaultConfig(4))
	if res.RASMispredicts != 0 {
		t.Errorf("%d RAS mispredicts on perfectly nested calls", res.RASMispredicts)
	}
}
