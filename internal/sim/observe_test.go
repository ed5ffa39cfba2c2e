package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/obs"
)

// TestRunObservedMatchesRun asserts the instrumentation contract: attaching
// a collector, the metrics view and the timeline view changes nothing about
// the simulation — every Result field (cycles, breakdown, architectural
// state) is identical to an unobserved run.
func TestRunObservedMatchesRun(t *testing.T) {
	for _, prog := range []struct {
		name string
		part *core.Partition
	}{
		{"vecsum", partition(t, vecSum(t, 60), core.ControlFlow)},
		{"memdep", partition(t, memDepProg(t), core.DataDependence)},
	} {
		cfg := DefaultConfig(4)
		plain, err := Run(prog.part, cfg)
		if err != nil {
			t.Fatal(err)
		}
		observed, err := RunObserved(prog.part, cfg, obs.Tee(
			&obs.Collector{}, NewMetrics(obs.NewRegistry()), NewTimeline(prog.part)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("%s: observed run diverged from plain run:\nplain:    %+v\nobserved: %+v",
				prog.name, plain, observed)
		}
		zero, err := RunObserved(prog.part, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, zero) {
			t.Errorf("%s: nil-tracer run diverged from plain run", prog.name)
		}
	}
}

// TestTraceEventCounts locks the event stream to the Result counters: retire
// events equal task instances, squash events equal restarts, and so on.
func TestTraceEventCounts(t *testing.T) {
	part := partition(t, memDepProg(t), core.ControlFlow)
	cfg := DefaultConfig(4)
	cfg.SyncTable = false // maximize violations
	col := &obs.Collector{}
	res, err := RunObserved(part, cfg, col)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Fatal("fixture produced no restarts; the squash checks below are vacuous")
	}
	checks := []struct {
		kind obs.Kind
		want uint64
	}{
		{obs.EvTaskAssign, res.TaskInstances},
		{obs.EvTaskStart, res.TaskInstances},
		{obs.EvTaskComplete, res.TaskInstances},
		{obs.EvTaskRetire, res.TaskInstances},
		{obs.EvSquash, res.Restarts},
		{obs.EvRestart, res.Restarts},
		{obs.EvMispredict, res.CtrlMispredicts},
		{obs.EvSyncWait, res.SyncWaits},
		{obs.EvARBOverflow, res.ARBOverflows},
	}
	for _, c := range checks {
		if got := uint64(col.Count(c.kind)); got != c.want {
			t.Errorf("%v events: %d, want %d", c.kind, got, c.want)
		}
	}
	// Retire events carry the instruction count; their sum is the run total.
	var instrs int64
	perPU := make(map[int]int)
	for _, e := range col.Events {
		if e.Kind == obs.EvTaskRetire {
			instrs += e.Arg
			perPU[e.PU]++
		}
	}
	if uint64(instrs) != res.Instrs {
		t.Errorf("retire-event instrs sum %d, want %d", instrs, res.Instrs)
	}
	var total int
	for pu, n := range perPU {
		if pu < 0 || pu >= cfg.NumPUs {
			t.Errorf("retire event on PU %d outside [0,%d)", pu, cfg.NumPUs)
		}
		total += n
	}
	if uint64(total) != res.TaskInstances {
		t.Errorf("per-PU retire counts sum to %d, want %d", total, res.TaskInstances)
	}
}

// TestTraceDeterministic runs the same job twice and asserts identical event
// streams (emission order included).
func TestTraceDeterministic(t *testing.T) {
	part := partition(t, memDepProg(t), core.ControlFlow)
	cfg := DefaultConfig(4)
	run := func() []obs.Event {
		col := &obs.Collector{}
		if _, err := RunObserved(part, cfg, col); err != nil {
			t.Fatal(err)
		}
		return col.Events
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("two observed runs of the same job produced different event streams")
	}
}

// TestChromeExportEndToEnd exports a real run and checks the acceptance
// invariants on the JSON itself: valid trace-event output, per-PU retire
// slices summing to TaskInstances, squash instants equal to Restarts.
func TestChromeExportEndToEnd(t *testing.T) {
	part := partition(t, memDepProg(t), core.ControlFlow)
	cfg := DefaultConfig(4)
	cfg.SyncTable = false
	col := &obs.Collector{}
	res, err := RunObserved(part, cfg, col)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, col.Events, cfg.NumPUs); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	slicesPerPU := make(map[int]int)
	squashes := 0
	for _, e := range trace.TraceEvents {
		switch {
		case e.Ph == "X":
			slicesPerPU[e.Tid]++
		case e.Ph == "i" && e.Name == "squash":
			squashes++
		}
	}
	var slices int
	for pu := 0; pu < cfg.NumPUs; pu++ {
		if slicesPerPU[pu] == 0 {
			t.Errorf("PU %d track has no task slices", pu)
		}
		slices += slicesPerPU[pu]
	}
	if uint64(slices) != res.TaskInstances {
		t.Errorf("trace has %d task slices, want %d", slices, res.TaskInstances)
	}
	if uint64(squashes) != res.Restarts {
		t.Errorf("trace has %d squash instants, want %d", squashes, res.Restarts)
	}
}

// TestSimMetricsPopulated checks the cycle-accounting histograms fill from a
// real run and agree with the Result aggregates.
func TestSimMetricsPopulated(t *testing.T) {
	part := partition(t, memDepProg(t), core.ControlFlow)
	reg := obs.NewRegistry()
	res, err := RunObserved(part, DefaultConfig(4), NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	byName := make(map[string]obs.MetricSnapshot)
	for _, m := range snap.Metrics {
		byName[m.Name] = m
	}
	ti := byName["sim_task_instrs"]
	if uint64(ti.Count) != res.TaskInstances {
		t.Errorf("sim_task_instrs count %d, want %d", ti.Count, res.TaskInstances)
	}
	if uint64(ti.Sum) != res.Instrs {
		t.Errorf("sim_task_instrs sum %d, want %d", ti.Sum, res.Instrs)
	}
	if got := byName["sim_tasks_total"]; got.Value == nil || uint64(*got.Value) != res.TaskInstances {
		t.Errorf("sim_tasks_total = %v, want %d", got.Value, res.TaskInstances)
	}
	if got := byName["sim_squashes_total"]; got.Value == nil || uint64(*got.Value) != res.Restarts {
		t.Errorf("sim_squashes_total = %v, want %d", got.Value, res.Restarts)
	}
	iw := byName["sim_inter_task_wait_cycles"]
	if uint64(iw.Count) != res.TaskInstances {
		t.Errorf("sim_inter_task_wait_cycles count %d, want %d", iw.Count, res.TaskInstances)
	}
	if iw.Sum != res.Breakdown.InterTaskWait {
		t.Errorf("sim_inter_task_wait_cycles sum %d, want breakdown %d",
			iw.Sum, res.Breakdown.InterTaskWait)
	}
	rd := byName["sim_restart_depth"]
	if uint64(rd.Sum) != res.Restarts {
		t.Errorf("sim_restart_depth sum %d, want %d", rd.Sum, res.Restarts)
	}
	if byName["sim_forward_lead_cycles"].Count == 0 {
		t.Error("sim_forward_lead_cycles never observed (no register traffic?)")
	}
}
