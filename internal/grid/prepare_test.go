package grid

import (
	"context"
	"errors"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/gen"
	_ "multiscalar/internal/policy" // register the policy zoo
	"multiscalar/internal/workloads"
)

// corpusArms are experiment.Corpus's six arms: the three heuristics, then
// the control-flow heuristic under each policy of the zoo.
var corpusArms = []core.Options{
	{Heuristic: core.BasicBlock},
	{Heuristic: core.ControlFlow},
	{Heuristic: core.DataDependence},
	{Heuristic: core.ControlFlow, Policy: "greedy"},
	{Heuristic: core.ControlFlow, Policy: "roundrobin"},
	{Heuristic: core.ControlFlow, Policy: "knapsack"},
}

// partitionAll asks e for every (workload, opts) pair at once.
func partitionAll(t *testing.T, e *Engine, names []string, arms []core.Options) []*core.Partition {
	t.Helper()
	parts := make([]*core.Partition, len(names)*len(arms))
	err := RunAll(context.Background(), len(parts), func(i int) error {
		var err error
		parts[i], err = e.Partition(names[i/len(arms)], arms[i%len(arms)])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// TestArmsSharePreparedProgram: the six corpus arms of one program prepare
// it once and share its program; a task-size arm prepares a second one.
func TestArmsSharePreparedProgram(t *testing.T) {
	e := New(Options{Workers: 2})
	name := gen.CorpusParams(1, 3).Key()
	parts := partitionAll(t, e, []string{name}, corpusArms)
	if s := e.Stats(); s.Prepares != 1 || s.Partitions != 6 {
		t.Errorf("six arms: %d prepares, %d partitions; want 1 and 6", s.Prepares, s.Partitions)
	}
	for i, p := range parts {
		if p.Prog != parts[0].Prog {
			t.Errorf("arm %d does not share arm 0's program", i)
		}
	}
	ts, err := e.Partition(name, core.Options{Heuristic: core.DataDependence, TaskSize: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Prepares != 2 || s.Partitions != 7 {
		t.Errorf("with a task-size arm: %d prepares, %d partitions; want 2 and 7", s.Prepares, s.Partitions)
	}
	if ts.Prog == parts[0].Prog {
		t.Error("the task-size arm shares the restructured program of the plain arms")
	}
}

// TestFigure5Prepares: Figure 5's bb, cf and dd share one prepared program
// per workload and its task-size arm has its own, so six workloads prepare
// 12 programs for 24 partitions.
func TestFigure5Prepares(t *testing.T) {
	e := New(Options{Workers: 2})
	jobs := benchJobs()
	if err := RunAll(context.Background(), len(jobs), func(i int) error {
		_, err := e.Partition(jobs[i].Workload, jobs[i].Select)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Prepares != 12 || s.Partitions != 24 {
		t.Errorf("%d prepares, %d partitions; want 12 and 24", s.Prepares, s.Partitions)
	}
}

// TestCanceledPrepareNotMemoized: a prepare canceled while it waits for a
// worker slot returns the context error, and the next caller prepares the
// program afresh.
func TestCanceledPrepareNotMemoized(t *testing.T) {
	started, release, _ := gateSim(t)
	e := New(Options{Workers: 1})
	occupier := make(chan error, 1)
	go func() {
		_, err := e.Run(fastJob())
		occupier <- err
	}()
	<-started // the only worker slot is held inside the stubbed sim

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.PartitionCtx(ctx, "go", core.Options{Heuristic: core.ControlFlow})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the slot queue
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled prepare returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-occupier; err != nil {
		t.Fatal(err)
	}

	before := e.Stats()
	if _, err := e.Partition("go", core.Options{Heuristic: core.ControlFlow}); err != nil {
		t.Fatalf("partition after a canceled prepare: %v", err)
	}
	if d := e.Stats().Delta(before); d.Prepares != 1 || d.Partitions != 1 {
		t.Errorf("retry ran %d prepares and %d partitions, want 1 and 1", d.Prepares, d.Partitions)
	}
}

// TestFailedPrepareFailsEveryArm: a program whose profiling run exceeds its
// budget fails every arm on it with the error a lone core.Select gives,
// prefixed as a partition error, and is prepared once.
func TestFailedPrepareFailsEveryArm(t *testing.T) {
	const name = "go"
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var arms []core.Options
	for _, h := range []core.Heuristic{core.BasicBlock, core.ControlFlow, core.DataDependence} {
		arms = append(arms, core.Options{Heuristic: h, ProfileBudget: 100})
	}
	e := New(Options{Workers: 2})
	errs := make([]error, len(arms))
	_ = RunAll(context.Background(), len(arms), func(i int) error {
		_, errs[i] = e.Partition(name, arms[i])
		return nil
	})
	for i, arm := range arms {
		_, selErr := core.Select(w.Build(), arm)
		if selErr == nil {
			t.Fatal("core.Select profiled go within 100 instructions")
		}
		want := "grid: partition " + name + ": " + selErr.Error()
		if errs[i] == nil || errs[i].Error() != want {
			t.Errorf("arm %d: error %v, want %q", i, errs[i], want)
		}
	}
	if s := e.Stats(); s.Prepares != 1 || s.Partitions != 0 {
		t.Errorf("%d prepares, %d partitions; want 1 and 0", s.Prepares, s.Partitions)
	}
}
