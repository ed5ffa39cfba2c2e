package experiment

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/sim"
)

// TestAblationsFollowRunnerContext: the greedy and threshold ablations run
// their jobs on the runner's context. With the engine's one worker slot
// held by a gated simulation, canceling that context while the ablation's
// jobs wait for the slot must return context.Canceled at once, and none of
// those jobs may ever partition or simulate.
func TestAblationsFollowRunnerContext(t *testing.T) {
	cases := []struct {
		name string
		jobs int64
		run  func(*Runner) error
	}{
		{"greedy", 2, func(r *Runner) error {
			_, err := AblationGreedy(r, []string{"compress"})
			return err
		}},
		{"thresh", 3, func(r *Runner) error {
			_, err := AblationThresh(r, []string{"compress"}, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sims atomic.Int64
			entered, gate := make(chan struct{}), make(chan struct{})
			restore := grid.SetSimForTesting(func(*core.Partition, sim.Config) (*sim.Result, error) {
				if sims.Add(1) == 1 {
					close(entered)
					<-gate
				}
				return &sim.Result{IPC: 1}, nil
			})
			defer restore()

			eng := grid.New(grid.Options{Workers: 1})
			blocker := make(chan error, 1)
			go func() {
				_, err := eng.Run(grid.Job{Workload: "compress", Config: sim.DefaultConfig(4)})
				blocker <- err
			}()
			<-entered // the blocker's simulation holds the one slot

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- tc.run(NewRunnerOn(eng).WithContext(ctx)) }()
			deadline := time.Now().Add(5 * time.Second)
			for eng.Stats().Jobs < 1+tc.jobs && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			cancel()

			var err error
			select {
			case err = <-done:
			case <-time.After(5 * time.Second):
				t.Error("ablation still running 5s after its context was canceled")
				close(gate)
				gate = nil
				err = <-done
			}
			if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "experiment: compress/") {
				t.Errorf("ablation returned %v, want context.Canceled under the experiment: prefix", err)
			}
			if gate != nil {
				close(gate)
			}
			if err := <-blocker; err != nil {
				t.Fatal(err)
			}
			if s := eng.Stats(); sims.Load() != 1 || s.Partitions != 1 {
				t.Errorf("%d sims and %d partitions, want only the blocker's 1 and 1", sims.Load(), s.Partitions)
			}
		})
	}
}
