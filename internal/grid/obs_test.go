package grid

import (
	"context"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim"
)

func testJob(pus int) Job {
	return Job{
		Workload: "compress",
		Select:   core.Options{Heuristic: core.ControlFlow},
		Config:   sim.DefaultConfig(pus),
	}
}

// TestEngineMetrics runs a small job mix and checks the registry agrees with
// the engine's own Stats counters.
func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Workers: 2, CacheDir: t.TempDir(), Metrics: reg})
	jobs := []Job{testJob(2), testJob(4), testJob(2)} // one duplicate memoizes
	if err := RunAll(context.Background(), len(jobs), func(i int) error {
		_, err := e.Run(jobs[i])
		return err
	}); err != nil {
		t.Fatal(err)
	}

	s := e.Stats()
	snap := reg.Snapshot()
	byName := make(map[string]obs.MetricSnapshot)
	for _, m := range snap.Metrics {
		byName[m.Name] = m
	}
	counterChecks := []struct {
		name string
		want int64
	}{
		{"grid_jobs_total", s.Jobs},
		{"grid_prepares_total", s.Prepares},
		{"grid_partitions_total", s.Partitions},
		{"grid_sims_total", s.Sims},
		{"grid_cache_hits_total", s.CacheHits},
		{"grid_cache_misses_total", s.CacheMisses},
	}
	for _, c := range counterChecks {
		m, ok := byName[c.name]
		if !ok || m.Value == nil {
			t.Errorf("%s missing from snapshot", c.name)
			continue
		}
		if *m.Value != c.want {
			t.Errorf("%s = %d, want %d (Stats)", c.name, *m.Value, c.want)
		}
	}
	// Every worker-slot acquisition contributes one queue-wait and one
	// occupancy sample; every slot-held execution (a prepare, a selection or
	// a simulation) contributes one wall-time sample.
	wantSlots := s.Prepares + s.Partitions + s.Sims
	if got := byName["grid_queue_wait_us"].Count; got != wantSlots {
		t.Errorf("grid_queue_wait_us count %d, want %d", got, wantSlots)
	}
	if got := byName["grid_exec_wall_us"].Count; got != wantSlots {
		t.Errorf("grid_exec_wall_us count %d, want %d", got, wantSlots)
	}
	occ := byName["grid_worker_occupancy"]
	if occ.Count != wantSlots {
		t.Errorf("grid_worker_occupancy count %d, want %d", occ.Count, wantSlots)
	}
	if occ.Max > int64(e.Workers()) {
		t.Errorf("observed occupancy %d exceeds worker bound %d", occ.Max, e.Workers())
	}
	if _, ok := byName["grid_workers_busy"]; !ok {
		t.Error("grid_workers_busy gauge missing")
	}
}
