package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/gen"
	"multiscalar/internal/grid"
	"multiscalar/internal/ir"
	"multiscalar/internal/sim"
	"multiscalar/internal/verify"
	"multiscalar/internal/workloads"
)

// Partitions that share a prepared program must be the partitions
// core.Select builds alone, and selecting, simulating and verifying them
// must leave the shared program as it was.

// partitionDigest is the SHA-256 of one partition's canonical dump, the
// dump TestPartitionGoldens hashes.
func partitionDigest(part *core.Partition) string {
	h := sha256.New()
	dumpPartition(h, part)
	return hex.EncodeToString(h.Sum(nil))
}

// programDigest hashes every exported field of a program: names,
// instructions, terminators, entries, block addresses and the data image.
func programDigest(t *testing.T, p *ir.Program) string {
	t.Helper()
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// gridPoint is one partition the grid is asked for.
type gridPoint struct {
	workload string
	arm      goldenArm
}

// sharedPoints lists the 18 workloads under bb, cf and dd with and without
// the task-size heuristic, then seed-1 corpus programs 0–15 under the corpus
// sweep's six arms.
func sharedPoints() []gridPoint {
	var arms []goldenArm
	for _, ts := range []bool{false, true} {
		for _, h := range []core.Heuristic{core.BasicBlock, core.ControlFlow, core.DataDependence} {
			arms = append(arms, goldenArm{h.String(), core.Options{Heuristic: h, TaskSize: ts}})
		}
	}
	var pts []gridPoint
	for _, name := range workloads.Names() {
		for _, arm := range arms {
			pts = append(pts, gridPoint{name, arm})
		}
	}
	for i := 0; i < 16; i++ {
		name := gen.CorpusParams(1, i).Key()
		for _, arm := range corpusArms {
			pts = append(pts, gridPoint{name, arm})
		}
	}
	return pts
}

// TestGridPartitionsMatchSelect asks one engine for every shared point at
// once, with far more goroutines than workers, so arms of one program select
// concurrently from one prepared program. Each partition must equal
// core.Select's on a fresh build, whose partitions TestPartitionGoldens pins.
func TestGridPartitionsMatchSelect(t *testing.T) {
	pts := sharedPoints()
	e := grid.New(grid.Options{Workers: 2})
	parts := make([]*core.Partition, len(pts))
	err := grid.RunAll(context.Background(), len(pts), func(i int) error {
		var err error
		parts[i], err = e.PartitionCtx(context.Background(), pts[i].workload, pts[i].arm.opts)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		w, err := workloads.ByName(pt.workload)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Select(w.Build(), pt.arm.opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", pt.workload, pt.arm.name, err)
		}
		if got, want := partitionDigest(parts[i]), partitionDigest(want); got != want {
			t.Errorf("%s/%s (task size %t): grid partition %s, core.Select %s",
				pt.workload, pt.arm.name, pt.arm.opts.TaskSize, got, want)
		}
	}
	// Each workload prepares once per task-size setting, each corpus
	// program once.
	wantPrepares := int64(2*len(workloads.Names()) + 16)
	if s := e.Stats(); s.Prepares != wantPrepares || s.Partitions != int64(len(pts)) {
		t.Errorf("engine prepared %d programs for %d partitions, want %d for %d",
			s.Prepares, s.Partitions, wantPrepares, len(pts))
	}
}

// TestPreparedProgramUnchanged selects every arm from one Prepared, simulates
// and verifies each partition, and requires the shared program's digest to
// be what Prepare left.
func TestPreparedProgramUnchanged(t *testing.T) {
	type family struct {
		names []string
		arms  []goldenArm
	}
	fams := []family{
		{[]string{"go", "fpppp"}, workloadArms},
		{[]string{gen.CorpusParams(1, 0).Key(), gen.CorpusParams(1, 1).Key()}, corpusArms},
	}
	for _, fam := range fams {
		for _, name := range fam.names {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := w.Build()
			preps := map[core.Options]*core.Prepared{}
			digests := map[*core.Prepared]string{}
			for _, arm := range fam.arms {
				key := core.PrepareOptions(arm.opts)
				prep := preps[key]
				if prep == nil {
					if prep, err = core.Prepare(prog, arm.opts); err != nil {
						t.Fatalf("%s/%s: %v", name, arm.name, err)
					}
					preps[key], digests[prep] = prep, programDigest(t, prep.Prog)
				}
				part, err := prep.Select(arm.opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, arm.name, err)
				}
				if part.Prog != prep.Prog {
					t.Errorf("%s/%s: the partition does not share the prepared program", name, arm.name)
				}
				if _, err := sim.Run(part, sim.DefaultConfig(4)); err != nil {
					t.Fatalf("%s/%s: %v", name, arm.name, err)
				}
				if fs := verify.Partition(part); fs.Errors() > 0 {
					t.Errorf("%s/%s: %d invariant errors:\n%s", name, arm.name, fs.Errors(), fs)
				}
			}
			for prep, want := range digests {
				if got := programDigest(t, prep.Prog); got != want {
					t.Errorf("%s: the prepared program changed (digest %s, prepared as %s)", name, got, want)
				}
			}
		}
	}
}
