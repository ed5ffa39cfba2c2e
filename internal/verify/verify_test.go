package verify

import (
	"fmt"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	_ "multiscalar/internal/policy" // register the policy zoo
	"multiscalar/internal/workloads"
)

// heuristics and task-size settings swept by the oracle tests — the same
// grid as the paper's Figure 5 and cmd/mslint -all.
var sweep = []struct {
	h  core.Heuristic
	ts bool
}{
	{core.BasicBlock, false},
	{core.BasicBlock, true},
	{core.ControlFlow, false},
	{core.ControlFlow, true},
	{core.DataDependence, false},
	{core.DataDependence, true},
}

// TestWorkloadPartitionsClean is the metamorphic oracle over the benchmark
// suite: every partition Select produces for every workload must verify with
// zero error-severity findings. -short checks a representative subset; the
// full grid runs in CI via `go test` and `mslint -all`.
func TestWorkloadPartitionsClean(t *testing.T) {
	names := workloads.Names()
	if testing.Short() {
		names = []string{"compress", "go", "li", "tomcatv", "fpppp"}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range sweep {
				part, err := core.Select(w.Build(), core.Options{Heuristic: cfg.h, TaskSize: cfg.ts})
				if err != nil {
					t.Fatalf("%v/ts=%v: Select: %v", cfg.h, cfg.ts, err)
				}
				fs := Partition(part)
				if n := fs.Errors(); n != 0 {
					t.Errorf("%v/ts=%v: %d error findings:\n%s",
						cfg.h, cfg.ts, n, fs.MinSeverity(SevError))
				}
			}
		})
	}
}

// TestWorkloadProgramsValid runs the IR-layer rules alone over every
// workload source program: structurally valid, no error findings.
func TestWorkloadProgramsValid(t *testing.T) {
	for _, w := range workloads.All() {
		fs := Program(w.Build())
		if n := fs.Errors(); n != 0 {
			t.Errorf("%s: %d error findings:\n%s", w.Name, n, fs.MinSeverity(SevError))
		}
	}
}

// TestRandomProgramsClean is the generator's contract: the programs of the
// first 50 corpus points of seed 1 lint clean, and partition clean under
// every heuristic with and without task size and under control flow with
// every registered policy.
func TestRandomProgramsClean(t *testing.T) {
	policies := core.PolicyNames()
	if len(policies) == 0 {
		t.Fatal("no policy registered")
	}
	var arms []core.Options
	for _, cfg := range sweep {
		arms = append(arms, core.Options{Heuristic: cfg.h, TaskSize: cfg.ts})
	}
	for _, pol := range policies {
		arms = append(arms, core.Options{Heuristic: core.ControlFlow, Policy: pol})
	}
	var points []gen.Params
	for i := 0; i < 50; i++ {
		points = append(points, gen.CorpusParams(1, i))
	}
	err := gen.Check(points, func(prog *ir.Program) error {
		if fs := Program(prog); fs.Errors() != 0 {
			return fmt.Errorf("program findings:\n%s", fs.MinSeverity(SevError))
		}
		return partitionsClean(prog, arms...)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// partitionsClean selects prog under each arm and verifies the partition,
// returning the first arm with error findings.
func partitionsClean(prog *ir.Program, arms ...core.Options) error {
	for _, opts := range arms {
		part, err := core.Select(prog, opts)
		if err != nil {
			return fmt.Errorf("%+v: Select: %w", opts, err)
		}
		if fs := Partition(part); fs.Errors() != 0 {
			return fmt.Errorf("%+v: %d error findings:\n%s", opts, fs.Errors(), fs.MinSeverity(SevError))
		}
	}
	return nil
}

// TestFindingsOrderDeterministic verifies the canonical ordering contract:
// two runs over the same partition produce byte-identical output.
func TestFindingsOrderDeterministic(t *testing.T) {
	w, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	part, err := core.Select(w.Build(), core.Options{Heuristic: core.DataDependence, TaskSize: true})
	if err != nil {
		t.Fatal(err)
	}
	a := Partition(part).String()
	b := Partition(part).String()
	if a != b {
		t.Errorf("verification output is not deterministic:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestSeverityOrderAndString pins the severity lattice the exit codes and
// filters rely on.
func TestSeverityOrderAndString(t *testing.T) {
	if !(SevInfo < SevWarn && SevWarn < SevError) {
		t.Fatal("severity order broken")
	}
	for sev, want := range map[Severity]string{SevInfo: "info", SevWarn: "warn", SevError: "error"} {
		if got := sev.String(); got != want {
			t.Errorf("Severity(%d).String() = %q, want %q", sev, got, want)
		}
	}
	f := Finding{Rule: RuleCreateMask, Sev: SevError, Fn: 0, FnName: "main", Blk: 3, Task: 7, Msg: "boom"}
	if got, want := f.String(), "error PT006 task 7 fn main b3: boom"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}
