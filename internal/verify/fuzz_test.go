package verify

import (
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
)

// FuzzVerifyPartition feeds generated programs through the full selection
// pipeline and asserts the verifier neither panics nor finds error-severity
// violations in anything Select produces — the same contract the workload
// oracle checks, over an open-ended program space.
//
// The program is gen.CorpusParams(seed, arm). The arm byte also selects the
// growth strategy: 0–2 the paper heuristics, 3–5 the policy zoo. The
// checked-in corpus under testdata/fuzz pins one input per strategy.
func FuzzVerifyPartition(f *testing.F) {
	f.Add(int64(0), byte(0), false)
	f.Add(int64(1), byte(1), true)
	f.Add(int64(42), byte(2), true)
	f.Add(int64(-7), byte(5), false)
	f.Add(int64(13), byte(3), false)
	f.Add(int64(99), byte(4), true)
	f.Fuzz(func(t *testing.T, seed int64, arm byte, tasksize bool) {
		opts := core.Options{TaskSize: tasksize}
		switch arm % 6 {
		case 0:
			opts.Heuristic = core.BasicBlock
		case 1:
			opts.Heuristic = core.ControlFlow
		case 2:
			opts.Heuristic = core.DataDependence
		case 3:
			opts.Policy = "greedy"
		case 4:
			opts.Policy = "roundrobin"
		case 5:
			opts.Policy = "knapsack"
		}
		err := gen.Check([]gen.Params{gen.CorpusParams(seed, int(arm))}, func(prog *ir.Program) error {
			return partitionsClean(prog, opts)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
