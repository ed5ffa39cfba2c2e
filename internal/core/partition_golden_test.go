package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	_ "multiscalar/internal/policy" // register the policy zoo
	"multiscalar/internal/workloads"
)

// The partition goldens are differential, like the simulator's result
// goldens: they were recorded from the map-based selector and pin every
// field a consumer of a Partition reads, so a rewrite of selection's
// analyses must reproduce each partition exactly. A deliberate change to
// task selection re-records them and says so.

// goldenArm is one selection configuration the goldens cover.
type goldenArm struct {
	name string
	opts core.Options
}

var (
	workloadArms = []goldenArm{
		{"bb", core.Options{Heuristic: core.BasicBlock}},
		{"cf", core.Options{Heuristic: core.ControlFlow}},
		{"dd", core.Options{Heuristic: core.DataDependence}},
		{"dd+ts", core.Options{Heuristic: core.DataDependence, TaskSize: true}},
		{"cf+nogreedy", core.Options{Heuristic: core.ControlFlow, NoGreedy: true}},
	}
	// corpusArms are experiment.Corpus's arms with the full policy zoo.
	corpusArms = []goldenArm{
		{"bb", core.Options{Heuristic: core.BasicBlock}},
		{"cf", core.Options{Heuristic: core.ControlFlow}},
		{"dd", core.Options{Heuristic: core.DataDependence}},
		{"greedy", core.Options{Heuristic: core.ControlFlow, Policy: "greedy"}},
		{"roundrobin", core.Options{Heuristic: core.ControlFlow, Policy: "roundrobin"}},
		{"knapsack", core.Options{Heuristic: core.ControlFlow, Policy: "knapsack"}},
	}
)

// partitionGoldens holds, per input family and arm, the SHA-256 over the
// canonical dumps of every partition: the 18 workloads, and programs 0–47
// of the seed-1 generated corpus.
var partitionGoldens = map[string]string{
	"workloads/bb":          "3547415de259de117a868206db2d961ad617f0ef41faef8ada5e504e160b001f",
	"workloads/cf":          "38f9ff4d8cecd688d818122c5b366b0383da184243c58fbd1a2432f014af4914",
	"workloads/dd":          "eecb40d6c868d1551c9aaca054885df4cfd65443ae214ab5b640d584f94f21e7",
	"workloads/dd+ts":       "3a986fb814ce2b135fdc1df8c77b06a9b2dee732e4a2f7c316725bb9c1061506",
	"workloads/cf+nogreedy": "5f07b7fe3f14fc8b4886a3818baebab4f423e09b7c10a9d70102c962801ebe92",
	"corpus/bb":             "8dc05861dacd2b5e312b05111f91fd84f66bf9a95ba876644be71e0a047a1e75",
	"corpus/cf":             "5126b178a6ceddb6da0cf08316f8da725c7aabb46059fa43ed797e666bd22931",
	"corpus/dd":             "f079c0888bd7bf8a4139126706256d5ca0ca554d4b97ba6503f948a24a1fb190",
	"corpus/greedy":         "1dd6d06f4ca48c7381f6daa35b26b20e870618c6c02a61dfa4842405a4c8e8b7",
	"corpus/roundrobin":     "8aa3f0c83a572ccef84fab0e480bad453e959d6db6a8abcb4c7183db55ac6d82",
	"corpus/knapsack":       "861d4b825520dd554ac4ad64fba1d8a5cae2dfae88126a487eb4f1eb1570f041",
}

// dumpPartition writes every task of part in Tasks order: its identity and
// size, sorted blocks, targets, included calls, continue edges, create mask,
// end-forward set and forward points.
func dumpPartition(h hash.Hash, part *core.Partition) {
	fmt.Fprintf(h, "tasks %d included %v\n", len(part.Tasks), part.FnIncluded)
	for _, t := range part.Tasks {
		f := part.Prog.Fn(t.Fn)
		blocks := t.Blocks
		var incl []ir.BlockID
		for _, b := range blocks {
			if t.IncludesCall(b) {
				incl = append(incl, b)
			}
		}
		var fwd [][2]int
		for _, b := range blocks {
			for i := range f.Block(b).Instrs {
				if t.ForwardsAt(b, i) {
					fwd = append(fwd, [2]int{int(b), i})
				}
			}
		}
		fmt.Fprintf(h, "task %d fn %d entry %d instrs %d\n blocks %v\n targets %v\n include %v\n continue %v\n create %#x end %#x\n fwd %v\n",
			t.ID, t.Fn, t.Entry, t.StaticInstrs, blocks, t.Targets, incl,
			t.ContinueEdges(), uint64(t.CreateMask), uint64(t.EndForward()), fwd)
	}
}

func checkPartitions(t *testing.T, family string, arms []goldenArm, progs []*ir.Program, names []string) {
	t.Helper()
	for _, arm := range arms {
		h := sha256.New()
		for i, prog := range progs {
			part, err := core.Select(prog, arm.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", names[i], arm.name, err)
			}
			fmt.Fprintf(h, "== %s\n", names[i])
			dumpPartition(h, part)
		}
		key := family + "/" + arm.name
		if got, want := hex.EncodeToString(h.Sum(nil)), partitionGoldens[key]; got != want {
			t.Errorf("%s: digest %s, want %s", key, got, want)
		}
	}
}

// TestPartitionGoldens pins every partition the 18 workloads get under the
// paper's heuristics (with the task-size heuristic and the first-fit
// ablation), and every partition programs 0–47 of the seed-1 corpus get
// under the corpus sweep's six arms.
func TestPartitionGoldens(t *testing.T) {
	t.Run("workloads", func(t *testing.T) {
		t.Parallel()
		var progs []*ir.Program
		var names []string
		for _, w := range workloads.All() {
			progs = append(progs, w.Build())
			names = append(names, w.Name)
		}
		checkPartitions(t, "workloads", workloadArms, progs, names)
	})
	t.Run("corpus", func(t *testing.T) {
		t.Parallel()
		var progs []*ir.Program
		var names []string
		for i := 0; i < 48; i++ {
			p := gen.CorpusParams(1, i)
			progs = append(progs, gen.Generate(p))
			names = append(names, p.Key())
		}
		checkPartitions(t, "corpus", corpusArms, progs, names)
	})
}
