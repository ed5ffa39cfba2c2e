package gen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/emu"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	_ "multiscalar/internal/policy" // register the policy zoo
	"multiscalar/internal/verify"
)

// emuLimit is far above the generator's worst case (8 functions × 60k dyn
// instrs); hitting it means a generated program failed to terminate.
const emuLimit = 4_000_000

// sweepPoints covers the parameter cube corners plus a corpus slice.
func sweepPoints() []gen.Params {
	pts := []gen.Params{
		{Seed: 7}, // all fields at minimum after clamping
		{Seed: 7, Funcs: 99, Blocks: 999, Branchiness: 999, LoopDepth: 99, CallDensity: 999, RegDensity: 999, MemWords: 99999},
		{Seed: 3, Funcs: 1, Blocks: 96, Branchiness: 100, LoopDepth: 0, CallDensity: 100, RegDensity: 0, MemWords: 8},
		{Seed: 4, Funcs: 8, Blocks: 4, Branchiness: 0, LoopDepth: 4, CallDensity: 100, RegDensity: 100, MemWords: 4096},
	}
	for i := 0; i < 24; i++ {
		pts = append(pts, gen.CorpusParams(11, i))
	}
	return pts
}

// TestGenerateValidAndTerminating is the generator's core property: every
// point of the parameter cube yields a program that validates and halts
// within the documented dynamic budget (rejection-free by construction).
func TestGenerateValidAndTerminating(t *testing.T) {
	for _, p := range sweepPoints() {
		prog := gen.Generate(p)
		if err := ir.Validate(prog); err != nil {
			t.Fatalf("%s: invalid program: %v", p.Key(), err)
		}
		if fs := verify.Program(prog); fs.Errors() > 0 {
			t.Fatalf("%s: program findings:\n%v", p.Key(), fs)
		}
		if err := emu.New(prog).Run(emuLimit); err != nil {
			t.Fatalf("%s: did not halt: %v", p.Key(), err)
		}
	}
}

// TestGenerateDeterministic pins the seed→program stability guarantee:
// equal (clamped) params generate byte-identical programs; different seeds
// diverge.
func TestGenerateDeterministic(t *testing.T) {
	p := gen.Default()
	a, b := ir.Format(gen.Generate(p)), ir.Format(gen.Generate(p))
	if a != b {
		t.Fatal("same params generated different programs")
	}
	p2 := p
	p2.Seed++
	if ir.Format(gen.Generate(p2)) == a {
		t.Fatal("different seeds generated identical programs")
	}
	// Clamping is part of the contract: an out-of-range point and its
	// clamped form are the same program under the same name.
	wild := gen.Params{Seed: 5, Funcs: -3, Blocks: 1000, Branchiness: 150, LoopDepth: -1, CallDensity: 101, RegDensity: -5, MemWords: 100}
	if wild.Key() != wild.Clamp().Key() {
		t.Fatal("Key not clamp-invariant")
	}
	if ir.Format(gen.Generate(wild)) != ir.Format(gen.Generate(wild.Clamp())) {
		t.Fatal("Generate not clamp-invariant")
	}
}

// corpusGolden is the sha256 over the formatted text of the 100-program
// corpus rooted at seed 1. It pins the seed→program mapping: any change to
// the generator's emission logic moves this hash and must be accompanied by
// a SchemaVersion bump (which renames every generated workload).
const corpusGolden = "0327d0349fe70a4bdc85f54b6125bf00e3cf0dd2d68ad6f11909a131333ea5c9"

func TestCorpusGolden(t *testing.T) {
	h := sha256.New()
	for i := 0; i < 100; i++ {
		p := gen.CorpusParams(1, i)
		h.Write([]byte(p.Key()))
		h.Write([]byte{0})
		h.Write([]byte(ir.Format(gen.Generate(p))))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusGolden {
		t.Fatalf("corpus hash = %s, want %s\n"+
			"The seed→program mapping changed. If intentional, bump gen.SchemaVersion and update corpusGolden.", got, corpusGolden)
	}
}

// TestNameRoundTrip checks the canonical-name grammar both ways.
func TestNameRoundTrip(t *testing.T) {
	for _, p := range sweepPoints() {
		name := p.Key()
		got, err := gen.ParseName(name)
		if err != nil {
			t.Fatalf("ParseName(%q): %v", name, err)
		}
		if got != p.Clamp() {
			t.Fatalf("ParseName(%q) = %+v, want %+v", name, got, p.Clamp())
		}
		if got.Key() != name {
			t.Fatalf("re-encode of %q = %q", name, got.Key())
		}
	}
	bad := []string{
		"",
		"compress",
		"gen:",
		"gen:v1",
		"gen:v0:s1:f3:b24:br40:ld2:cd20:rd50:mw64",  // wrong version
		"gen:v1:s1:f3:b24:br40:ld2:cd20:rd50:mw63",  // mw not a power of two → non-canonical
		"gen:v1:s1:f99:b24:br40:ld2:cd20:rd50:mw64", // out of range → non-canonical
		"gen:v1:s1:f3:b24:br40:ld2:cd20:rd50:mw64:x",
		"gen:v1:sX:f3:b24:br40:ld2:cd20:rd50:mw64",
		"gen:v1:f3:s1:b24:br40:ld2:cd20:rd50:mw64", // fields out of order
	}
	for _, name := range bad {
		if _, err := gen.ParseName(name); err == nil {
			t.Errorf("ParseName(%q) accepted a non-canonical name", name)
		}
	}
	if !gen.IsName("gen:v1:whatever") || gen.IsName("compress") {
		t.Error("IsName misclassifies")
	}
}

// TestSelectVerifyContract is the acceptance property: every generated
// program × every heuristic and policy partitions into a task selection
// that passes the full PT001–PT010 contract.
func TestSelectVerifyContract(t *testing.T) {
	arms := []core.Options{
		{Heuristic: core.BasicBlock},
		{Heuristic: core.ControlFlow},
		{Heuristic: core.DataDependence},
		{Heuristic: core.DataDependence, TaskSize: true},
		{Policy: "greedy"},
		{Policy: "roundrobin"},
		{Policy: "knapsack"},
	}
	var points []gen.Params
	for i := 0; i < 8; i++ {
		points = append(points, gen.CorpusParams(23, i))
	}
	err := gen.Check(points, func(prog *ir.Program) error {
		for _, opts := range arms {
			part, err := core.Select(prog, opts)
			if err != nil {
				return fmt.Errorf("%+v: %w", opts, err)
			}
			if fs := verify.Partition(part); fs.Errors() > 0 {
				return fmt.Errorf("%+v: contract violations:\n%v", opts, fs)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPolicyBudgetsRespected checks that policies actually enforce their
// budgets: under the greedy policy no task exceeds SizeBudget static
// instructions or CommBudget defined registers unless it is a single-block
// task (a block bigger than the budget still becomes its own task — coverage
// beats budgets).
func TestPolicyBudgetsRespected(t *testing.T) {
	p := gen.CorpusParams(31, 5)
	opts := core.Options{Policy: "greedy", SizeBudget: 20, CommBudget: 6}
	part, err := core.Select(gen.Generate(p), opts)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, task := range part.Tasks {
		if len(task.Blocks) == 1 {
			continue
		}
		multi++
		if task.StaticInstrs > 20 {
			t.Errorf("task %d: %d static instrs exceeds SizeBudget 20", task.ID, task.StaticInstrs)
		}
	}
	if multi == 0 {
		t.Fatal("greedy policy built no multi-block tasks; budget test is vacuous")
	}
}

// TestUnknownPolicy surfaces the registry error through Select.
func TestUnknownPolicy(t *testing.T) {
	_, err := core.Select(gen.Generate(gen.Default()), core.Options{Policy: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("err = %v, want unknown policy", err)
	}
}
