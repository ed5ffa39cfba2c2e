package gen_test

import (
	"fmt"
	"strings"
	"testing"

	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
)

func TestShrinkParams(t *testing.T) {
	start := gen.Params{Seed: 9, Funcs: 8, Blocks: 96, Branchiness: 90, LoopDepth: 4, CallDensity: 80, RegDensity: 90, MemWords: 1024}
	cases := []struct {
		name  string
		fails func(gen.Params) bool
		want  gen.Params
	}{
		// The minimum over the lattice is Funcs=2 with everything else
		// floored.
		{"more than one function", func(p gen.Params) bool { return len(gen.Generate(p).Fns) > 1 },
			gen.Params{Seed: 9, Funcs: 2, Blocks: 4, MemWords: 8}},
		// Clamp rounds every probe between 8 and 16 back up to 16, so the
		// probes land on the current point; the search must still end.
		{"MemWords at least 16", func(p gen.Params) bool { return p.MemWords >= 16 },
			gen.Params{Seed: 9, Funcs: 1, Blocks: 4, MemWords: 16}},
		// A predicate that never fails returns the input unchanged.
		{"never fails", func(gen.Params) bool { return false }, start.Clamp()},
	}
	for _, c := range cases {
		if got := gen.ShrinkParams(start, c.fails); got != c.want {
			t.Errorf("%s: ShrinkParams = %s, want %s", c.name, got.Key(), c.want.Key())
		}
	}
}

// TestCheck pins the report of a failing property: the failing key and its
// shrunk minimum, both canonical names, then the property's own error.
func TestCheck(t *testing.T) {
	points := []gen.Params{gen.CorpusParams(1, 0), gen.CorpusParams(1, 1), gen.CorpusParams(1, 2)}
	if points[0].Funcs != 1 || points[1].Funcs != 2 {
		t.Fatalf("corpus points moved: %s, %s", points[0].Key(), points[1].Key())
	}
	single := func(prog *ir.Program) error {
		if len(prog.Fns) > 1 {
			return fmt.Errorf("%d functions", len(prog.Fns))
		}
		return nil
	}
	if err := gen.Check(points[:1], single); err != nil {
		t.Fatalf("passing point reported: %v", err)
	}
	panicky := func(prog *ir.Program) error {
		if len(prog.Fns) > 1 {
			panic("too many functions")
		}
		return nil
	}
	small := gen.Params{Seed: points[1].Seed, Funcs: 2, Blocks: 4, MemWords: 8}
	for _, c := range []struct {
		prop func(*ir.Program) error
		want string
	}{
		{single, "2 functions"},
		{panicky, "panic: too many functions"},
	} {
		err := gen.Check(points, c.prop)
		if err == nil {
			t.Fatal("failing point not reported")
		}
		msg := err.Error()
		var keys []string
		for _, f := range strings.Fields(msg) {
			if gen.IsName(f) {
				keys = append(keys, strings.TrimRight(f, "):"))
			}
		}
		if want := []string{points[1].Key(), small.Key()}; fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Fatalf("keys in %q = %v, want %v", msg, keys, want)
		}
		for _, k := range keys {
			if p, err := gen.ParseName(k); err != nil || p.Key() != k {
				t.Errorf("reported key %q does not round-trip: %v", k, err)
			}
		}
		if !strings.Contains(msg, "): "+c.want) {
			t.Errorf("report %q does not carry the property's error %q", msg, c.want)
		}
	}
}
