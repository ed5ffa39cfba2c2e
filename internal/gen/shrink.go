package gen

import (
	"fmt"
	"runtime/debug"

	"multiscalar/internal/ir"
)

// Check runs prop on the program of each point, in order, and returns nil
// when every program satisfies it. At the first failure it shrinks the point
// with ShrinkParams, taking "prop fails on Generate(q)" as the predicate, and
// returns an error naming the failing key, the minimal failing key, and
// prop's error. Either key is a workload name, so `mstask -workload <key>`
// rebuilds the program. A panic in prop counts as a failure.
func Check(points []Params, prop func(*ir.Program) error) error {
	for _, p := range points {
		err := holds(prop, p)
		if err == nil {
			continue
		}
		small := ShrinkParams(p, func(q Params) bool { return holds(prop, q) != nil })
		return fmt.Errorf("property fails on %s (shrinks to %s): %w", p.Key(), small.Key(), err)
	}
	return nil
}

// holds runs prop on p's program, turning a panic into an error that keeps
// the panic's stack.
func holds(prop func(*ir.Program) error, p Params) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return prop(Generate(p))
}

// ShrinkParams minimizes a failing parameter point: given a predicate that
// reports whether the program generated from p still exhibits a failure, it
// greedily drives every size-like field toward its minimum (binary search
// per field) while the failure persists. The result is the smallest point in
// the lattice below p; the seed is kept, since it selects the program within
// the family the other fields define.
//
// fails must be deterministic (generated programs are, so a pure property of
// the program always is). The original p is returned unchanged if it does
// not fail.
func ShrinkParams(p Params, fails func(Params) bool) Params {
	p = p.Clamp()
	if !fails(p) {
		return p
	}
	fields := []struct {
		get func(*Params) *int
		min int
	}{
		{func(q *Params) *int { return &q.Funcs }, 1},
		{func(q *Params) *int { return &q.Blocks }, 4},
		{func(q *Params) *int { return &q.LoopDepth }, 0},
		{func(q *Params) *int { return &q.CallDensity }, 0},
		{func(q *Params) *int { return &q.Branchiness }, 0},
		{func(q *Params) *int { return &q.RegDensity }, 0},
		{func(q *Params) *int { return &q.MemWords }, 8},
	}
	// Iterate to a fixed point: lowering one field can unlock another. Clamp
	// rounds a probed MemWords up to a power of two, so a probe can land on
	// the current point; only a strictly smaller point counts as progress,
	// which bounds the loop by the sum of the fields.
	for changed := true; changed; {
		changed = false
		for _, f := range fields {
			lo, hi := f.min, *f.get(&p) // fails at hi; probe toward lo
			for lo < hi {
				mid := lo + (hi-lo)/2
				q := p
				*f.get(&q) = mid
				q = q.Clamp()
				if fails(q) {
					changed = changed || q != p
					p, hi = q, mid
				} else {
					lo = mid + 1
				}
			}
		}
	}
	return p
}
