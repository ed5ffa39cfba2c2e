// Package workloads provides the evaluation inputs of the reproduction: one
// synthetic benchmark per SPEC95 program the paper measures, written against
// the IR builder. Real SPEC95 sources and a 1998 gcc port are unavailable,
// so each workload is designed to reproduce the *task-selection-relevant*
// character of its namesake — control-flow regularity, basic-block size,
// call density, loop-body size, and the placement of loop-carried register
// and memory dependences — rather than its exact computation. DESIGN.md
// documents this substitution.
//
// All workloads are deterministic (seeded LCG input generators, no host
// randomness) and write a final checksum into their data segment, which the
// tests compare between the sequential emulator and the timing simulator.
package workloads

import (
	"fmt"
	"slices"

	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
)

// Workload names one benchmark program.
type Workload struct {
	// Name matches the SPEC95 program it stands in for (e.g. "compress").
	Name string
	// FP marks the floating-point suite (Figure 5's right-hand plot).
	FP bool
	// Build constructs a fresh program (programs are mutable; never share).
	Build func() *ir.Program
}

// all is the suite All returns. ByName and Names read it in place, so it is
// never modified.
var all = []Workload{
	{Name: "go", Build: Go},
	{Name: "m88ksim", Build: M88ksim},
	{Name: "cc", Build: CC},
	{Name: "compress", Build: Compress},
	{Name: "li", Build: Li},
	{Name: "ijpeg", Build: Ijpeg},
	{Name: "perl", Build: Perl},
	{Name: "vortex", Build: Vortex},
	{Name: "tomcatv", FP: true, Build: Tomcatv},
	{Name: "swim", FP: true, Build: Swim},
	{Name: "su2cor", FP: true, Build: Su2cor},
	{Name: "hydro2d", FP: true, Build: Hydro2d},
	{Name: "mgrid", FP: true, Build: Mgrid},
	{Name: "applu", FP: true, Build: Applu},
	{Name: "turb3d", FP: true, Build: Turb3d},
	{Name: "fpppp", FP: true, Build: Fpppp},
	{Name: "apsi", FP: true, Build: Apsi},
	{Name: "wave5", FP: true, Build: Wave5},
}

// All returns every workload: the 8 integer and 10 floating-point programs
// of the paper's SPEC95 evaluation, in the paper's order. The slice is the
// caller's own copy.
func All() []Workload { return slices.Clone(all) }

// ByName returns the workload with the given name. Names carrying the
// generator prefix ("gen:") are resolved through internal/gen: the full
// parameter vector lives inside the name, so a generated workload flows
// through the grid engine and its caches exactly like a hand-built one, and
// equal names always rebuild byte-identical programs.
func ByName(name string) (Workload, error) {
	if gen.IsName(name) {
		p, err := gen.ParseName(name)
		if err != nil {
			return Workload{}, fmt.Errorf("workloads: %w", err)
		}
		return Workload{Name: name, Build: func() *ir.Program { return gen.Generate(p) }}, nil
	}
	for _, w := range all {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists all workload names in order.
func Names() []string {
	var out []string
	for _, w := range all {
		out = append(out, w.Name)
	}
	return out
}

// Conventional register roles shared by the workload sources. Each workload
// is self-contained; these are just naming conventions for readability.
const (
	rI   = ir.Reg(3) // primary induction
	rJ   = ir.Reg(4) // secondary induction
	rT0  = ir.Reg(5) // temporaries
	rT1  = ir.Reg(6)
	rT2  = ir.Reg(7)
	rT3  = ir.Reg(9)
	rB0  = ir.Reg(16) // base addresses
	rB1  = ir.Reg(17)
	rB2  = ir.Reg(18)
	rB3  = ir.Reg(19)
	rLCG = ir.Reg(20) // LCG state
	rAcc = ir.Reg(21) // running checksum
	rN   = ir.Reg(22) // loop bound
	rOut = ir.Reg(23) // checksum output base
)

// lcgStep advances the LCG state register and leaves (state >> 33) & mask in
// out. The constants are Knuth's MMIX LCG.
func lcgStep(bb *ir.BlockBuilder, state, out ir.Reg, mask int64) *ir.BlockBuilder {
	bb.MulI(state, state, 6364136223846793005)
	bb.AddI(state, state, 1442695040888963407)
	bb.ShrI(out, state, 33)
	if mask >= 0 {
		bb.AndI(out, out, mask)
	}
	return bb
}
