// Package core implements the paper's primary contribution: compiler task
// selection for a Multiscalar processor.
//
// A task is a connected, single-entry subgraph of a function's CFG. The
// package provides the three task selection strategies the paper evaluates —
// basic-block tasks, control-flow tasks, and data-dependence tasks — plus the
// task-size heuristic (loop unrolling to LOOP_THRESH, inclusion of calls
// below CALL_THRESH, induction-variable hoisting) and the register
// communication analysis (create masks and forward points) the Multiscalar
// hardware needs.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"multiscalar/internal/dataflow"
	"multiscalar/internal/ir"
)

// Heuristic selects the task-selection strategy.
type Heuristic int

// The strategies evaluated in the paper's Figure 5 and Table 1.
const (
	// BasicBlock makes every basic block its own task (the paper's baseline).
	BasicBlock Heuristic = iota
	// ControlFlow grows multi-block tasks bounded by terminal nodes/edges and
	// the hardware target limit, exploiting reconverging control flow.
	ControlFlow
	// DataDependence additionally steers growth along profiled def-use
	// chains so dependences land inside tasks (applied on top of ControlFlow,
	// as in the paper).
	DataDependence
)

// String names the heuristic as in the paper's figures.
func (h Heuristic) String() string {
	switch h {
	case BasicBlock:
		return "basic block"
	case ControlFlow:
		return "control flow"
	case DataDependence:
		return "data dependence"
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// ParseHeuristic maps a heuristic's short name (bb, cf, or dd) to the
// Heuristic.
func ParseHeuristic(name string) (Heuristic, error) {
	switch name {
	case "bb":
		return BasicBlock, nil
	case "cf":
		return ControlFlow, nil
	case "dd":
		return DataDependence, nil
	}
	return 0, fmt.Errorf("unknown heuristic %q (want bb, cf, or dd)", name)
}

// TargetKind discriminates where control can go when a task ends.
type TargetKind uint8

// Target kinds.
const (
	// TargetBlock continues at a block (a task entry) in the same function.
	TargetBlock TargetKind = iota
	// TargetCall continues at the entry task of a callee.
	TargetCall
	// TargetReturn continues at the caller's resume point (dynamic; the
	// sequencer resolves it with a return-address stack).
	TargetReturn
	// TargetHalt ends the program.
	TargetHalt
)

// Target is one possible successor of a task. The position of a target in
// Task.Targets is the target number the inter-task predictor predicts.
type Target struct {
	Kind TargetKind
	Blk  ir.BlockID // TargetBlock
	Fn   ir.FnID    // TargetCall
}

// String renders the target compactly.
func (t Target) String() string {
	switch t.Kind {
	case TargetBlock:
		return fmt.Sprintf("b%d", t.Blk)
	case TargetCall:
		return fmt.Sprintf("call:fn%d", t.Fn)
	case TargetReturn:
		return "ret"
	case TargetHalt:
		return "halt"
	}
	return "?"
}

type edge struct{ from, to ir.BlockID }

// Task is one static Multiscalar task.
type Task struct {
	ID    int
	Fn    ir.FnID
	Entry ir.BlockID

	// Blocks is the task's membership set.
	Blocks map[ir.BlockID]bool

	// continueEdge marks intra-task CFG edges along which execution stays in
	// the same task instance. Edges not marked (terminal edges, edges leaving
	// Blocks, edges back to Entry) end the instance.
	continueEdge map[edge]bool

	// IncludeCall marks call-terminated blocks whose entire callee invocation
	// executes inside the task (the CALL_THRESH part of the task-size
	// heuristic).
	IncludeCall map[ir.BlockID]bool

	// Targets are the possible successors, deterministically ordered; the
	// index is the hardware target number.
	Targets []Target

	// CreateMask is the set of registers the task may write (and therefore
	// must forward on the register communication ring).
	CreateMask dataflow.RegSet

	// endForward is the subset of CreateMask only released when the task
	// ends (conservative: written by included callees or redefinable on some
	// continuation path).
	endForward dataflow.RegSet

	// lastDef marks instructions that are the final write of their register
	// on every path to task exit; the hardware forwards the value there.
	// Key: block ID and instruction index within the block.
	lastDef map[instrRef]bool

	// StaticInstrs is the total instruction count of the member blocks.
	StaticInstrs int
}

type instrRef struct {
	blk ir.BlockID
	idx int
}

// Continues reports whether executing the edge from→to stays inside this
// task instance.
func (t *Task) Continues(from, to ir.BlockID) bool {
	return t.continueEdge[edge{from: from, to: to}]
}

// AddContinueEdge marks from→to as an edge along which execution stays inside
// the task instance. Select computes continue edges itself; this mutator
// exists for tooling and tests (internal/verify's negative fixtures) that
// build or corrupt partitions by hand.
func (t *Task) AddContinueEdge(from, to ir.BlockID) {
	if t.continueEdge == nil {
		t.continueEdge = make(map[edge]bool)
	}
	t.continueEdge[edge{from: from, to: to}] = true
}

// ContinueEdges returns every continue edge as (from, to) pairs in
// deterministic order, for analyses that need to walk the intra-task subgraph
// without probing all block pairs.
func (t *Task) ContinueEdges() [][2]ir.BlockID {
	out := make([][2]ir.BlockID, 0, len(t.continueEdge))
	for e, ok := range t.continueEdge {
		if ok {
			out = append(out, [2]ir.BlockID{e.from, e.to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ForwardsAt reports whether the instruction at (blk, idx) is a forward point
// (the last definition of its destination register within the task).
func (t *Task) ForwardsAt(blk ir.BlockID, idx int) bool {
	return t.lastDef[instrRef{blk: blk, idx: idx}]
}

// EndForward returns the registers only released at task end.
func (t *Task) EndForward() dataflow.RegSet { return t.endForward }

// TargetIndex returns the index of the given target in Targets, or -1.
func (t *Task) TargetIndex(tgt Target) int {
	for i, x := range t.Targets {
		if x == tgt {
			return i
		}
	}
	return -1
}

// NumTargets returns the number of distinct successors the task exposes.
func (t *Task) NumTargets() int { return len(t.Targets) }

// EntryKey identifies a task by its entry point.
type EntryKey struct {
	Fn  ir.FnID
	Blk ir.BlockID
}

// Partition is a complete task selection for a program. When the task-size
// heuristic ran, Prog is the transformed (unrolled) clone, not the input
// program.
type Partition struct {
	Prog      *ir.Program
	Heuristic Heuristic
	Opts      Options

	Tasks   []*Task
	ByEntry map[EntryKey]*Task

	// FnIncluded[fn] reports that every call to fn is included inside the
	// caller's tasks (fn is below CALL_THRESH).
	FnIncluded []bool
}

// TaskAt returns the task whose entry is (fn, blk), or nil.
func (p *Partition) TaskAt(fn ir.FnID, blk ir.BlockID) *Task {
	return p.ByEntry[EntryKey{Fn: fn, Blk: blk}]
}

// EntryTask returns the task that starts the program.
func (p *Partition) EntryTask() *Task {
	return p.TaskAt(p.Prog.Main, p.Prog.Fn(p.Prog.Main).Entry)
}

// Options configures Partition construction.
type Options struct {
	// Heuristic chooses the selection strategy. Default BasicBlock.
	Heuristic Heuristic
	// TaskSize enables the task-size heuristic (loop unrolling, call
	// inclusion, induction hoisting).
	TaskSize bool
	// MaxTargets is the hardware target limit N (default 4).
	MaxTargets int
	// CallThresh is CALL_THRESH: calls to functions averaging fewer dynamic
	// instructions than this are included within tasks (default 30).
	CallThresh int
	// LoopThresh is LOOP_THRESH: loop bodies under this many static
	// instructions are unrolled up to it (default 30).
	LoopThresh int
	// NoGreedy disables the greedy part of the feasible-task search: instead
	// of exploring past the target limit looking for reconverging paths, the
	// traversal rejects any block whose inclusion exceeds MaxTargets (a
	// first-fit baseline for the ablation in DESIGN.md §5).
	NoGreedy bool
	// ProfileBudget caps the profiling run's dynamic instructions
	// (default 50M).
	ProfileBudget uint64
	// Policy, when non-empty, replaces heuristic task growth with the named
	// registered Policy (see RegisterPolicy); Heuristic still selects the
	// profile-independent machinery but growth decisions come from the
	// policy. Policy names are part of grid cache keys.
	Policy string
	// SizeBudget is the per-task static-instruction budget policies see
	// (default 48 when a policy is set, ignored otherwise).
	SizeBudget int
	// CommBudget is the per-task distinct-defined-register budget policies
	// see (default 8 when a policy is set, ignored otherwise).
	CommBudget int
}

func (o Options) withDefaults() Options {
	if o.MaxTargets == 0 {
		o.MaxTargets = 4
	}
	if o.CallThresh == 0 {
		o.CallThresh = 30
	}
	if o.LoopThresh == 0 {
		o.LoopThresh = 30
	}
	if o.ProfileBudget == 0 {
		o.ProfileBudget = 50_000_000
	}
	if o.Policy != "" {
		if o.SizeBudget == 0 {
			o.SizeBudget = 48
		}
		if o.CommBudget == 0 {
			o.CommBudget = 8
		}
	}
	return o
}

// sortTargets orders a target set deterministically: block targets by block,
// then call targets by callee, then return, then halt.
func sortTargets(ts []Target) {
	slices.SortFunc(ts, func(a, b Target) int {
		if a.Kind != b.Kind {
			return cmp.Compare(a.Kind, b.Kind)
		}
		if a.Kind == TargetBlock {
			return cmp.Compare(a.Blk, b.Blk)
		}
		if a.Kind == TargetCall {
			return cmp.Compare(a.Fn, b.Fn)
		}
		return 0
	})
}
