package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"multiscalar/internal/dataflow"
	"multiscalar/internal/ir"
)

// Policy is a pluggable task-growth strategy, the extension point beyond the
// paper's Heuristic enum. The selector drives coverage exactly as for the
// control-flow heuristic — seeds at the function entry, every exposed target
// and post-call resume point becomes a new seed — but growth of each task is
// a dialogue: the selector computes the admissible frontier (successor
// blocks whose inclusion keeps the task connected, single-entry, and within
// the hardware target limit) and the policy picks which candidate to admit,
// or stops. All PT001–PT010 safety therefore lives in the selector; a policy
// can only choose among moves that are already legal, never break the
// partition contract.
//
// One Policy value is created per Select call and discarded afterwards, so
// implementations may carry mutable state (budgets, rotation cursors,
// Lagrange multipliers) across the tasks of a run without synchronization.
// Selection order is deterministic, so any deterministic policy yields a
// deterministic partition.
type Policy interface {
	// Name returns the registered policy name (for diagnostics).
	Name() string
	// Pick returns the index of the frontier candidate to admit into the
	// task, or a negative value to close the task. Candidates are sorted by
	// block ID; an out-of-range index closes the task. The frontier slice is
	// only valid during the call.
	Pick(t PolicyTask, frontier []PolicyCandidate) int
	// TaskDone observes the finished task (after the final Pick), letting
	// stateful policies update budgets or multipliers between tasks.
	TaskDone(t PolicyTask)
}

// PolicyTask summarizes the task being grown.
type PolicyTask struct {
	Fn     ir.FnID
	Entry  ir.BlockID
	Blocks int // member blocks so far
	Instrs int // static instructions so far (terminators included)
	Regs   int // distinct registers the task defines so far
}

// PolicyCandidate is one admissible growth move.
type PolicyCandidate struct {
	Blk ir.BlockID
	// Instrs is the candidate's static instruction count (terminator
	// included) — the marginal task-size cost.
	Instrs int
	// NewRegs counts registers the candidate defines that the task does not
	// define yet — the marginal register-communication cost (each such
	// register joins the create mask the ring must forward).
	NewRegs int
	// Freq is the profiled execution count of the candidate block — the
	// benefit weight (covering hot blocks amortizes task overhead).
	Freq uint64
}

// PolicyConfig carries the per-task budgets Options exposes to policies.
type PolicyConfig struct {
	// SizeBudget caps static instructions per task.
	SizeBudget int
	// CommBudget caps distinct defined registers per task.
	CommBudget int
}

var (
	policyMu  sync.RWMutex
	policyReg = map[string]func(PolicyConfig) Policy{}
)

// RegisterPolicy makes a policy constructible by name (typically from an
// init function in the implementing package). Registering a duplicate name
// panics: names appear in cache keys, so two implementations must never
// share one.
func RegisterPolicy(name string, factory func(PolicyConfig) Policy) {
	policyMu.Lock()
	defer policyMu.Unlock()
	if name == "" || factory == nil {
		panic("core: RegisterPolicy with empty name or nil factory")
	}
	if _, dup := policyReg[name]; dup {
		panic(fmt.Sprintf("core: policy %q registered twice", name))
	}
	policyReg[name] = factory
}

// NewPolicy constructs a registered policy. Unknown names list the registry
// (callers surface this to users verbatim).
func NewPolicy(name string, cfg PolicyConfig) (Policy, error) {
	policyMu.RLock()
	factory := policyReg[name]
	policyMu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("core: unknown policy %q (registered: %v)", name, PolicyNames())
	}
	return factory(cfg), nil
}

// PolicyNames returns the registered policy names, sorted.
func PolicyNames() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	names := make([]string, 0, len(policyReg))
	for name := range policyReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// policyGrow grows one task from its entry under the policy. The selector
// owns safety: a block enters the frontier only if it is reachable from the
// current set along a non-terminal edge, is not the entry, is not another
// task's entry, and its admission keeps the target count within MaxTargets.
// The policy owns preference: which legal candidate (if any) to take. The
// result aliases s.set until its next use.
func (s *selector) policyGrow(fn ir.FnID, entry ir.BlockID) []ir.BlockID {
	const growCap = 512
	f := s.prog().Fn(fn)
	facts := s.facts[fn]
	S := &s.set
	S.fill(s.flows[fn], entry, []ir.BlockID{entry})
	defs := facts.Blocks[entry].Def
	state := PolicyTask{Fn: fn, Entry: entry, Blocks: 1, Instrs: f.Block(entry).Len(), Regs: defs.Count()}
	for len(S.order) < growCap {
		frontier := s.policyFrontier(fn, entry, defs)
		if len(frontier) == 0 {
			break
		}
		pick := s.policy.Pick(state, frontier)
		if pick < 0 || pick >= len(frontier) {
			break
		}
		c := frontier[pick]
		S.add(c.Blk)
		defs = defs.Union(facts.Blocks[c.Blk].Def)
		state.Blocks, state.Instrs, state.Regs = len(S.order), state.Instrs+c.Instrs, defs.Count()
	}
	s.policy.TaskDone(state)
	return S.order
}

// policyFrontier computes the admissible growth moves of s.set entered at
// entry, sorted by block ID (deterministic presentation order). The
// returned slice is reused by the next call.
func (s *selector) policyFrontier(fn ir.FnID, entry ir.BlockID, defs dataflow.RegSet) []PolicyCandidate {
	f := s.prog().Fn(fn)
	facts := s.facts[fn]
	S := &s.set
	s.stamp++
	cand := s.queue[:0]
	for _, b := range S.order {
		fl := &s.flows[fn][b]
		for k, ch := range fl.succ[:fl.n] {
			if S.in[ch] || ch == entry || fl.term[k] || s.blockMark[ch] == s.stamp {
				continue
			}
			if s.part.ByEntry[fn][ch] != nil {
				continue // ch already starts another task; keep its boundary
			}
			s.blockMark[ch] = s.stamp
			cand = append(cand, ch)
		}
	}
	s.queue = cand
	slices.Sort(cand)
	out := s.frontier[:0]
	for _, ch := range cand {
		// Feasibility is first-fit: a candidate whose admission would exceed
		// the hardware target limit is simply not offered. (The greedy
		// heuristic explores past the limit hunting reconvergence; policies
		// trade that away for budget control.)
		S.add(ch)
		feasible := S.targets <= s.opts.MaxTargets
		S.pop()
		if !feasible {
			continue
		}
		out = append(out, PolicyCandidate{
			Blk:     ch,
			Instrs:  f.Block(ch).Len(),
			NewRegs: facts.Blocks[ch].Def.Minus(defs).Count(),
			Freq:    s.profile.Freq(fn, ch),
		})
	}
	s.frontier = out
	return out
}
