package core

import (
	"cmp"
	"fmt"
	"slices"

	"multiscalar/internal/cfganal"
	"multiscalar/internal/dataflow"
	"multiscalar/internal/emu"
	"multiscalar/internal/ir"
)

// Select partitions the program into Multiscalar tasks using the selected
// heuristic: Prepare, then the prepared program's Select. The input program
// is never mutated; the returned Partition carries the restructured clone
// (unrolled too when the task-size heuristic is enabled).
func Select(prog *ir.Program, opts Options) (*Partition, error) {
	p, err := Prepare(prog, opts)
	if err != nil {
		return nil, err
	}
	return p.Select(opts)
}

// Prepared is a program made ready for task selection: validated, cloned,
// loop-restructured (and unrolled under the task-size heuristic), profiled,
// laid out and analyzed. None of that depends on the heuristic, the policy or
// the selection thresholds, so the paper's compiler does it once per program
// (§4.2) and every arm selects from the same Prepared.
//
// A Prepared is immutable. Select only reads it, so any number of goroutines
// may select from one Prepared at once, and every Partition selected from it
// shares its Prog.
type Prepared struct {
	// Prog is the prepared clone of the input program. It is shared and
	// read-only.
	Prog *ir.Program

	opts    Options // PrepareOptions of the options it was prepared under
	profile *emu.Profile
	// cfgs[fn] and facts[fn] are each function's control-flow and dataflow
	// analyses.
	cfgs  []*cfganal.CFG
	facts []*dataflow.Facts
	// writes[fn] is every register fn or a transitive callee may write.
	writes []dataflow.RegSet
}

// PrepareOptions returns the part of opts, after defaults, that Prepare
// reads: TaskSize, LoopThresh (under TaskSize only) and ProfileBudget. Option
// sets with equal projections prepare the same program.
func PrepareOptions(opts Options) Options {
	opts = opts.withDefaults()
	p := Options{TaskSize: opts.TaskSize, ProfileBudget: opts.ProfileBudget}
	if opts.TaskSize {
		p.LoopThresh = opts.LoopThresh
	}
	return p
}

// The analyses and the profiling run Prepare pays for, indirected so tests
// can count them.
var (
	analyzeCFG  = cfganal.Analyze
	analyzeFlow = dataflow.Analyze
	runProfile  = profileProgram
)

// Prepare does the heuristic-independent part of task selection for prog
// under the options PrepareOptions(opts) keeps. The input program is never
// mutated.
func Prepare(prog *ir.Program, opts Options) (*Prepared, error) {
	opts = PrepareOptions(opts)
	if err := ir.Validate(prog); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := ir.Clone(prog)
	// Loop restructuring (induction hoisting) is part of the Multiscalar
	// compilation every binary gets, independent of the heuristic choice.
	cfgs, _ := restructureLoops(p)

	// Profile the (possibly about-to-be-transformed) program. The profile
	// feeds CALL_THRESH inclusion and def-use edge prioritization.
	profile, err := runProfile(p, opts.ProfileBudget)
	if err != nil {
		return nil, fmt.Errorf("core: profiling: %w", err)
	}

	if opts.TaskSize && ApplyTaskSize(p, opts) {
		// Block IDs moved; re-profile the transformed program so the
		// data-dependence priorities refer to the new CFG, and analyze it
		// again.
		profile, err = runProfile(p, opts.ProfileBudget)
		if err != nil {
			return nil, fmt.Errorf("core: re-profiling after task-size transform: %w", err)
		}
		for i, f := range p.Fns {
			cfgs[i] = analyzeCFG(f)
		}
	}
	p.Layout()

	// Dataflow facts feed the data-dependence heuristic and, for every
	// heuristic, the dead-register filtering of create masks.
	facts := make([]*dataflow.Facts, len(cfgs))
	for i, g := range cfgs {
		facts[i] = analyzeFlow(g)
	}
	return &Prepared{
		Prog: p, opts: opts, profile: profile,
		cfgs: cfgs, facts: facts, writes: fnWriteSummaries(p),
	}, nil
}

// Select partitions the prepared program under opts: call inclusion
// (CALL_THRESH), task growth under the heuristic or policy, and register
// communication. It reads p and writes none of it. opts must prepare as the
// options p was prepared under did (PrepareOptions); otherwise Select
// returns an error.
func (p *Prepared) Select(opts Options) (*Partition, error) {
	opts = opts.withDefaults()
	if got := PrepareOptions(opts); got != p.opts {
		return nil, fmt.Errorf("core: options prepare with %s, the program was prepared with %s",
			prepareString(got), prepareString(p.opts))
	}
	sel := newSelector(p, opts)
	if opts.Policy != "" {
		pol, err := NewPolicy(opts.Policy, PolicyConfig{SizeBudget: opts.SizeBudget, CommBudget: opts.CommBudget})
		if err != nil {
			return nil, err
		}
		sel.policy = pol
	}
	sel.run()
	computeRegComm(sel.part, p.facts, p.writes, sel.incl)
	return sel.part, nil
}

// prepareString renders a PrepareOptions projection.
func prepareString(o Options) string {
	return fmt.Sprintf("TaskSize=%t LoopThresh=%d ProfileBudget=%d", o.TaskSize, o.LoopThresh, o.ProfileBudget)
}

func profileProgram(p *ir.Program, budget uint64) (*emu.Profile, error) {
	m := emu.New(p)
	prof := m.EnableProfile()
	if err := m.Run(budget); err != nil {
		return nil, err
	}
	return prof, nil
}

// selector carries the state of one partitioning run. Every per-block table
// is dense, indexed by block ID within one function.
type selector struct {
	part    *Partition
	opts    Options
	profile *emu.Profile

	// incl[fn][b] marks call blocks whose callee is included in the task.
	incl [][]bool

	// policy, when non-nil, replaces heuristic growth (see policy.go).
	policy Policy

	// cfgs and facts are the Prepared's analyses, shared and read-only.
	cfgs  []*cfganal.CFG
	facts []*dataflow.Facts
	// flows[fn][b] is block b's way out of itself as growth sees it.
	flows [][]flow

	// set is the block set being grown or inspected, sized for the largest
	// function; queue is grow's work list and policyFrontier's candidates.
	set   blockSet
	queue []ir.BlockID
	// cover and queued are coverFunction's work list and its marks.
	cover  []ir.BlockID
	queued []bool
	// frontier is policyFrontier's result, reused across calls.
	frontier []PolicyCandidate
	// targetBuf and edgeBuf collect a task's target list and continue
	// edges before they are copied out at their final size.
	targetBuf []Target
	edgeBuf   []edge
	// blockMark and fnMark hold the stamp of the last target list or
	// frontier that saw a block or callee; a fresh stamp empties both.
	blockMark []uint32
	fnMark    []uint32
	stamp     uint32
}

// newSelector readies a selection of p's program under opts, which must
// have defaults applied: the partition with its empty entry table, call
// inclusion, each block's way out and the working sets.
func newSelector(p *Prepared, opts Options) *selector {
	prog := p.Prog
	s := &selector{
		part: &Partition{
			Prog:      prog,
			Heuristic: opts.Heuristic,
			Opts:      opts,
			ByEntry:   perBlock[*Task](prog),
		},
		opts: opts, profile: p.profile, cfgs: p.cfgs, facts: p.facts,
	}
	s.markInclusions()
	s.flows = perBlock[flow](prog)
	maxBlocks := 0
	for i, f := range prog.Fns {
		s.flowsOf(ir.FnID(i), s.flows[i])
		maxBlocks = max(maxBlocks, len(f.Blocks))
	}
	s.set = blockSet{
		in:       make([]bool, maxBlocks),
		refs:     make([]int32, maxBlocks),
		termRefs: make([]int32, maxBlocks),
		calls:    make([]int32, len(prog.Fns)),
	}
	s.queued = make([]bool, maxBlocks)
	s.blockMark = make([]uint32, maxBlocks)
	s.fnMark = make([]uint32, len(prog.Fns))
	return s
}

// perBlock returns one zeroed slot per block of p, as one table per
// function over a single backing array.
func perBlock[T any](p *ir.Program) [][]T {
	n := 0
	for _, f := range p.Fns {
		n += len(f.Blocks)
	}
	all := make([]T, n)
	out := make([][]T, len(p.Fns))
	for i, f := range p.Fns {
		out[i], all = all[:len(f.Blocks):len(f.Blocks)], all[len(f.Blocks):]
	}
	return out
}

// flow is how control leaves one block as task growth sees it. A block that
// continues within its function's instruction stream has n successors there
// (for an included call, the fall block after the callee runs inside the
// task), each with whether its edge is terminal. A terminal node — a call
// whose callee is not included, a return, a halt — has none, and exit is the
// target every task ending there exposes.
type flow struct {
	succ [2]ir.BlockID
	term [2]bool // the edge to succ[i] is a terminal edge
	n    int     // successors in use; 0 for a terminal node
	exit Target  // a terminal node's target
}

// blockSet is a set of one function's blocks grown into a task entered at
// entry: dense membership plus the members in insertion order, so the set at
// any earlier size is a prefix. It keeps the number of distinct targets the
// set exposes as members come and go, so feasibility is a comparison.
//
// A block b is a target when some member edge to it ends the task: b is not
// a member, or b is the entry, or the edge is terminal. So the set counts,
// per block, the member edges to it (refs) and the terminal ones among them
// (termRefs), and, per callee and for return and halt, the terminal-node
// members exposing it. A target appears when its count leaves zero (or a
// member edge becomes ending) and disappears when the last one goes.
type blockSet struct {
	in    []bool
	order []ir.BlockID

	flows []flow // the function's ways out
	entry ir.BlockID

	refs, termRefs []int32
	calls          []int32 // per callee
	rets, halts    int32
	// targets is the number of distinct targets the set exposes.
	targets int
}

// fill makes the set hold exactly blocks, as a set of the function with the
// given ways out entered at entry.
func (bs *blockSet) fill(flows []flow, entry ir.BlockID, blocks []ir.BlockID) {
	bs.reset()
	bs.flows, bs.entry = flows, entry
	for _, b := range blocks {
		bs.add(b)
	}
}

// reset empties the set and zeroes every count its members raised.
func (bs *blockSet) reset() {
	for _, b := range bs.order {
		bs.in[b] = false
		fl := &bs.flows[b]
		for _, s := range fl.succ[:fl.n] {
			bs.refs[s], bs.termRefs[s] = 0, 0
		}
		if fl.n == 0 && fl.exit.Kind == TargetCall {
			bs.calls[fl.exit.Fn] = 0
		}
	}
	bs.order = bs.order[:0]
	bs.rets, bs.halts, bs.targets = 0, 0, 0
}

// add adds block b, which must not be a member.
func (bs *blockSet) add(b ir.BlockID) {
	fl := &bs.flows[b]
	bs.targets -= bs.blockTargets(b, fl)
	bs.in[b] = true
	bs.order = append(bs.order, b)
	bs.count(fl, 1)
	bs.targets += bs.blockTargets(b, fl)
}

// pop removes the member added last.
func (bs *blockSet) pop() {
	b := bs.order[len(bs.order)-1]
	fl := &bs.flows[b]
	bs.targets -= bs.blockTargets(b, fl)
	bs.in[b] = false
	bs.order = bs.order[:len(bs.order)-1]
	bs.count(fl, -1)
	bs.targets += bs.blockTargets(b, fl)
}

// blockTargets counts the targets among b and b's successors, the blocks
// whose status adding or removing b can change.
func (bs *blockSet) blockTargets(b ir.BlockID, fl *flow) int {
	n := bs.isTarget(b)
	for _, s := range fl.succ[:fl.n] {
		if s != b {
			n += bs.isTarget(s)
		}
	}
	return n
}

func (bs *blockSet) isTarget(b ir.BlockID) int {
	if bs.refs[b] > 0 && (!bs.in[b] || b == bs.entry || bs.termRefs[b] > 0) {
		return 1
	}
	return 0
}

// count adds d (1 or -1) to the counts raised by a member with way out fl.
// A terminal node's exit target is counted here; block targets are
// recounted by the caller.
func (bs *blockSet) count(fl *flow, d int32) {
	if fl.n > 0 {
		for k, s := range fl.succ[:fl.n] {
			bs.refs[s] += d
			if fl.term[k] {
				bs.termRefs[s] += d
			}
		}
		return
	}
	c := &bs.halts
	switch fl.exit.Kind {
	case TargetCall:
		c = &bs.calls[fl.exit.Fn]
	case TargetReturn:
		c = &bs.rets
	}
	switch *c += d; {
	case d > 0 && *c == 1: // the first member exposing the target
		bs.targets++
	case d < 0 && *c == 0: // the last one gone
		bs.targets--
	}
}

func (s *selector) prog() *ir.Program { return s.part.Prog }

// markInclusions decides, per call site, whether the callee executes inside
// the caller's task (CALL_THRESH). Only meaningful when the task-size
// heuristic is on; otherwise every call terminates its task, as in the
// paper's control-flow-only configurations.
func (s *selector) markInclusions() {
	s.incl = perBlock[bool](s.prog())
	s.part.FnIncluded = make([]bool, len(s.prog().Fns))
	if !s.opts.TaskSize {
		return
	}
	include := make([]bool, len(s.prog().Fns))
	for i, f := range s.prog().Fns {
		if ir.FnID(i) == s.prog().Main {
			continue
		}
		avg := s.profile.AvgInclInstrs(f.ID)
		if avg == 0 {
			// Never invoked during profiling: fall back to the static size.
			include[i] = f.NumInstrs() < s.opts.CallThresh
			continue
		}
		include[i] = avg < float64(s.opts.CallThresh)
	}
	for _, f := range s.prog().Fns {
		for _, b := range f.Blocks {
			if b.Term.Kind == ir.TermCall && include[b.Term.Callee] && b.Term.Callee != f.ID {
				s.incl[f.ID][b.ID] = true
			}
		}
	}
	// A function is fully included when every call site includes it (its
	// entry then never starts a task).
	calledBare := make([]bool, len(s.prog().Fns))
	for _, f := range s.prog().Fns {
		for _, b := range f.Blocks {
			if b.Term.Kind == ir.TermCall && !s.incl[f.ID][b.ID] {
				calledBare[b.Term.Callee] = true
			}
		}
	}
	for i := range include {
		s.part.FnIncluded[i] = include[i] && !calledBare[i]
	}
}

// run drives selection over every function.
func (s *selector) run() {
	for i := range s.prog().Fns {
		fn := ir.FnID(i)
		if s.part.FnIncluded[i] {
			continue // never starts a task
		}
		if s.policy != nil {
			// A policy replaces heuristic growth wholesale: seeds come from
			// the same coverage worklist the control-flow heuristic uses,
			// growth decisions from the policy (via claim).
			s.coverFunction(fn)
			continue
		}
		switch s.opts.Heuristic {
		case BasicBlock:
			s.basicBlockTasks(fn)
		case ControlFlow:
			s.coverFunction(fn)
		case DataDependence:
			s.dataDependenceTasks(fn)
		}
	}
	s.finishTasks()
}

// flowsOf tabulates into flows each block's way out. A terminal node (the
// paper's is_a_terminal_node) never grows past itself; terminal edges (the
// paper's is_a_terminal_edge plus the loop entry/exit rules of the
// task-size discussion) end any task they leave. For an included call,
// execution resumes at the fall block after the callee runs inside the task.
func (s *selector) flowsOf(fn ir.FnID, flows []flow) {
	f := s.prog().Fn(fn)
	for i, blk := range f.Blocks {
		fl := &flows[i]
		switch blk.Term.Kind {
		case ir.TermCall:
			if !s.incl[fn][i] {
				fl.exit = Target{Kind: TargetCall, Fn: blk.Term.Callee}
				continue
			}
			fl.succ[0], fl.n = blk.Term.Fall, 1
		case ir.TermRet:
			fl.exit = Target{Kind: TargetReturn}
			continue
		case ir.TermHalt:
			fl.exit = Target{Kind: TargetHalt}
			continue
		case ir.TermGoto:
			fl.succ[0], fl.n = blk.Term.Taken, 1
		case ir.TermBr:
			fl.succ, fl.n = [2]ir.BlockID{blk.Term.Taken, blk.Term.Fall}, 2
			if blk.Term.Taken == blk.Term.Fall {
				fl.n = 1
			}
		}
		for k := 0; k < fl.n; k++ {
			fl.term[k] = s.cfgs[fn].IsTerminalEdge(ir.BlockID(i), fl.succ[k])
		}
	}
}

// newTask registers a task over blocks with the partition. The entry must be
// unowned.
func (s *selector) newTask(fn ir.FnID, entry ir.BlockID, blocks []ir.BlockID) *Task {
	if s.part.ByEntry[fn][entry] != nil {
		panic(fmt.Sprintf("core: duplicate task entry %v", EntryKey{Fn: fn, Blk: entry}))
	}
	t := &Task{ID: len(s.part.Tasks), Fn: fn, Entry: entry, Blocks: sortedCopy(blocks)}
	s.part.Tasks = append(s.part.Tasks, t)
	s.part.ByEntry[fn][entry] = t
	return t
}

// exactCopy returns a copy of xs whose length and capacity are len(xs), or
// nil when xs is empty.
func exactCopy[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	out := make([]T, len(xs))
	copy(out, xs)
	return out
}

// sortedCopy returns an exact copy of blocks in ascending order.
func sortedCopy(blocks []ir.BlockID) []ir.BlockID {
	out := exactCopy(blocks)
	slices.Sort(out)
	return out
}

// basicBlockTasks makes every reachable block its own task.
func (s *selector) basicBlockTasks(fn ir.FnID) {
	g := s.cfgs[fn]
	for i := range s.prog().Fn(fn).Blocks {
		b := ir.BlockID(i)
		if g.DFSNum[b] < 0 {
			continue // unreachable
		}
		s.newTask(fn, b, []ir.BlockID{b})
	}
}

// countTargets counts the distinct successors of s.set from scratch,
// following the dynamic semantics in segment.go exactly, and appends each to
// *list, unsorted. It builds target lists and is the reference the set's
// own count is tested against.
func (s *selector) countTargets(list *[]Target) int {
	S := &s.set
	s.stamp++
	n := 0
	var ret, halt bool
	for _, b := range S.order {
		fl := &S.flows[b]
		if fl.n == 0 {
			switch fl.exit.Kind {
			case TargetCall:
				if s.fnMark[fl.exit.Fn] == s.stamp {
					continue
				}
				s.fnMark[fl.exit.Fn] = s.stamp
			case TargetReturn:
				if ret {
					continue
				}
				ret = true
			case TargetHalt:
				if halt {
					continue
				}
				halt = true
			}
			n++
			*list = append(*list, fl.exit)
			continue
		}
		for k, succ := range fl.succ[:fl.n] {
			if S.in[succ] && succ != S.entry && !fl.term[k] {
				continue // control stays inside the task
			}
			if s.blockMark[succ] == s.stamp {
				continue
			}
			s.blockMark[succ] = s.stamp
			n++
			*list = append(*list, Target{Kind: TargetBlock, Blk: succ})
		}
	}
	return n
}

// targetList returns the distinct targets of s.set, sorted, in a slice of
// their number.
func (s *selector) targetList() []Target {
	list := s.targetBuf[:0]
	s.countTargets(&list)
	sortTargets(list)
	s.targetBuf = list
	return exactCopy(list)
}

// claim returns the task entered at block b of fn, growing one from b when
// there is none: under the policy when one is set, by the paper's greedy
// exploration otherwise. Every seeded growth goes through here, so a policy
// governs straggler and callee-entry tasks too, not just the main coverage
// pass.
func (s *selector) claim(fn ir.FnID, b ir.BlockID) *Task {
	if t := s.part.ByEntry[fn][b]; t != nil {
		return t
	}
	if s.policy != nil {
		return s.newTask(fn, b, s.policyGrow(fn, b))
	}
	return s.newTask(fn, b, s.grow(fn, b, []ir.BlockID{b}, nil))
}

// grow implements the greedy feasible-task exploration shared by the
// control-flow and data-dependence heuristics. Starting from the seed blocks
// (already feasible), it explores outward along non-terminal edges. explore,
// when non-nil, restricts which included blocks are explored *further* (the
// data-dependence heuristic explores only the codependent set, but — per the
// paper's dependence_task pseudo-code — still includes non-codependent
// children in the feasible task when the target count allows, so
// reconverging paths keep helping). Exploration continues past the target
// limit, greedily looking for reconverging paths; the largest set whose
// target count stays within MaxTargets is returned. The set only ever grows,
// so that largest set is the one at the last feasible step: a prefix of the
// insertion order, which starts with the seed. The result aliases s.set
// until its next use.
func (s *selector) grow(fn ir.FnID, entry ir.BlockID, seed []ir.BlockID, explore []bool) []ir.BlockID {
	const exploreCap = 512
	S := &s.set
	S.fill(s.flows[fn], entry, seed)
	queue := append(s.queue[:0], seed...)
	// Even the seed may exceed the limit (not a single block, which has at
	// most two successors, but possibly a multi-block seed); then it is
	// returned as it is.
	best := len(S.order)
	for head := 0; head < len(queue) && len(S.order) < exploreCap; head++ {
		fl := &s.flows[fn][queue[head]]
		for k, ch := range fl.succ[:fl.n] {
			if fl.term[k] || ch == entry || S.in[ch] {
				continue
			}
			if s.part.ByEntry[fn][ch] != nil {
				// ch already starts another task; keep its boundary.
				continue
			}
			S.add(ch)
			feasible := S.targets <= s.opts.MaxTargets
			if !feasible && s.opts.NoGreedy {
				// First-fit: never explore past the target limit.
				S.pop()
				continue
			}
			if explore == nil || explore[ch] {
				queue = append(queue, ch)
			}
			if feasible {
				best = len(S.order)
			}
		}
	}
	s.queue = queue
	return S.order[:best]
}

// coverFunction grows tasks from the function entry and from every exposed
// target until all reachable blocks are covered; blocks that already start
// a task (the data-dependence pass's) keep it.
func (s *selector) coverFunction(fn ir.FnID) {
	g := s.cfgs[fn]
	f := s.prog().Fn(fn)
	queued := s.queued[:len(f.Blocks)]
	clear(queued)
	queue := append(s.cover[:0], f.Entry)
	queued[f.Entry] = true
	for head := 0; head < len(queue); head++ {
		seed := queue[head]
		if g.DFSNum[seed] < 0 {
			continue
		}
		// A task's members are final once this pass claims it, so its
		// target list is built once, here or in finishTasks.
		t := s.claim(fn, seed)
		if t.Targets == nil {
			s.set.fill(s.flows[fn], t.Entry, t.Blocks)
			t.Targets = s.targetList()
		}
		for _, tgt := range t.Targets {
			if tgt.Kind == TargetBlock && !queued[tgt.Blk] {
				queued[tgt.Blk] = true
				queue = append(queue, tgt.Blk)
			}
		}
		// The resume point after a non-included call must start a task too.
		// Ascending order: the BFS visit order decides which task claims a
		// contested block.
		for _, b := range t.Blocks {
			blk := f.Block(b)
			if blk.Term.Kind == ir.TermCall && !s.incl[fn][b] && !queued[blk.Term.Fall] {
				queued[blk.Term.Fall] = true
				queue = append(queue, blk.Term.Fall)
			}
		}
	}
	s.cover = queue
}

// dataDependenceTasks implements the paper's dependence-driven selection:
// def-use edges are prioritized by profiled frequency; for each edge the
// producer's tasks are expanded along the codependent set (or a new task is
// started at the producer); remaining blocks are covered with the
// control-flow heuristic.
func (s *selector) dataDependenceTasks(fn ir.FnID) {
	facts := s.facts[fn]
	g := s.cfgs[fn]
	edges := slices.Clone(facts.Edges)
	for i := range edges {
		d := s.profile.Freq(fn, edges[i].Def)
		u := s.profile.Freq(fn, edges[i].Use)
		if u < d {
			edges[i].Freq = u
		} else {
			edges[i].Freq = d
		}
	}
	slices.SortStableFunc(edges, func(a, b dataflow.DefUseEdge) int { return cmp.Compare(b.Freq, a.Freq) })

	owner := make([][]*Task, len(g.Succs)) // including-tasks per block
	for _, e := range edges {
		if e.Freq == 0 || g.DFSNum[e.Def] < 0 {
			continue
		}
		tasks := owner[e.Def]
		if len(tasks) == 0 {
			if s.part.ByEntry[fn][e.Def] != nil {
				// The producer block is an entry of an existing task that
				// does not contain it?? cannot happen: entry is a member.
				continue
			}
			t := s.newTask(fn, e.Def, []ir.BlockID{e.Def})
			owner[e.Def] = append(owner[e.Def], t)
			tasks = owner[e.Def]
		}
		codep := facts.Codependent(e)
		for _, t := range tasks {
			// The seed is t's members, so what growth adds follows them.
			grown := s.grow(fn, t.Entry, t.Blocks, codep)
			if len(grown) == len(t.Blocks) {
				continue
			}
			for _, b := range grown[len(t.Blocks):] {
				owner[b] = append(owner[b], t)
			}
			t.Blocks = sortedCopy(grown)
		}
	}
	// Cover everything the dependence pass did not reach.
	s.coverFunction(fn)
}

// finishTasks completes every task: its target list (when coverFunction
// did not build it), size, included calls and continue edges. It then
// ensures every exposed block target has a task of its own, growing tasks
// for any stragglers (this terminates because new tasks only claim unowned
// entries).
func (s *selector) finishTasks() {
	for i := 0; i < len(s.part.Tasks); i++ { // index loop: the slice grows
		t := s.part.Tasks[i]
		f := s.prog().Fn(t.Fn)
		incl := s.incl[t.Fn]
		flows := s.flows[t.Fn]
		s.set.fill(flows, t.Entry, t.Blocks)
		if t.Targets == nil {
			t.Targets = s.targetList()
		}
		// The included calls and continue edges are collected in the
		// selector's buffers and copied out at their final size.
		calls := s.queue[:0]
		edges := s.edgeBuf[:0]
		for _, b := range t.Blocks {
			t.StaticInstrs += f.Block(b).Len()
			if incl[b] {
				calls = append(calls, b)
			}
			fl := &flows[b]
			n := len(edges)
			for k, succ := range fl.succ[:fl.n] {
				if s.set.in[succ] && succ != t.Entry && !fl.term[k] {
					edges = append(edges, edge{from: b, to: succ})
				}
			}
			slices.SortFunc(edges[n:], compareEdges) // b's edges, by destination
		}
		t.IncludedCalls = exactCopy(calls)
		t.continues = exactCopy(edges)
		s.queue, s.edgeBuf = calls, edges
		for _, tgt := range t.Targets {
			switch tgt.Kind {
			case TargetBlock:
				s.claim(t.Fn, tgt.Blk)
			case TargetCall:
				s.claim(tgt.Fn, s.prog().Fn(tgt.Fn).Entry)
			}
		}
		// Post-call resume blocks are reached via return targets.
		for _, b := range t.Blocks {
			blk := f.Block(b)
			if blk.Term.Kind == ir.TermCall && !incl[b] {
				s.claim(t.Fn, blk.Term.Fall)
			}
		}
	}
}
