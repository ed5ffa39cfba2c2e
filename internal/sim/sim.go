package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"multiscalar/internal/core"
	"multiscalar/internal/dataflow"
	"multiscalar/internal/ir"
	"multiscalar/internal/mem"
	"multiscalar/internal/obs"
	"multiscalar/internal/predict"
)

// Config describes one simulated Multiscalar machine. DefaultConfig returns
// the paper's §4.2 parameters.
type Config struct {
	NumPUs     int
	IssueWidth int  // per-PU issue width (2)
	ROBSize    int  // reorder buffer entries (16), out-of-order only
	IssueQSize int  // issue list entries (8), out-of-order only
	InOrder    bool // in-order vs out-of-order PUs

	IntUnits    int // integer FUs per PU (2)
	FPUnits     int // floating-point FUs per PU (1)
	MemUnits    int // memory ports per PU (1)
	BranchUnits int // branch units per PU (1)

	RingBW            int // register ring values/cycle (2)
	TaskStartOverhead int // pipeline-fill cycles at task start (2)
	TaskEndOverhead   int // commit cycles at task end (2)

	HistoryBits uint // gshare and path predictor history (16)
	MaxTargets  int  // successors tracked by hardware (4)
	RASDepth    int  // sequencer return-address stack (32)

	ARBEntries int  // ARB entries per PU (32)
	SyncTable  bool // memory dependence synchronization table enabled
	L1DBanks   int  // data cache banks, 1 access/cycle each (default NumPUs)

	Mem mem.Config

	// MaxInstrs bounds the simulated dynamic instruction count.
	MaxInstrs uint64
}

// DefaultConfig returns the paper's machine for the given PU count.
func DefaultConfig(numPUs int) Config {
	return Config{
		NumPUs:            numPUs,
		IssueWidth:        2,
		ROBSize:           16,
		IssueQSize:        8,
		IntUnits:          2,
		FPUnits:           1,
		MemUnits:          1,
		BranchUnits:       1,
		RingBW:            2,
		TaskStartOverhead: 2,
		TaskEndOverhead:   2,
		HistoryBits:       16,
		MaxTargets:        4,
		RASDepth:          32,
		ARBEntries:        32,
		SyncTable:         true,
		L1DBanks:          numPUs,
		Mem:               mem.Config{NumPUs: numPUs},
		MaxInstrs:         200_000_000,
	}
}

// Breakdown attributes PU time to the paper's §2.3 categories (cycles,
// summed across tasks).
type Breakdown struct {
	StartOverhead int64
	InterTaskWait int64
	IntraTaskWait int64
	LoadImbalance int64
	EndOverhead   int64
	CtrlPenalty   int64
	MemPenalty    int64
}

// Result is the outcome of one simulation.
type Result struct {
	Cycles        int64
	Instrs        uint64
	TaskInstances uint64
	IPC           float64

	AvgTaskSize float64 // dynamic instructions per task (Table 1 "#dyn inst")
	AvgCTInstrs float64 // control transfers per task (Table 1 "#ct inst")

	TaskPredAccuracy float64 // inter-task prediction accuracy (Table 1)
	BrPredAccuracy   float64 // intra-task gshare accuracy
	WindowSpan       float64 // Σ_{i<N} TaskSize·Pred^i (Table 1 "win span")

	CtrlMispredicts uint64
	Violations      uint64
	Restarts        uint64
	SyncWaits       uint64
	ARBOverflows    uint64
	RASMispredicts  uint64

	Breakdown Breakdown

	// FinalChecksum and FinalRegs capture architectural state for the
	// emulator oracle.
	FinalChecksum uint64
	FinalRegs     [ir.NumRegs]uint64

	// Cache statistics.
	L1IMissRate, L1DMissRate, L2MissRate float64
}

// forwardRec records the latest creator of an architectural register.
type forwardRec struct {
	task int
	time int64
}

// simulator is one simulated machine. It outlives its runs: RunObserved
// takes an idle one, resets it to the run's Config and program, and puts it
// back when the run ends (DESIGN.md §6.8).
type simulator struct {
	cfg  Config
	part *core.Partition
	m    machine

	hier mem.Hierarchy
	arb  mem.ARB
	sync mem.SyncTable
	tp   predict.PathPredictor
	gsh  predict.Gshare
	ras  predict.RAS

	puFree     []int64 // retire time of the task N back, per PU slot
	lastRetire int64   // retire time of the most recently retired task
	regFwd     [ir.NumRegs]forwardRec
	banks      bankSched

	// Per-attempt timing scratch: the PU's functional units, the ring's
	// sends per cycle, and the rolling ROB and issue-list windows (a window
	// slot is read only after the attempt in progress wrote it, so the
	// windows need no clearing).
	fus       fuPool
	ring      []ringSlot
	retireWin []int64
	issueWin  []int64
	// regReady and fwdTime hold, per register, its ready cycle and its ring
	// send cycle in the attempt in progress. An attempt reads them only for
	// registers it wrote or sent, so they need no reset either.
	regReady [ir.NumRegs]int64
	fwdTime  [ir.NumRegs]int64

	// tracer is the one instrumentation hook (nil on unobserved runs; every
	// emission is guarded so tracing costs nothing when detached and never
	// perturbs timing when attached).
	tracer obs.Tracer

	res Result
}

// reset readies s to run part on cfg with tracer t. Every structure returns
// to the state a new machine for cfg starts in: caches, predictors, the ARB
// and the sync table through their own Resets, the rest here. Arrays keep
// their capacity, and a cache clears only the ways its last run filled, so
// a reset costs what the last run touched (DESIGN.md §6.8). The per-attempt
// scratch is left alone: each attempt sets it up before reading it.
func (s *simulator) reset(part *core.Partition, cfg Config, t obs.Tracer) {
	s.cfg, s.part, s.tracer = cfg, part, t
	s.m.reset(part.Prog)
	s.hier.Reset(cfg.Mem)
	s.arb.Reset(cfg.ARBEntries)
	s.sync.Reset(256)
	s.tp.Reset(cfg.HistoryBits, cfg.MaxTargets)
	s.gsh.Reset(cfg.HistoryBits)
	s.ras.Reset(cfg.RASDepth)
	s.puFree = cleared(s.puFree, cfg.NumPUs)
	s.lastRetire = 0
	for i := range s.regFwd {
		s.regFwd[i] = forwardRec{task: -1}
	}
	s.banks.reset(cfg.L1DBanks)
	s.fus.shape(cfg)
	s.retireWin = cleared(s.retireWin, cfg.ROBSize)
	s.issueWin = cleared(s.issueWin, cfg.IssueQSize)
	s.res = Result{}
}

// cleared returns s resized to n zero elements, reusing its array when it
// is large enough.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// idle holds the machines no run is using. It holds them with strong
// references: a sync.Pool frees what it holds within two collections, and a
// small live heap collects often, so pooled machines would be rebuilt all
// the time. At most GOMAXPROCS machines stay idle, the most runs that can
// execute at once, so what the list retains does not grow with the number
// of runs.
var idle struct {
	sync.Mutex
	machines []*simulator
}

// takeMachine returns an idle machine, or a new one when none is idle.
func takeMachine() *simulator {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.machines)
	if n == 0 {
		return new(simulator)
	}
	s := idle.machines[n-1]
	idle.machines[n-1] = nil
	idle.machines = idle.machines[:n-1]
	return s
}

// putMachine drops s's references to its last run, so an idle machine keeps
// no partition, program, task or tracer alive, and makes it idle unless
// enough machines already are.
func putMachine(s *simulator) {
	s.part, s.tracer, s.m.prog, s.m.tr.task = nil, nil, nil, nil
	idle.Lock()
	defer idle.Unlock()
	if len(idle.machines) < runtime.GOMAXPROCS(0) {
		idle.machines = append(idle.machines, s)
	}
}

// maxHistoryBits bounds HistoryBits: the gshare and path predictor tables
// hold 1<<HistoryBits entries each, indexed through uint32 masks. The
// paper's machine uses 16.
const maxHistoryBits = 24

// validate rejects a machine the timing pass cannot run or would run as a
// different one. A zero functional unit count, a zero out-of-order window or
// an empty return-address stack would otherwise panic inside the run; a zero
// issue width or ring bandwidth would silently run as one, no hardware
// targets would predict every task to its first target, a negative bank
// count would run as one bank, negative overheads would shorten tasks, a
// negative ARB size would overflow on every access, and a huge HistoryBits
// would ask for predictor tables no host can allocate. Fields where 0
// selects a default (L1DBanks, ARBEntries and the Mem sizes) may be 0. A
// dist worker runs whatever Config it pulls off the wire, so every field is
// checked here.
func (cfg Config) validate() error {
	for _, f := range []struct {
		name string
		v    int
		used bool
	}{
		{"NumPUs", cfg.NumPUs, true},
		{"IssueWidth", cfg.IssueWidth, true},
		{"IntUnits", cfg.IntUnits, true},
		{"FPUnits", cfg.FPUnits, true},
		{"MemUnits", cfg.MemUnits, true},
		{"BranchUnits", cfg.BranchUnits, true},
		{"ROBSize", cfg.ROBSize, !cfg.InOrder},
		{"IssueQSize", cfg.IssueQSize, !cfg.InOrder},
		{"RingBW", cfg.RingBW, true},
		{"MaxTargets", cfg.MaxTargets, true},
		{"RASDepth", cfg.RASDepth, true},
	} {
		if f.used && f.v < 1 {
			return fmt.Errorf("sim: %s must be positive, got %d", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"TaskStartOverhead", cfg.TaskStartOverhead},
		{"TaskEndOverhead", cfg.TaskEndOverhead},
		{"ARBEntries", cfg.ARBEntries},
		{"L1DBanks", cfg.L1DBanks},
		{"Mem.NumPUs", cfg.Mem.NumPUs},
		{"Mem.L1Size", cfg.Mem.L1Size},
		{"Mem.L1Ways", cfg.Mem.L1Ways},
		{"Mem.BlockSize", cfg.Mem.BlockSize},
		{"Mem.L2Size", cfg.Mem.L2Size},
		{"Mem.L2Ways", cfg.Mem.L2Ways},
		{"Mem.L2HitLat", cfg.Mem.L2HitLat},
		{"Mem.MemLat", cfg.Mem.MemLat},
	} {
		if f.v < 0 {
			return fmt.Errorf("sim: %s must not be negative, got %d", f.name, f.v)
		}
	}
	if cfg.HistoryBits > maxHistoryBits {
		return fmt.Errorf("sim: HistoryBits must be at most %d, got %d", maxHistoryBits, cfg.HistoryBits)
	}
	return nil
}

// Run simulates the partitioned program on the configured machine. It is
// safe for concurrent use. Runs reuse simulated machines, each reset to
// equal a new one first, and the Result is the caller's own: it references
// nothing of the machine (DESIGN.md §6.8).
func Run(part *core.Partition, cfg Config) (*Result, error) {
	return RunObserved(part, cfg, nil)
}

// RunObserved simulates the partitioned program with t receiving every
// cycle-stamped event (see obs.Kind for the taxonomy). Metrics and the task
// timeline are Tracers over the same stream (NewMetrics, NewTimeline); attach
// several with obs.Tee. A nil t makes RunObserved identical to Run.
//
// The instrumentation contract is zero overhead and zero perturbation: every
// emission site is guarded by a nil check and no timing decision reads tracer
// state, so an observed run produces a Result identical to an unobserved one
// (asserted by TestRunObservedMatchesRun).
func RunObserved(part *core.Partition, cfg Config, t obs.Tracer) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := takeMachine()
	res, err := s.simulate(part, cfg, t)
	putMachine(s)
	return res, err
}

// simulate resets s for one run and runs it. The Result is a copy, so it
// references nothing of s.
func (s *simulator) simulate(part *core.Partition, cfg Config, t obs.Tracer) (*Result, error) {
	if cfg.Mem.NumPUs == 0 {
		cfg.Mem.NumPUs = cfg.NumPUs
	}
	if cfg.L1DBanks == 0 {
		cfg.L1DBanks = cfg.NumPUs
	}
	s.reset(part, cfg, t)
	if err := s.run(); err != nil {
		return nil, err
	}
	res := s.res
	return &res, nil
}

func (s *simulator) run() error {
	cur := s.part.EntryTask()
	if cur == nil {
		return fmt.Errorf("sim: partition has no entry task")
	}
	var (
		seq       int
		assign    int64
		totalCT   uint64
		lastRetir int64
	)
	for {
		tr, err := s.m.runTask(s.part, cur, s.cfg.MaxInstrs)
		if err != nil {
			return err
		}
		markForwards(tr)
		entryAddr := s.part.Prog.Fn(cur.Fn).Block(cur.Entry).Addr

		// Task descriptor fetch through the task cache.
		start := assign + int64(s.hier.TaskFetch(entryAddr)-1)

		pu := seq % s.cfg.NumPUs
		if s.tracer != nil {
			s.tracer.Emit(obs.Event{Kind: obs.EvTaskAssign, Cycle: assign, PU: pu, Seq: seq, Task: cur.ID})
			s.tracer.Emit(obs.Event{Kind: obs.EvTaskStart, Cycle: start, PU: pu, Seq: seq, Task: cur.ID, Arg: int64(tr.exitIdx)})
		}
		interWaitBefore := s.res.Breakdown.InterTaskWait

		complete := s.timeTask(tr, seq, start)

		retire := complete
		if lastRetir > retire {
			s.res.Breakdown.LoadImbalance += lastRetir - retire
			retire = lastRetir
		}
		retire += int64(s.cfg.TaskEndOverhead)
		s.res.Breakdown.EndOverhead += int64(s.cfg.TaskEndOverhead)
		s.res.Breakdown.StartOverhead += int64(s.cfg.TaskStartOverhead)
		lastRetir = retire
		s.lastRetire = retire
		s.puFree[pu] = retire
		if s.tracer != nil {
			s.tracer.Emit(obs.Event{Kind: obs.EvTaskComplete, Cycle: complete, PU: pu, Seq: seq, Task: cur.ID, Arg: s.res.Breakdown.InterTaskWait - interWaitBefore})
			s.tracer.Emit(obs.Event{Kind: obs.EvTaskRetire, Cycle: retire, PU: pu, Seq: seq, Task: cur.ID, Arg: int64(len(tr.ops))})
		}
		s.arb.Retire(seq - 2*s.cfg.NumPUs) // state older than any in-flight window
		if seq%64 == 0 {
			// No future access can be scheduled before the current assign
			// cycle; prune old bank reservations to bound memory.
			s.banks.prune(assign)
		}

		s.res.TaskInstances++
		s.res.Instrs += uint64(len(tr.ops))
		totalCT += uint64(tr.ctInstrs)

		if tr.done {
			s.res.Cycles = retire
			break
		}

		// Inter-task prediction: resolve the exit of the task just timed.
		predIdx := s.tp.Predict(entryAddr)
		correct := s.tp.Resolve(entryAddr, predIdx, tr.exitIdx)
		next := s.part.TaskAt(tr.next.Fn, tr.next.Blk)
		if next == nil {
			return fmt.Errorf("sim: task %d exited to %v with no successor task", cur.ID, tr.next)
		}
		nextAddr := s.part.Prog.Fn(next.Fn).Block(next.Entry).Addr
		switch tr.exit.Kind {
		case core.TargetCall:
			s.ras.Push(encodeEntry(tr.retResume))
		case core.TargetReturn:
			if top, ok := s.ras.Pop(); !ok || top != encodeEntry(tr.next) {
				s.res.RASMispredicts++
				correct = false
			}
		}
		s.tp.Speculate(nextAddr)

		// Sequence the successor: one assignment per cycle, PU must be free,
		// and a misprediction stalls it to the resolving task's completion.
		nextAssign := assign + 1
		if free := s.puFree[(seq+1)%s.cfg.NumPUs]; free > nextAssign {
			nextAssign = free
		}
		if !correct {
			s.res.CtrlMispredicts++
			if s.tracer != nil {
				s.tracer.Emit(obs.Event{Kind: obs.EvMispredict, Cycle: complete, PU: pu, Seq: seq, Task: cur.ID})
			}
			if complete+1 > nextAssign {
				s.res.Breakdown.CtrlPenalty += complete + 1 - nextAssign
				nextAssign = complete + 1
			}
		}
		assign = nextAssign
		seq++
		cur = next
	}

	// Finalize metrics.
	if s.res.TaskInstances > 0 {
		s.res.AvgTaskSize = float64(s.res.Instrs) / float64(s.res.TaskInstances)
		s.res.AvgCTInstrs = float64(totalCT) / float64(s.res.TaskInstances)
	}
	if s.res.Cycles > 0 {
		s.res.IPC = float64(s.res.Instrs) / float64(s.res.Cycles)
	}
	s.res.TaskPredAccuracy = s.tp.Accuracy()
	if s.gsh.Lookups > 0 {
		s.res.BrPredAccuracy = 1 - float64(s.gsh.Mispredicts)/float64(s.gsh.Lookups)
	} else {
		s.res.BrPredAccuracy = 1
	}
	span, term := 0.0, s.res.AvgTaskSize
	for i := 0; i < s.cfg.NumPUs; i++ {
		span += term
		term *= s.res.TaskPredAccuracy
	}
	s.res.WindowSpan = span
	s.res.Violations = s.arb.Violations
	s.res.ARBOverflows = s.arb.Overflows
	s.res.FinalChecksum = s.m.mem.Checksum()
	s.res.FinalRegs = s.m.regs
	s.res.L1IMissRate = s.hier.L1I.MissRate()
	s.res.L1DMissRate = s.hier.L1D.MissRate()
	s.res.L2MissRate = s.hier.L2.MissRate()
	return nil
}

func encodeEntry(k core.EntryKey) uint64 {
	return uint64(k.Fn)<<32 | uint64(uint32(k.Blk))
}

// timeTask runs the timing model over a task trace, handling memory
// dependence violations by restarting the attempt at the violating store's
// cycle (squash + re-execute), and returns the completion cycle.
func (s *simulator) timeTask(tr *taskTrace, seq int, start int64) int64 {
	restarts := 0
	for {
		complete, viol, squashed := s.timeAttempt(tr, seq, start)
		if !squashed {
			return complete
		}
		if s.tracer != nil {
			pu := seq % s.cfg.NumPUs
			s.tracer.Emit(obs.Event{Kind: obs.EvSquash, Cycle: viol.time, PU: pu, Seq: seq, Task: tr.task.ID, Arg: int64(restarts)})
			s.tracer.Emit(obs.Event{Kind: obs.EvRestart, Cycle: viol.time + 1, PU: pu, Seq: seq, Task: tr.task.ID, Arg: int64(restarts)})
		}
		restarts++
		s.arb.NoteViolation()
		s.res.Restarts++
		s.res.Breakdown.MemPenalty += viol.time - start
		if s.cfg.SyncTable {
			s.sync.Insert(viol.pc)
		}
		s.arb.SquashTask(seq)
		start = viol.time + 1
	}
}

type violation struct {
	time int64
	pc   uint64
}

// fuPool models the per-PU functional units: schedule returns the issue
// cycle for an op of the given class not earlier than t. Each class's units
// are a slice of free, which holds every unit's next free cycle.
type fuPool struct {
	free    []int64
	intFree []int64
	fpFree  []int64
	memFree []int64
	brFree  []int64
}

// shape gives the pool cfg's unit counts, once per run.
func (f *fuPool) shape(cfg Config) {
	fp := cfg.IntUnits
	mem := fp + cfg.FPUnits
	br := mem + cfg.MemUnits
	f.free = cleared(f.free, br+cfg.BranchUnits)
	f.intFree, f.fpFree, f.memFree, f.brFree = f.free[:fp], f.free[fp:mem], f.free[mem:br], f.free[br:]
}

// reset frees every unit for a new timing attempt.
func (f *fuPool) reset() { clear(f.free) }

// schedule returns the issue cycle for an op of the given class not earlier
// than t. All units are fully pipelined (one issue slot per cycle); long
// operations like divides run on iterative side logic without blocking the
// unit's issue slot, as on contemporary cores.
func (f *fuPool) schedule(class ir.Class, t int64) int64 {
	var units []int64
	switch class {
	case ir.ClassIntALU, ir.ClassIntMul, ir.ClassIntDiv:
		units = f.intFree
	case ir.ClassFPAdd, ir.ClassFPMul, ir.ClassFPDiv:
		units = f.fpFree
	case ir.ClassMem:
		units = f.memFree
	case ir.ClassBranch:
		units = f.brFree
	}
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	issue := t
	if units[best] > issue {
		issue = units[best]
	}
	units[best] = issue + 1
	return issue
}

// ringSlot counts the register values an attempt sends on the ring in one
// cycle.
type ringSlot struct {
	cycle int64
	sent  int
}

// sendOnRing returns the first cycle >= t with ring bandwidth left in this
// attempt, and claims a send in it. An attempt sends at most one value per
// created register, so a linear scan is enough.
func (s *simulator) sendOnRing(t int64) int64 {
	for {
		i := slices.IndexFunc(s.ring, func(r ringSlot) bool { return r.cycle == t })
		switch {
		case i < 0:
			s.ring = append(s.ring, ringSlot{cycle: t, sent: 1})
			return t
		case s.ring[i].sent < s.cfg.RingBW:
			s.ring[i].sent++
			return t
		}
		t++
	}
}

// timeAttempt is one timing pass over the trace. It returns the completion
// cycle, or squashed and the first memory dependence violation encountered.
func (s *simulator) timeAttempt(tr *taskTrace, seq int, start int64) (complete int64, viol violation, squashed bool) {
	cfg := s.cfg
	task := tr.task

	// written is the set of registers this attempt wrote, with their ready
	// cycles in s.regReady; any other register arrives from an earlier task
	// at recvTime, which cannot change during the attempt. fwd is the set of
	// registers sent on the ring, with their send cycles in s.fwdTime.
	var written, fwd dataflow.RegSet

	s.fus.reset()
	s.ring = s.ring[:0]

	fetchCycle := start + int64(cfg.TaskStartOverhead)
	fetched := 0
	var lastIssue int64 = -1 << 62
	issuedInCycle := 0

	var prevRetire int64
	// rob and iq index op i's slots in the ROB and issue-list windows:
	// i % ROBSize and i % IssueQSize, stepped rather than divided.
	rob, iq := 0, 0
	complete = start

	for i := range tr.ops {
		op := &tr.ops[i]
		if op.newBlock {
			if lat := s.hier.InstrFetch(op.pc); lat > 1 {
				fetchCycle += int64(lat - 1)
				fetched = 0
			}
		}
		if fetched >= cfg.IssueWidth {
			fetchCycle++
			fetched = 0
		}
		fetch := fetchCycle
		fetched++

		// Operand readiness with stall attribution.
		ready := fetch
		interTask := false
		for k := 0; k < int(op.nsrc); k++ {
			r := op.srcs[k]
			var rt int64
			if written.Has(r) {
				rt = s.regReady[r]
			} else {
				rt = s.recvTime(seq, r, start)
			}
			if rt > ready {
				ready = rt
				interTask = !written.Has(r)
			}
		}
		if ready > fetch {
			if interTask {
				s.res.Breakdown.InterTaskWait += ready - fetch
			} else {
				s.res.Breakdown.IntraTaskWait += ready - fetch
			}
		}

		// Pipeline structure.
		var issueMin int64
		if cfg.InOrder {
			issueMin = ready
			if issueMin < lastIssue {
				issueMin = lastIssue
			}
			if issueMin == lastIssue && issuedInCycle >= cfg.IssueWidth {
				issueMin++
			}
		} else {
			dispatch := fetch
			if w := s.retireWin[rob]; i >= cfg.ROBSize && w+1 > dispatch {
				dispatch = w + 1
			}
			if w := s.issueWin[iq]; i >= cfg.IssueQSize && w > dispatch {
				dispatch = w
			}
			issueMin = ready
			if dispatch > issueMin {
				issueMin = dispatch
			}
		}

		issue := s.fus.schedule(op.class, issueMin)
		done := issue + int64(op.lat)

		if op.isLoad || op.isStore {
			if s.arb.WouldOverflow(seq, op.addr) {
				if s.tracer != nil {
					s.tracer.Emit(obs.Event{Kind: obs.EvARBOverflow, Cycle: issue, PU: seq % cfg.NumPUs, Seq: seq, Task: task.ID, Arg: int64(op.addr)})
				}
				// Stall the access until the task is non-speculative.
				if s.lastRetire+1 > issue {
					issue = s.lastRetire + 1
				}
			}
			if op.isLoad && cfg.SyncTable && s.sync.ShouldSync(op.pc) {
				sc, ok := s.arb.LastStoreBefore(seq, op.addr)
				switch {
				case ok && sc > issue:
					// Predicted dependence confirmed and still in flight:
					// wait for the store instead of speculating.
					s.res.SyncWaits++
					if s.tracer != nil {
						s.tracer.Emit(obs.Event{Kind: obs.EvSyncWait, Cycle: sc, PU: seq % cfg.NumPUs, Seq: seq, Task: task.ID, Arg: int64(op.pc)})
					}
					issue = sc
				case !ok:
					// No earlier store to this word at all: the prediction
					// was stale, lower its confidence.
					s.sync.Weaken(op.pc)
				}
			}
			// The L1 D-cache is interleaved into banks (one per PU in the
			// paper); each bank accepts one access per cycle.
			issue = s.banks.schedule(op.addr, issue)
			// The ARB and the L1 D-cache are probed in parallel (the ARB
			// supplies speculative versions; the cache the architectural
			// ones), so a load completes at the slower of the two. Stores
			// complete into the ARB (which buffers speculative state until
			// retirement); the line fill proceeds off the critical path, so
			// only the ARB latency charges the pipeline.
			dlat := int64(s.hier.DataAccess(op.addr))
			if a := int64(s.arb.HitLatency()); a > dlat {
				dlat = a
			}
			if op.isLoad {
				access := issue + dlat
				done = access
				s.arb.RecordLoad(seq, op.addr)
				if sc, ok := s.arb.LastStoreBefore(seq, op.addr); ok && sc > access {
					// An earlier task stores this word after we loaded it.
					return 0, violation{time: sc, pc: op.pc}, true
				}
			} else {
				access := issue + int64(s.arb.HitLatency())
				done = access
				s.arb.RecordStore(seq, op.addr, access)
			}
		}

		if op.isBranch {
			if !s.gsh.Update(op.pc, op.taken) {
				// Intra-task misprediction: redirect fetch after resolution.
				if done+1 > fetchCycle {
					fetchCycle = done + 1
					fetched = 0
				}
			}
		}

		if cfg.InOrder {
			if issue > lastIssue {
				lastIssue = issue
				issuedInCycle = 1
			} else {
				issuedInCycle++
			}
		} else {
			r := done
			if prevRetire > r {
				r = prevRetire
			}
			prevRetire = r
			s.retireWin[rob] = r
			s.issueWin[iq] = issue
			if rob++; rob == cfg.ROBSize {
				rob = 0
			}
			if iq++; iq == cfg.IssueQSize {
				iq = 0
			}
		}

		if op.hasDst {
			s.regReady[op.dst] = done
			written = written.Add(op.dst)
			if op.forwards && task.CreateMask.Has(op.dst) {
				s.fwdTime[op.dst] = s.sendOnRing(done)
				fwd = fwd.Add(op.dst)
			}
		}
		if done > complete {
			complete = done
		}
	}

	// Release every created register not already forwarded, in ascending
	// register order, then publish the forward times for downstream tasks.
	// Only this success path is observed: a violating attempt returns before
	// reaching it, so forward/release events are never emitted for squashed
	// work.
	released := task.CreateMask.Minus(fwd)
	for rs := uint64(released); rs != 0; rs &= rs - 1 {
		s.fwdTime[bits.TrailingZeros64(rs)] = s.sendOnRing(complete)
	}
	fwd = fwd.Union(released)
	for rs := uint64(fwd); rs != 0; rs &= rs - 1 {
		r := bits.TrailingZeros64(rs)
		s.regFwd[r] = forwardRec{task: seq, time: s.fwdTime[r]}
		if s.tracer != nil {
			kind := obs.EvRegForward
			if released.Has(ir.Reg(r)) {
				kind = obs.EvRegRelease
			}
			s.tracer.Emit(obs.Event{Kind: kind, Cycle: s.fwdTime[r], PU: seq % cfg.NumPUs, Seq: seq, Task: task.ID, Arg: int64(r)})
		}
	}
	return complete, violation{}, false
}

// recvTime computes when register r's value reaches the PU running task seq.
func (s *simulator) recvTime(seq int, r ir.Reg, start int64) int64 {
	rec := s.regFwd[r]
	if rec.task < 0 {
		return start
	}
	hops := seq - rec.task - 1
	if hops < 0 {
		hops = 0
	}
	if hops > s.cfg.NumPUs-1 {
		hops = s.cfg.NumPUs - 1
	}
	t := rec.time + int64(hops)
	if t < start {
		return start
	}
	return t
}
