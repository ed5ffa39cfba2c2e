// Package multiscalar is a from-scratch reproduction of "Task Selection for
// a Multiscalar Processor" (T. N. Vijaykumar and G. S. Sohi, MICRO-31,
// 1998): the compiler task-selection heuristics that partition a sequential
// program into speculative tasks, and the cycle-level Multiscalar machine
// they were evaluated on.
//
// The library is organized as a pipeline:
//
//	program  := multiscalar.NewBuilder("name")...Build()   // or ParseAsm
//	partition, _ := multiscalar.Select(program, multiscalar.Options{
//		Heuristic: multiscalar.ControlFlow,
//	})
//	result, _ := multiscalar.Simulate(partition, multiscalar.DefaultConfig(4))
//	fmt.Println(result.IPC)
//
// Programs are written in a small RISC-like IR with an explicit CFG (package
// internal/ir), partitioned into tasks by the paper's basic-block,
// control-flow, and data-dependence heuristics with the task-size heuristic
// as an option (internal/core), and timed on a simulator with per-PU
// pipelines, gshare and path-based predictors, a register communication
// ring, and ARB-based memory dependence speculation (internal/sim).
//
// The paper's SPEC95 evaluation is reproduced by the 18 synthetic workloads
// in Workloads and regenerated end to end by Figure5 and Table1; see
// EXPERIMENTS.md for paper-vs-measured numbers. Experiment grids execute on
// a parallel, cache-backed engine (internal/grid, exported as Grid): jobs
// are deduplicated single-flight, scheduled across a bounded worker pool,
// and optionally persisted to a content-addressed on-disk cache so warm
// reruns skip simulation entirely.
//
// Observability lives in internal/obs (exported here as Tracer, Metrics, and
// friends): SimulateObserved streams cycle-stamped events to one Tracer
// without perturbing the simulated machine — an observed run returns a
// Result identical to Simulate's. Everything else is a view of that stream:
// a TraceCollector records it for WriteChromeTrace (Chrome trace-event /
// Perfetto JSON), SimMetrics maintains the simulator's metrics in a Metrics
// registry, and a TimelineRecorder builds the per-task timeline; Tee
// attaches several to one run. See DESIGN.md §9.
//
// Beyond the 18 fixed benchmarks, Generate builds property-based workloads
// from a seed and shape parameters (internal/gen, exported with the Gen
// prefix): every generated program validates, verifies clean, and halts on
// the emulator, and the same seed yields byte-identical programs on every
// machine. Canonical gen: names make generated programs first-class
// workloads everywhere a benchmark name is accepted. Selection strategy is
// pluggable through the policy registry (RegisterPolicy, Options.Policy):
// registered policies — greedy, roundrobin, knapsack in internal/policy —
// replace the heuristics' growth decisions while the selector keeps every
// partition invariant intact. See DESIGN.md §14.
package multiscalar

import (
	"io"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/emu"
	"multiscalar/internal/experiment"
	"multiscalar/internal/gen"

	// Importing the facade registers the built-in policy zoo (greedy,
	// roundrobin, knapsack); Options.Policy accepts any PolicyNames entry.
	"multiscalar/internal/grid"
	"multiscalar/internal/ir"
	"multiscalar/internal/obs"
	_ "multiscalar/internal/policy"
	"multiscalar/internal/sim"
	"multiscalar/internal/verify"
	"multiscalar/internal/workloads"
)

// Program construction.
type (
	// Program is an executable in the reproduction's IR.
	Program = ir.Program
	// Builder constructs programs; see NewBuilder.
	Builder = ir.Builder
	// Reg names an architectural register (R(i) integer, F(i) float).
	Reg = ir.Reg
)

// NewBuilder returns a builder for a new program.
func NewBuilder(name string) *Builder { return ir.NewBuilder(name) }

// R returns the i'th integer register; F the i'th floating-point register.
func R(i int) Reg { return ir.R(i) }

// F returns the i'th floating-point register.
func F(i int) Reg { return ir.F(i) }

// ParseAsm assembles the textual IR syntax (the same syntax FormatProgram
// emits) into a program.
func ParseAsm(name, src string) (*Program, error) { return asm.Parse(name, src) }

// FormatProgram renders a program in assembler syntax.
func FormatProgram(p *Program) string { return ir.Format(p) }

// Task selection (the paper's contribution).
type (
	// Partition is a complete task selection for a program. TaskAt finds
	// the task entered at a block, through one table per function indexed
	// by block.
	Partition = core.Partition
	// Task is one static Multiscalar task. It holds no map: its member
	// blocks (Blocks) and included calls (IncludedCalls) are sorted
	// slices, and Contains, IncludesCall, Continues and ForwardsAt search
	// it.
	Task = core.Task
	// Options configures Select.
	Options = core.Options
	// Heuristic chooses the selection strategy.
	Heuristic = core.Heuristic
	// TaskExec describes one dynamic task instance (see WalkTasks).
	TaskExec = core.TaskExec
)

// The task-selection strategies evaluated in the paper.
const (
	// BasicBlock makes every basic block a task (the paper's baseline).
	BasicBlock = core.BasicBlock
	// ControlFlow grows multi-block tasks bounded by terminal nodes/edges
	// and the hardware target limit.
	ControlFlow = core.ControlFlow
	// DataDependence additionally steers growth along profiled def-use
	// chains.
	DataDependence = core.DataDependence
)

// Select partitions a program into Multiscalar tasks. The input program is
// never mutated.
func Select(p *Program, opts Options) (*Partition, error) { return core.Select(p, opts) }

// WalkTasks executes the partitioned program sequentially, invoking visit
// for every dynamic task instance in program order — the measurement
// backbone behind Table 1.
func WalkTasks(part *Partition, limit uint64, visit func(TaskExec)) error {
	return core.WalkTasks(part, limit, visit)
}

// Simulation.
type (
	// Config describes a simulated Multiscalar machine.
	Config = sim.Config
	// Result is the outcome of one simulation.
	Result = sim.Result
)

// DefaultConfig returns the paper's §4.2 machine for the given PU count.
func DefaultConfig(numPUs int) Config { return sim.DefaultConfig(numPUs) }

// Simulate runs the partitioned program on the configured machine and
// returns cycle counts, IPC, prediction accuracies, and the §2.3 time
// breakdown. The simulator's final architectural state always equals the
// sequential emulator's.
func Simulate(part *Partition, cfg Config) (*Result, error) { return sim.Run(part, cfg) }

// Observability: cycle-level tracing and metrics (see DESIGN.md §9).
type (
	// Tracer receives cycle-stamped simulator events. Implementations must
	// be fast; Emit is called from the simulator's hot path. A nil Tracer
	// means no events and no overhead.
	Tracer = obs.Tracer
	// TraceEvent is one cycle-stamped simulator event.
	TraceEvent = obs.Event
	// TraceEventKind discriminates TraceEvent (task lifecycle, squash,
	// restart, ARB overflow, misprediction, sync wait, register traffic).
	TraceEventKind = obs.Kind
	// TraceCollector is the canonical in-memory Tracer.
	TraceCollector = obs.Collector
	// Metrics is a registry of named counters, gauges, and histograms with
	// deterministic text and JSON snapshots.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time, deterministically ordered view of
	// a Metrics registry.
	MetricsSnapshot = obs.Snapshot
	// TimelineRecorder is a Tracer that records one TaskRecord per dynamic
	// task instance (assign, start, complete, retire, exit, restarts).
	TimelineRecorder = sim.TimelineRecorder
)

// NewMetrics returns an empty metrics registry. Pass it to SimMetrics or to
// a grid engine (GridOptions.Metrics) and read it back with Snapshot.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// SimMetrics returns a Tracer that maintains the simulator's metrics
// catalog (task sizes, inter-task wait, forward lead, restart depth) in m
// from one run's event stream.
func SimMetrics(m *Metrics) Tracer { return sim.NewMetrics(m) }

// NewTimeline returns a TimelineRecorder for a run of part.
func NewTimeline(part *Partition) *TimelineRecorder { return sim.NewTimeline(part) }

// Tee returns a Tracer that forwards every event to each of ts.
func Tee(ts ...Tracer) Tracer { return obs.Tee(ts...) }

// SimulateObserved is Simulate with every cycle-stamped event streamed to t.
// Observation never changes timing — the returned Result is identical to
// Simulate's for the same inputs.
func SimulateObserved(part *Partition, cfg Config, t Tracer) (*Result, error) {
	return sim.RunObserved(part, cfg, t)
}

// WriteChromeTrace writes collected events as Chrome trace-event / Perfetto
// JSON (one track per PU, a slice per dynamic task, instant markers for
// squashes and other point events). Open the output at ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, events []TraceEvent, numPUs int) error {
	return obs.WriteChromeTrace(w, events, numPUs)
}

// Emulate runs the program sequentially (the architectural reference),
// returning the executed instruction count and a memory checksum.
func Emulate(p *Program, limit uint64) (instrs uint64, checksum uint64, err error) {
	m := emu.New(p)
	if err := m.Run(limit); err != nil {
		return 0, 0, err
	}
	return m.Count, m.Mem.Checksum(), nil
}

// Verification.
type (
	// Finding is one rule violation reported by the static checker.
	Finding = verify.Finding
	// Findings is an ordered finding list with severity filters.
	Findings = verify.Findings
	// FindingSeverity grades a finding (info, warn, error).
	FindingSeverity = verify.Severity
)

// Finding severities. Only SevError indicates a partition the hardware
// could mis-execute.
const (
	SevInfo  = verify.SevInfo
	SevWarn  = verify.SevWarn
	SevError = verify.SevError
)

// Verify statically checks a partition against the paper's task invariants
// (connectivity, single entry, target limits, create masks, forward points)
// plus the IR-level rules, returning deterministic findings. A partition
// produced by Select always verifies with zero error findings; see
// DESIGN.md §7 for the rule catalog.
func Verify(part *Partition) Findings { return verify.Partition(part) }

// VerifyProgram runs the IR-layer rules alone over a program.
func VerifyProgram(p *Program) Findings { return verify.Program(p) }

// Workloads.
type (
	// Workload is one of the 18 SPEC95-analog benchmark programs.
	Workload = workloads.Workload
)

// Workloads returns the full benchmark suite (8 integer, 10 floating point).
func Workloads() []Workload { return workloads.All() }

// WorkloadByName returns one benchmark by its SPEC95 name (e.g. "compress")
// or a generated program by its canonical gen: name.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// Property-based workload generation (DESIGN.md §14).
type (
	// GenParams describes one generated program: seed plus shape parameters
	// (function count, blocks, branchiness, loop depth, call density,
	// register-dependence density, memory footprint). Out-of-range values
	// are clamped, so every GenParams denotes a valid program.
	GenParams = gen.Params
)

// GenDefault returns the generator's default parameters (seed 1).
func GenDefault() GenParams { return gen.Default() }

// Generate builds a program from p. Generation is total and deterministic:
// any parameters produce a program that validates, verifies clean, and
// halts, and the same (clamped) parameters produce byte-identical IR on
// every run and machine. The program's name is p's canonical gen: name,
// which WorkloadByName resolves back to the same program.
func Generate(p GenParams) *Program { return gen.Generate(p) }

// GenCorpusParams derives the i'th parameter point of the seed's corpus — a
// deterministic slice through the parameter cube, used by the corpus
// experiment, mslint -corpus, and the fuzz seeds.
func GenCorpusParams(seed int64, i int) GenParams { return gen.CorpusParams(seed, i) }

// ParseGenName parses a canonical gen: workload name back into its
// parameters, rejecting anything but the exact canonical encoding.
func ParseGenName(name string) (GenParams, error) { return gen.ParseName(name) }

// Selection policies: pluggable task-growth strategies (DESIGN.md §14).
type (
	// Policy decides which admissible frontier block joins the growing task;
	// the selector enforces every partition invariant regardless of what the
	// policy prefers. Set Options.Policy to a registered name to use one.
	Policy = core.Policy
	// PolicyTask summarizes the task being grown for a Policy.
	PolicyTask = core.PolicyTask
	// PolicyCandidate is one admissible frontier block with its cost model.
	PolicyCandidate = core.PolicyCandidate
	// PolicyConfig carries the task-size and register-communication budgets.
	PolicyConfig = core.PolicyConfig
)

// RegisterPolicy adds a named policy factory to the global registry; use
// the name in Options.Policy. The built-in zoo (greedy, roundrobin,
// knapsack) is registered by importing this package.
func RegisterPolicy(name string, factory func(PolicyConfig) Policy) {
	core.RegisterPolicy(name, factory)
}

// PolicyNames lists the registered policies, sorted.
func PolicyNames() []string { return core.PolicyNames() }

// Grid execution: the parallel, cache-backed engine behind the experiment
// harness.
type (
	// Grid schedules partition and simulation jobs across a bounded worker
	// pool with single-flight deduplication and an optional on-disk cache.
	Grid = grid.Engine
	// GridOptions configures NewGrid (worker bound, cache directory).
	GridOptions = grid.Options
	// GridJob names one simulation: workload × selection options × machine.
	GridJob = grid.Job
	// GridStats snapshots engine counters (jobs, sims, cache hits, dedups).
	GridStats = grid.Stats
)

// NewGrid returns a grid engine. Workers defaults to GOMAXPROCS; an empty
// CacheDir disables the on-disk result cache.
func NewGrid(opts GridOptions) *Grid { return grid.New(opts) }

// Experiments.
type (
	// Runner caches partitions and simulations across experiments.
	Runner = experiment.Runner
	// Variant names one bar of Figure 5.
	Variant = experiment.Variant
	// Fig5Cell is one bar of Figure 5.
	Fig5Cell = experiment.Fig5Cell
	// T1Row is one row of Table 1.
	T1Row = experiment.T1Row
	// SimConfig selects one machine point for experiments.
	SimConfig = experiment.SimConfig
)

// NewRunner returns an experiment runner on a fresh default grid engine.
func NewRunner() *Runner { return experiment.NewRunner() }

// NewRunnerOn returns an experiment runner sharing an existing grid engine
// (and therefore its worker pool, memo, and cache).
func NewRunnerOn(g *Grid) *Runner { return experiment.NewRunnerOn(g) }

// Figure5 regenerates the paper's Figure 5 grid (nil arguments select the
// paper's full configuration: 4 and 8 PUs, every workload).
func Figure5(r *Runner, pus []int, names []string) ([]Fig5Cell, error) {
	return experiment.Figure5(r, pus, names)
}

// Table1 regenerates the paper's Table 1 on 8 out-of-order PUs.
func Table1(r *Runner, names []string) ([]T1Row, error) { return experiment.Table1(r, names) }

// FormatFigure5 and FormatTable1 render experiment output in the paper's
// layout.
func FormatFigure5(cells []Fig5Cell) string { return experiment.FormatFigure5(cells) }

// FormatTable1 renders Table 1 rows.
func FormatTable1(rows []T1Row) string { return experiment.FormatTable1(rows) }
