// Package experiment regenerates the paper's evaluation: Figure 5 (IPC of
// the task-selection heuristics on 4 and 8 in-order and out-of-order PUs,
// integer and floating-point suites) and Table 1 (dynamic task size,
// control-transfer counts, task and per-branch prediction accuracy, and
// window span), plus the ablations DESIGN.md calls out.
package experiment

import (
	"context"
	"fmt"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// Variant names one bar of Figure 5.
type Variant int

// The four bars of Figure 5. TaskSize is the paper's "task size" bar: the
// data-dependence heuristic augmented with the task-size heuristic (the
// paper applies it to the benchmarks that respond to it, chiefly compress
// and fpppp; we run it everywhere and report it where it differs).
const (
	BB Variant = iota
	CF
	DD
	TS
	numVariants
)

// String returns the Figure 5 legend label.
func (v Variant) String() string {
	switch v {
	case BB:
		return "basic block"
	case CF:
		return "control flow"
	case DD:
		return "data dependence"
	case TS:
		return "task size"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists all Figure 5 bars in order.
func Variants() []Variant { return []Variant{BB, CF, DD, TS} }

func (v Variant) options() core.Options {
	switch v {
	case BB:
		return core.Options{Heuristic: core.BasicBlock}
	case CF:
		return core.Options{Heuristic: core.ControlFlow}
	case DD:
		return core.Options{Heuristic: core.DataDependence}
	case TS:
		return core.Options{Heuristic: core.DataDependence, TaskSize: true}
	}
	panic("experiment: bad variant")
}

// Runner executes experiment points on a grid.Engine, so Figure 5, Table 1,
// and the ablations share partitions and simulations, run in parallel
// across the engine's worker pool, and (when the engine has a cache
// directory) skip simulations already on disk.
type Runner struct {
	eng *grid.Engine
	ctx context.Context // nil = context.Background()
}

// NewRunner returns a runner on a fresh default engine (GOMAXPROCS workers,
// no disk cache).
func NewRunner() *Runner { return NewRunnerOn(grid.New(grid.Options{})) }

// NewRunnerOn returns a runner on an existing engine, sharing its memo,
// worker pool, and cache with any other user of the engine.
func NewRunnerOn(e *grid.Engine) *Runner { return &Runner{eng: e} }

// WithContext returns a runner whose experiment points ride the engine's
// context-aware path: when ctx ends, queued jobs cancel cleanly and every
// pending experiment call returns ctx's error. The receiver is unchanged.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	return &Runner{eng: r.eng, ctx: ctx}
}

func (r *Runner) context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	//msvet:allow ctxflow (deliberate root: a Runner built without WithContext runs uncancelled)
	return context.Background()
}

// Engine exposes the underlying grid engine (for stats and direct jobs).
func (r *Runner) Engine() *grid.Engine { return r.eng }

// traced wraps a named sweep in a child span of the runner's context — an
// untraced context makes this free and returns the receiver unchanged. The
// caller must End the returned span (nil-safe).
func (r *Runner) traced(name string) (*Runner, *span.Span) {
	ctx, sp := span.Start(r.context(), name)
	if sp == nil {
		return r, nil
	}
	return r.WithContext(ctx), sp
}

// Partition returns (building and caching on demand) the partition for one
// workload and variant with the given hardware target limit (0 = paper's 4).
func (r *Runner) Partition(name string, v Variant, targets int) (*core.Partition, error) {
	opts := v.options()
	opts.MaxTargets = targets
	return r.eng.PartitionCtx(r.context(), name, opts)
}

// SimConfig selects one machine point.
type SimConfig struct {
	PUs     int
	InOrder bool
	// Targets overrides the hardware target limit (0 = 4).
	Targets int
	// RingBW overrides the register ring bandwidth (0 = 2).
	RingBW int
	// NoSyncTable disables the memory dependence synchronization table.
	NoSyncTable bool
	// L1DBanks overrides the data-cache bank count (0 = one per PU).
	L1DBanks int
}

// job resolves one workload/variant/machine point to a fully-specified grid
// job (the engine hashes the job verbatim, so all defaults are applied
// here).
func (mc SimConfig) job(name string, v Variant) grid.Job {
	opts := v.options()
	opts.MaxTargets = mc.Targets
	cfg := sim.DefaultConfig(mc.PUs)
	cfg.InOrder = mc.InOrder
	if mc.Targets != 0 {
		cfg.MaxTargets = mc.Targets
	}
	if mc.RingBW != 0 {
		cfg.RingBW = mc.RingBW
	}
	cfg.SyncTable = !mc.NoSyncTable
	if mc.L1DBanks != 0 {
		cfg.L1DBanks = mc.L1DBanks
	}
	return grid.Job{Workload: name, Select: opts, Config: cfg}
}

// Run simulates one workload/variant on one machine point, caching results.
// Safe for concurrent use; identical concurrent calls simulate once.
func (r *Runner) Run(name string, v Variant, mc SimConfig) (*sim.Result, error) {
	return r.runJob(v.String(), mc.job(name, v))
}

// runJob runs one grid job on the runner's context; label names the
// setting in the error, after the workload.
func (r *Runner) runJob(label string, job grid.Job) (*sim.Result, error) {
	res, err := r.eng.RunCtx(r.context(), job)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s/%s: %w", job.Workload, label, err)
	}
	return res, nil
}
