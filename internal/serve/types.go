package serve

import (
	"errors"
	"fmt"
	"strings"

	"multiscalar/internal/core"
	"multiscalar/internal/experiment"
	"multiscalar/internal/gen"
	"multiscalar/internal/grid"
	"multiscalar/internal/sim"
	"multiscalar/internal/verify"
	"multiscalar/internal/workloads"
)

// SelectOptions is the wire form of core.Options: how a workload is
// partitioned into tasks.
type SelectOptions struct {
	// Heuristic is "bb", "cf", or "dd" ("" = "bb", the paper's baseline).
	Heuristic string `json:"heuristic,omitempty"`
	// TaskSize applies the task-size heuristic on top of Heuristic.
	TaskSize bool `json:"task_size,omitempty"`
	// MaxTargets overrides the hardware target limit N (0 = paper's 4).
	MaxTargets int `json:"max_targets,omitempty"`
	// CallThresh and LoopThresh override the task-size thresholds (0 =
	// paper defaults).
	CallThresh int `json:"call_thresh,omitempty"`
	LoopThresh int `json:"loop_thresh,omitempty"`
	// NoGreedy uses first-fit instead of greedy task growth.
	NoGreedy bool `json:"no_greedy,omitempty"`
	// Policy replaces the heuristic's growth decisions with a registered
	// selection policy ("greedy", "roundrobin", "knapsack").
	Policy string `json:"policy,omitempty"`
	// SizeBudget and CommBudget are the policy's task-size and register-
	// communication budgets (0 = policy defaults; ignored without Policy).
	SizeBudget int `json:"size_budget,omitempty"`
	CommBudget int `json:"comm_budget,omitempty"`
}

func (o SelectOptions) core() (core.Options, error) {
	var h core.Heuristic
	switch o.Heuristic {
	case "", "bb":
		h = core.BasicBlock
	case "cf":
		h = core.ControlFlow
	case "dd":
		h = core.DataDependence
	default:
		return core.Options{}, fmt.Errorf("unknown heuristic %q (want bb, cf, or dd)", o.Heuristic)
	}
	if o.MaxTargets < 0 || o.CallThresh < 0 || o.LoopThresh < 0 {
		return core.Options{}, fmt.Errorf("select thresholds must be non-negative")
	}
	if o.SizeBudget < 0 || o.CommBudget < 0 {
		return core.Options{}, fmt.Errorf("policy budgets must be non-negative")
	}
	if err := validatePolicy(o.Policy); err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Heuristic:  h,
		TaskSize:   o.TaskSize,
		MaxTargets: o.MaxTargets,
		CallThresh: o.CallThresh,
		LoopThresh: o.LoopThresh,
		NoGreedy:   o.NoGreedy,
		Policy:     o.Policy,
		SizeBudget: o.SizeBudget,
		CommBudget: o.CommBudget,
	}, nil
}

// validatePolicy rejects unregistered policy names up front — Select would
// fail too, but at request-validation time the failure is a clean 400.
func validatePolicy(name string) error {
	if name == "" {
		return nil
	}
	for _, p := range core.PolicyNames() {
		if p == name {
			return nil
		}
	}
	return fmt.Errorf("unknown policy %q (registered: %s)", name, strings.Join(core.PolicyNames(), ", "))
}

// MachineConfig is the wire form of the simulated machine point; omitted
// fields take the paper's §4.2 defaults (sim.DefaultConfig).
type MachineConfig struct {
	// PUs is the processing-unit count (0 = 4).
	PUs int `json:"pus,omitempty"`
	// InOrder selects in-order PUs instead of out-of-order.
	InOrder bool `json:"in_order,omitempty"`
	// NoSyncTable disables the memory dependence synchronization table.
	NoSyncTable bool `json:"no_sync_table,omitempty"`
	// RingBW overrides the register ring bandwidth (0 = 2).
	RingBW int `json:"ring_bw,omitempty"`
	// MaxTargets overrides the hardware target limit (0 = 4).
	MaxTargets int `json:"max_targets,omitempty"`
	// L1DBanks overrides the data-cache bank count (0 = one per PU, at most
	// 64).
	L1DBanks int `json:"l1d_banks,omitempty"`
}

// maxPUs bounds accepted machine sizes: a request is rejected up front
// rather than tying a worker to an absurd simulation.
const maxPUs = 64

// maxL1DBanks bounds the data-cache bank count the same way; the simulator
// keeps one bank structure per bank.
const maxL1DBanks = 64

func (m MachineConfig) config() (sim.Config, error) {
	pus := m.PUs
	if pus == 0 {
		pus = 4
	}
	if pus < 1 || pus > maxPUs {
		return sim.Config{}, fmt.Errorf("pus %d out of range [1,%d]", m.PUs, maxPUs)
	}
	if m.RingBW < 0 || m.MaxTargets < 0 || m.L1DBanks < 0 {
		return sim.Config{}, fmt.Errorf("machine overrides must be non-negative")
	}
	if m.L1DBanks > maxL1DBanks {
		return sim.Config{}, fmt.Errorf("l1d_banks %d above the maximum %d", m.L1DBanks, maxL1DBanks)
	}
	cfg := sim.DefaultConfig(pus)
	cfg.InOrder = m.InOrder
	cfg.SyncTable = !m.NoSyncTable
	if m.RingBW != 0 {
		cfg.RingBW = m.RingBW
	}
	if m.MaxTargets != 0 {
		cfg.MaxTargets = m.MaxTargets
	}
	if m.L1DBanks != 0 {
		cfg.L1DBanks = m.L1DBanks
	}
	return cfg, nil
}

// GeneratorSpec is the wire form of gen.Params: a property-based workload
// described by its seed and shape parameters instead of a benchmark name.
// Omitted fields take gen.Default()'s values; all fields are clamped to the
// generator's valid ranges, so the canonical name in the response is the
// source of truth for what actually ran.
type GeneratorSpec struct {
	Seed        int64 `json:"seed"`
	Funcs       int   `json:"funcs,omitempty"`
	Blocks      int   `json:"blocks,omitempty"`
	Branchiness int   `json:"branchiness,omitempty"`
	LoopDepth   int   `json:"loop_depth,omitempty"`
	CallDensity int   `json:"call_density,omitempty"`
	RegDensity  int   `json:"reg_density,omitempty"`
	MemWords    int   `json:"mem_words,omitempty"`
}

func (g GeneratorSpec) params() gen.Params {
	p := gen.Default()
	p.Seed = g.Seed
	if g.Funcs != 0 {
		p.Funcs = g.Funcs
	}
	if g.Blocks != 0 {
		p.Blocks = g.Blocks
	}
	if g.Branchiness != 0 {
		p.Branchiness = g.Branchiness
	}
	if g.LoopDepth != 0 {
		p.LoopDepth = g.LoopDepth
	}
	if g.CallDensity != 0 {
		p.CallDensity = g.CallDensity
	}
	if g.RegDensity != 0 {
		p.RegDensity = g.RegDensity
	}
	if g.MemWords != 0 {
		p.MemWords = g.MemWords
	}
	return p.Clamp()
}

// PartitionRequest asks for a task selection plus its static verification.
// Exactly one of Workload and Generator names the program.
type PartitionRequest struct {
	Workload  string         `json:"workload,omitempty"`
	Generator *GeneratorSpec `json:"generator,omitempty"`
	Select    SelectOptions  `json:"select"`

	name string       // resolved by check
	opts core.Options // resolved by check
}

// FindingBody is the wire form of one verify.Finding.
type FindingBody struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	// Task is the offending task ID, or -1 for IR-layer findings.
	Task int    `json:"task"`
	Fn   string `json:"fn,omitempty"`
	// Block is the offending block, or -1 for function-level findings.
	Block int    `json:"block"`
	Msg   string `json:"msg"`
}

func findingBodies(fs verify.Findings) []FindingBody {
	out := make([]FindingBody, len(fs))
	for i, f := range fs {
		out[i] = FindingBody{
			Rule:     string(f.Rule),
			Severity: f.Sev.String(),
			Task:     f.Task,
			Fn:       f.FnName,
			Block:    int(f.Blk),
			Msg:      f.Msg,
		}
	}
	return out
}

// PartitionResponse summarizes a task selection and its verification.
type PartitionResponse struct {
	Workload   string  `json:"workload"`
	Heuristic  string  `json:"heuristic"`
	Policy     string  `json:"policy,omitempty"`
	Tasks      int     `json:"tasks"`
	Blocks     int     `json:"blocks"`
	AvgBlocks  float64 `json:"avg_blocks_per_task"`
	AvgTargets float64 `json:"avg_targets_per_task"`

	Errors   int           `json:"errors"`
	Warnings int           `json:"warnings"`
	Findings []FindingBody `json:"findings,omitempty"`
}

// SimulateRequest asks for one grid job: workload × selection × machine.
// Exactly one of Workload and Generator names the program.
type SimulateRequest struct {
	Workload  string         `json:"workload,omitempty"`
	Generator *GeneratorSpec `json:"generator,omitempty"`
	Select    SelectOptions  `json:"select"`
	Machine   MachineConfig  `json:"machine"`

	job grid.Job // resolved by check
}

// GenerateRequest asks POST /v1/generate for a property-based program.
type GenerateRequest struct {
	Generator GeneratorSpec `json:"generator"`
}

// GenerateResponse carries the generated program's canonical name — a valid
// workload for /v1/partition and /v1/simulate, embedding seed, parameters,
// and generator schema version — plus shape statistics and the full listing.
type GenerateResponse struct {
	// Name is the canonical gen: workload name (clamped parameters).
	Name   string `json:"name"`
	Funcs  int    `json:"funcs"`
	Blocks int    `json:"blocks"`
	Instrs int    `json:"instrs"`
	// Program is the deterministic ir.Format listing: same seed and
	// parameters produce this byte-for-byte on every run and machine.
	Program string `json:"program"`
}

// SimulateResponse carries the simulation result plus the job's
// content-address (the grid cache key).
type SimulateResponse struct {
	Workload string      `json:"workload"`
	Key      string      `json:"key"`
	Result   *sim.Result `json:"result"`
}

// ExperimentRequest names a figure or table to regenerate, or a generated-
// corpus sweep.
type ExperimentRequest struct {
	// Name is "fig5", "table1", "summary", or "corpus".
	Name string `json:"name"`
	// Workloads restricts the run (empty = all 18; ignored by corpus).
	Workloads []string `json:"workloads,omitempty"`
	// PUs restricts the machine sizes for fig5/summary (empty = 4 and 8;
	// table1 is always the paper's 8-PU configuration).
	PUs []int `json:"pus,omitempty"`
	// Seed, N, and Policies configure the corpus sweep (corpus only):
	// N generated programs from the seed, raced across the paper heuristics
	// plus the named policies. N defaults to 20.
	Seed     int64    `json:"seed,omitempty"`
	N        int      `json:"n,omitempty"`
	Policies []string `json:"policies,omitempty"`
}

// Progress is the body of an experiment job's `progress` event: engine
// activity attributable to the job (deltas against the engine counters at
// its start).
type Progress struct {
	JobsDone  int64 `json:"jobs_done"`
	Sims      int64 `json:"sims"`
	CacheHits int64 `json:"cache_hits"`
	Deduped   int64 `json:"deduped"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// ExperimentResult is an experiment job's result, the body of its terminal
// `result` event: exactly one of Cells, Rows, Summaries, or Corpus is set,
// matching the requested experiment.
type ExperimentResult struct {
	Name      string                    `json:"name"`
	Cells     []experiment.Fig5Cell     `json:"cells,omitempty"`
	Rows      []experiment.T1Row        `json:"rows,omitempty"`
	Summaries []experiment.SuiteSummary `json:"summaries,omitempty"`
	Corpus    []experiment.CorpusRow    `json:"corpus,omitempty"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	// Status is "ok", or "draining" once shutdown has begun.
	Status   string `json:"status"`
	Inflight int    `json:"inflight"`
	Workers  int    `json:"workers"`
	// Backend reports cache-tier state when the engine's cache is made of
	// tiers (mssrv's is whenever it has one).
	Backend *BackendStatus `json:"backend,omitempty"`
	// Jobs reports the async job subsystem when Config.Jobs is wired.
	Jobs *JobsStatus `json:"jobs,omitempty"`
}

// BackendStatus describes the server's cache backend inside HealthResponse,
// so operators see more than the drain state: which cache tiers are
// reachable.
type BackendStatus struct {
	CacheTiers []grid.TierHealth `json:"cache_tiers,omitempty"`
}

// ErrorBody is the structured error shape every non-2xx JSON response uses:
//
//	{"error": {"code": "invalid_request", "message": "..."}}
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a stable machine-readable code and a human message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// requestError is a check failure that carries its wire error code; a check
// failure without one is an invalid_request.
type requestError struct {
	code string
	error
}

// resolveWorkload turns a request's workload/generator pair into the one
// workload name the engine runs: a generator spec compiles to its canonical
// gen: name (which workloads.ByName resolves back to the same program), a
// plain name is validated against the benchmark suite and the gen: grammar.
// Its failures are unknown_workload.
func resolveWorkload(name string, g *GeneratorSpec) (string, error) {
	if g != nil {
		if name != "" {
			return "", &requestError{"unknown_workload", errors.New("set either workload or generator, not both")}
		}
		return g.params().Key(), nil
	}
	if err := validateWorkload(name); err != nil {
		return "", &requestError{"unknown_workload", err}
	}
	return name, nil
}

// validateWorkload rejects unknown workload names, listing the known ones.
func validateWorkload(name string) error {
	if name == "" {
		return fmt.Errorf("missing workload name (known: %s)", strings.Join(workloads.Names(), ", "))
	}
	if _, err := workloads.ByName(name); err != nil {
		return fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloads.Names(), ", "))
	}
	return nil
}
