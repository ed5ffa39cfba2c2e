package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration // timed-phase length
	trace    bool

	procs int // engine workers, and closed-loop clients
	// A run sets up at least setups times, and more (up to maxSetups)
	// until the set-ups add up to setupBudget, so that the median of
	// short set-ups rests on more than a few tenths of a second.
	setups      int
	setupBudget time.Duration

	fig5Names   []string // fig5-cold sweep and simulate-warm job set; the last one warms fig5-cold up
	genPrograms int      // corpus programs per simulate-gen round (six requests each)
	warmRound   int      // requests per simulate-warm round

	traceDir string // where a traced run writes its spans
}

// defaultConfig is the benchmark as BENCHMARK.json runs it.
func defaultConfig(workload string, seed int64, seconds time.Duration, trace bool) config {
	n := runtime.NumCPU()
	return config{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		procs: n, setups: 5, setupBudget: time.Second,
		fig5Names:   []string{"go", "compress", "ijpeg", "tomcatv", "swim", "fpppp"},
		genPrograms: 8,
		warmRound:   3600,
		traceDir:    filepath.Join(".bench_build", "perfbench"),
	}
}

// maxSetups caps the set-ups of one run.
const maxSetups = 20

// workload is one of the benchmark's workloads.
type workload interface {
	// setup drops any previous state, builds a fresh engine (and server)
	// and runs the workload's warm-up; it returns the time that took,
	// without the checks that follow it.
	setup() (time.Duration, error)
	// round runs one fixed unit of work, checks its outputs, and returns
	// the wall time of the work alone.
	round(ph *phase) (time.Duration, error)
	// result is the operations attempted and failed so far, and the exact
	// counts of the workload's reference unit of work.
	result() (attempted, failed int64, c counts)
	// jobs and engine are the latest round's grid jobs and an engine that
	// holds them, for timing grid.Key and memo hits directly.
	jobs() []grid.Job
	engine() *grid.Engine
	// pus are the machine sizes the workload simulates.
	pus() []int
}

func newWorkload(cfg config, probe *simProbe, o *oracle) (workload, error) {
	switch cfg.workload {
	case "fig5-cold":
		return &fig5Cold{cfg: cfg, probe: probe, oracle: o}, nil
	case "simulate-gen":
		return &simulateGen{cfg: cfg, probe: probe, oracle: o}, nil
	case "simulate-warm":
		return newSimulateWarm(cfg, probe, o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig5-cold, simulate-gen or simulate-warm)", cfg.workload)
}

// phase is what the rounds of one timed phase measured.
type phase struct {
	tr *tracer // nil when untraced

	walls []time.Duration // per round
	lat   []time.Duration // per operation
	// Per operation: instructions in its result per microsecond of its
	// latency (Minstr/s). Failed operations have none.
	rates []float64

	opsPerS []float64 // operations per second of each round

	// Layer detail, kept by traced phases only.
	sims                    []simCall
	jobs, partitions, dedup int64 // grid.Engine.Stats deltas
	execUS, waitUS          int64
	requests, notOK, shed   int64
	respBytes               int64
	fig5, table1            []time.Duration
}

// addCounts adds an engine's counter deltas to the phase.
func (ph *phase) addCounts(d grid.Stats) {
	ph.jobs += d.Jobs
	ph.partitions += d.Partitions
	ph.dedup += d.Deduped
}

// addEngine adds a round's fresh engine to the phase: its counters and the
// totals of its execution and queue-wait histograms.
func (ph *phase) addEngine(eng *grid.Engine, reg *obs.Registry) error {
	ph.addCounts(eng.Stats())
	var seen int
	for _, m := range reg.Snapshot().Metrics {
		switch m.Name {
		case "grid_exec_wall_us":
			ph.execUS += m.Sum
			seen++
		case "grid_queue_wait_us":
			ph.waitUS += m.Sum
			seen++
		}
	}
	if seen != 2 {
		return fmt.Errorf("engine metrics grid_exec_wall_us and grid_queue_wait_us not found")
	}
	return nil
}

// runPhase runs rounds until they add up to budget, and at least one.
func runPhase(w workload, ph *phase, budget time.Duration) error {
	var spent time.Duration
	for len(ph.walls) == 0 || spent < budget {
		ops := len(ph.lat)
		d, err := w.round(ph)
		if err != nil {
			return err
		}
		ph.walls = append(ph.walls, d)
		ph.opsPerS = append(ph.opsPerS, float64(len(ph.lat)-ops)/d.Seconds())
		spent += d
	}
	return nil
}

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one run.
type report struct {
	attempted, failed int64
	counts            counts
	metrics           []metric
	hostBefore        float64 // host.control_ms before the run
	hostAfter         float64 // and after
	selfTimes         map[string]layerTime
	rounds            []float64 // wall time of each timed round, in seconds
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// run executes one benchmark run: set-up, the timed phase (an untraced one,
// or an untraced then a traced half), and the output checks.
func run(cfg config) (*report, error) {
	probe := &simProbe{}
	restore := grid.SetSimForTesting(probe.run)
	defer restore()
	o := &oracle{}
	w, err := newWorkload(cfg, probe, o)
	if err != nil {
		return nil, err
	}
	rep := &report{hostBefore: hostControl()}

	var setups []float64
	var setupTotal time.Duration
	for len(setups) < cfg.setups || (setupTotal < cfg.setupBudget && len(setups) < maxSetups) {
		d, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		setupTotal += d
	}
	probe.take()

	if cfg.trace {
		if err := tracedPhase(cfg, w, o, rep); err != nil {
			return nil, err
		}
	} else {
		ph := &phase{}
		if err := runPhase(w, ph, cfg.seconds); err != nil {
			return nil, err
		}
		rep.rounds = seconds(ph.walls)
		rep.metrics = endToEnd(ph, median(setups))
		runtime.KeepAlive(w.engine())
	}
	rep.attempted, rep.failed, rep.counts = w.result()
	rep.hostAfter = hostControl()
	return rep, nil
}

// endToEnd turns an untraced phase into the end-to-end metrics. It takes
// the memory figures last, with the workload's engine and server still
// reachable through the caller.
func endToEnd(ph *phase, setupS float64) []metric {
	lat := make([]float64, len(ph.lat))
	for i, d := range ph.lat {
		lat[i] = float64(d.Nanoseconds()) / 1e6
	}
	ms := []metric{
		{"setup_s", setupS, "s"},
		{"wall_s", median(seconds(ph.walls)), "s"},
		{"sim_minstr_per_s", median(ph.rates), "Minstr/s"},
		{"p50_ms", quantile(lat, 0.50), "ms"},
		{"p90_ms", quantile(lat, 0.90), "ms"},
		{"p99_ms", quantile(lat, 0.99), "ms"},
		{"rps", median(ph.opsPerS), "1/s"},
	}
	ph.lat, ph.rates, lat = nil, nil, nil
	ms = append(ms, metric{"max_rss_mb", maxRSSMB(), "MB"}, metric{"heap_retained_mb", heapRetainedMB(), "MB"})
	return ms
}

// tracedPhase spends half the budget untraced and half traced, and turns
// the traced half into the per-layer metrics. The untraced half is the
// baseline for trace.overhead_pct.
func tracedPhase(cfg config, w workload, o *oracle, rep *report) error {
	base := &phase{}
	if err := runPhase(w, base, cfg.seconds/2); err != nil {
		return err
	}
	ph := &phase{tr: &tracer{}}
	m0 := readMem()
	if err := runPhase(w, ph, cfg.seconds/2); err != nil {
		return err
	}
	md := memSince(m0)

	var busy time.Duration
	var instrs, tasks uint64
	for _, c := range ph.sims {
		busy += c.dur()
		instrs += c.instrs
		tasks += c.tasks
	}
	simS := busy.Seconds()
	coreS := float64(ph.execUS)/1e6 - simS
	waitS := float64(ph.waitUS) / 1e6
	hierMS, hierAllocs := hierarchyCost(w.pus())
	keyUS := keyCost(w.jobs())
	hitUS, err := hitCost(w.engine(), w.jobs())
	if err != nil {
		return err
	}
	rep.selfTimes = ph.tr.selfTimes()
	var reqUS, selfUS, respBytes float64
	if ph.requests > 0 {
		n := float64(ph.requests)
		req := rep.selfTimes["serve.request"]
		reqUS = float64(req.total.Nanoseconds()) / 1e3 / n
		selfUS = float64(req.self.Nanoseconds())/1e3/n - hitUS - (coreS+waitS)*1e6/n
		respBytes = float64(ph.respBytes) / n
	}
	per := func(total float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	baseWall := median(seconds(base.walls))
	overhead := 100 * (median(seconds(ph.walls))/baseWall - 1)
	_, _, c := w.result()
	rep.metrics = []metric{
		{"sim.calls", float64(len(ph.sims)), "count"},
		{"sim.busy_s", simS, "s"},
		{"sim.us_per_call", per(simS*1e6, uint64(len(ph.sims))), "us"},
		{"sim.ns_per_instr", per(simS*1e9, instrs), "ns"},
		{"sim.ns_per_task", per(simS*1e9, tasks), "ns"},
		{"mem.new_hierarchy_ms", hierMS, "ms"},
		{"mem.new_hierarchy_allocs", hierAllocs, "count"},
		{"core.calls", float64(ph.partitions), "count"},
		{"core.busy_s", coreS, "s"},
		{"core.us_per_call", per(coreS*1e6, uint64(ph.partitions)), "us"},
		{"grid.jobs", float64(ph.jobs), "count"},
		{"grid.dedup", float64(ph.dedup), "count"},
		{"grid.queue_wait_s", waitS, "s"},
		{"grid.key_us", keyUS, "us"},
		{"grid.hit_us", hitUS, "us"},
		{"serve.requests", float64(ph.requests), "count"},
		{"serve.failed", float64(ph.notOK), "count"},
		{"serve.shed", float64(ph.shed), "count"},
		{"serve.us_per_request", reqUS, "us"},
		{"serve.self_us", selfUS, "us"},
		{"serve.response_bytes", respBytes, "bytes"},
		{"experiment.fig5_s", median(seconds(ph.fig5)), "s"},
		{"experiment.table1_s", median(seconds(ph.table1)), "s"},
		{"go.alloc_mb", md.allocMB, "MB"},
		{"go.mallocs", float64(md.mallocs), "count"},
		{"go.gc_cycles", float64(md.gcCycles), "count"},
		{"go.gc_pause_ms", md.pauseMS, "ms"},
		{"emu.ns_per_instr", o.nsPerInstr(), "ns"},
		{"sim.instrs", float64(c.Instrs), "count"},
		{"sim.cycles", float64(c.Cycles), "count"},
		{"sim.tasks", float64(c.Tasks), "count"},
		{"sim.restarts", float64(c.Restarts), "count"},
		{"core.static_tasks", float64(c.StaticTasks), "count"},
		{"trace.overhead_pct", overhead, "%"},
	}
	return ph.tr.write(filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".jsonl"))
}
