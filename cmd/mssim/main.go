// Command mssim partitions one benchmark and simulates it on one Multiscalar
// machine point, printing IPC, prediction accuracies, the §2.3 time
// breakdown, and memory-speculation statistics.
//
// Usage:
//
//	mssim -workload tomcatv -heuristic cf -pus 8
//	mssim -workload compress -heuristic dd -tasksize -pus 4 -inorder
//	mssim -workload compress -pus 4 -trace-out trace.json -metrics
//
// -trace-out writes a Chrome trace-event / Perfetto JSON file (open it at
// ui.perfetto.dev): one track per PU with a slice per dynamic task and
// instant markers for squashes, restarts, ARB overflows, mispredictions,
// sync waits, and register ring traffic. -metrics prints the simulator and
// grid metrics snapshot after the run in Prometheus text format (the same
// exposition mssrv's /metrics serves). -timeline prints a text Gantt chart.
// All three are views of one observed run's event stream, so an observed
// run always simulates — the result cache is not consulted (a cache hit
// has no events to derive them from).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
	"multiscalar/internal/workloads"
)

func main() {
	var (
		workload   = flag.String("workload", "compress", "benchmark name")
		heuristic  = flag.String("heuristic", "cf", "task selection heuristic: bb, cf, or dd")
		taskSize   = flag.Bool("tasksize", false, "apply the task-size heuristic")
		pus        = flag.Int("pus", 4, "number of processing units")
		inorder    = flag.Bool("inorder", false, "in-order PUs instead of out-of-order")
		noSync     = flag.Bool("nosync", false, "disable the memory dependence synchronization table")
		timeline   = flag.Int("timeline", 0, "print a Gantt chart of the first N task instances (forces a live simulation)")
		timeout    = flag.Duration("timeout", 0, "overall deadline for the run (0 = none)")
		cacheDir   = flag.String("cache-dir", "", "content-addressed result cache directory shared with msreport (default: no cache)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event / Perfetto JSON trace to this file (forces a live simulation)")
		spanOut    = flag.String("span-out", "", "write the run's span trace (grid/cache hops, not the PU timeline) as Chrome trace-event JSON")
		metrics    = flag.Bool("metrics", false, "print the metrics snapshot after the run (forces a live simulation)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	w, err := workloads.ByName(*workload)
	if err != nil {
		fatal(err)
	}
	h, err := core.ParseHeuristic(*heuristic)
	if err != nil {
		fatal(err)
	}
	cfg := sim.DefaultConfig(*pus)
	cfg.InOrder = *inorder
	cfg.SyncTable = !*noSync
	sel := core.Options{Heuristic: h, TaskSize: *taskSize}

	// SIGINT/SIGTERM (and -timeout, if set) cancel the run's context: a job
	// still queued in the engine returns immediately and the command exits
	// with a clean diagnostic instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	observed := *traceOut != "" || *metrics || *timeline > 0
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	eng := grid.New(grid.Options{Workers: 1, CacheDir: *cacheDir, Metrics: reg})

	var tracer *span.Tracer
	var rootSp *span.Span
	if *spanOut != "" {
		tracer = span.New(span.Options{Process: "mssim", Metrics: reg})
		ctx, rootSp = tracer.StartRoot(ctx, "mssim.run")
	}

	var res *sim.Result
	var col *obs.Collector
	var tl *sim.TimelineRecorder
	if observed {
		// The views need the event stream of a live run, so skip the result
		// cache and drive the simulator directly (the partition still goes
		// through the engine and its memo).
		part, err := eng.PartitionCtx(ctx, w.Name, sel)
		if err != nil {
			fatalRun(ctx, err)
		}
		var views []obs.Tracer
		if *metrics {
			views = append(views, sim.NewMetrics(reg))
		}
		if *traceOut != "" {
			col = &obs.Collector{}
			views = append(views, col)
		}
		if *timeline > 0 {
			tl = sim.NewTimeline(part)
			views = append(views, tl)
		}
		res, err = sim.RunObserved(part, cfg, obs.Tee(views...))
		if err != nil {
			fatal(err)
		}
	} else {
		res, err = eng.RunCtx(ctx, grid.Job{Workload: w.Name, Select: sel, Config: cfg})
		if err != nil {
			fatalRun(ctx, err)
		}
	}

	style := "out-of-order"
	if *inorder {
		style = "in-order"
	}
	fmt.Printf("%s / %s tasks / %d %s PUs\n\n", w.Name, h, *pus, style)
	fmt.Printf("cycles            %12d\n", res.Cycles)
	fmt.Printf("instructions      %12d\n", res.Instrs)
	fmt.Printf("IPC               %12.3f\n", res.IPC)
	fmt.Printf("task instances    %12d (avg %.1f instrs, %.1f control transfers)\n",
		res.TaskInstances, res.AvgTaskSize, res.AvgCTInstrs)
	fmt.Printf("task prediction   %11.1f%% (window span %.0f instrs)\n",
		100*res.TaskPredAccuracy, res.WindowSpan)
	fmt.Printf("branch prediction %11.1f%%\n", 100*res.BrPredAccuracy)
	fmt.Printf("ctrl mispredicts  %12d\n", res.CtrlMispredicts)
	fmt.Printf("mem violations    %12d (%d restarts, %d sync waits, %d ARB overflows)\n",
		res.Violations, res.Restarts, res.SyncWaits, res.ARBOverflows)
	fmt.Printf("caches            L1I %.2f%%  L1D %.2f%%  L2 %.2f%% miss\n",
		100*res.L1IMissRate, 100*res.L1DMissRate, 100*res.L2MissRate)
	b := res.Breakdown
	fmt.Printf("\ntime breakdown (PU-cycles, per §2.3):\n")
	fmt.Printf("  task start overhead  %12d\n", b.StartOverhead)
	fmt.Printf("  inter-task data wait %12d\n", b.InterTaskWait)
	fmt.Printf("  intra-task data wait %12d\n", b.IntraTaskWait)
	fmt.Printf("  load imbalance       %12d\n", b.LoadImbalance)
	fmt.Printf("  task end overhead    %12d\n", b.EndOverhead)
	fmt.Printf("  control penalty      %12d\n", b.CtrlPenalty)
	fmt.Printf("  memory penalty       %12d\n", b.MemPenalty)
	if tl != nil {
		fmt.Printf("\nPU occupancy %.1f%%; first %d task instances:\n",
			100*tl.Timeline().Utilization(*pus), *timeline)
		fmt.Print(sim.FormatTimeline(tl.Timeline(), *timeline))
	}

	if rootSp != nil {
		id := rootSp.TraceID()
		rootSp.End(nil)
		td := tracer.Recorder().Get(id)
		if td == nil {
			fatal(errors.New("span trace was not retained"))
		}
		f, err := os.Create(*spanOut)
		if err != nil {
			fatal(err)
		}
		if err := span.WriteChrome(f, td); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nspans: %d -> %s (open in ui.perfetto.dev)\n", len(td.Spans), *spanOut)
	}
	if col != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, col.Events, *pus); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace: %d events -> %s (open in ui.perfetto.dev)\n",
			len(col.Events), *traceOut)
	}
	if *metrics {
		// Prometheus text exposition — the same format mssrv's /metrics
		// serves, so one set of parsing/alerting rules covers both.
		fmt.Printf("\nmetrics:\n")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mssim:", err)
	os.Exit(1)
}

// fatalRun collapses a context-ended run (signal or -timeout) to a single
// "interrupted" diagnostic; any other error goes through fatal unchanged.
func fatalRun(ctx context.Context, err error) {
	if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		fmt.Fprintf(os.Stderr, "mssim: run interrupted (%v)\n", ctx.Err())
		os.Exit(1)
	}
	fatal(err)
}
