// Command msreport regenerates the paper's evaluation artifacts: Figure 5,
// Table 1, the §4.3.1 summary claims, and the ablations DESIGN.md lists.
// The grid runs in parallel across a bounded worker pool; pass -cache-dir
// to persist simulation results so warm reruns skip simulation entirely.
//
// With -workers the run fans out across processes: msreport becomes the
// leader of a distributed grid, listening on the given address for mssrv
// -worker peers. Cache-missing jobs go to one leased FIFO queue; the
// leader's own cores participate through a local worker loop, remote
// workers pull over HTTP, and each remote result comes back in the worker's
// report; the leader's engine stores it in the leader's own cache tiers.
// Output stays byte-identical to a serial run — collection is by index, not
// arrival order. -remote-cache chains an mssrv -cache-dir peer behind the
// disk tier, with or without -workers.
//
// Usage:
//
//	msreport -experiment fig5
//	msreport -experiment table1 -j 8 -progress
//	msreport -experiment summary
//	msreport -experiment ablations -workloads compress,tomcatv
//	msreport -experiment all -cache-dir ~/.cache/msgrid
//	msreport -experiment all -metrics-out metrics.json -cpuprofile cpu.pprof
//	msreport -corpus seed:100 -j 4 -cache-dir ~/.cache/msgrid
//
// -corpus <seed>:<n> replaces the paper experiments with the generated-
// corpus sweep: n property-based programs derived from the seed, each
// partitioned by the three paper heuristics plus every -policies entry and
// simulated on the headline 4-PU machine. The literal word "seed" means
// seed 1, so the documented `-corpus seed:100` works as written. The
// scoreboard goes to stdout; a one-line accounting summary (jobs, sims,
// cache hits) goes to stderr, so a warm-cache rerun is greppable for
// "0 simulated".
//
//	# distributed: start the leader, then any number of workers
//	msreport -experiment fig5 -workers 127.0.0.1:9090
//	mssrv -worker -leader http://127.0.0.1:9090   # in other terminals
//
// -metrics-out captures the grid engine's metrics (job/sim/cache counters,
// queue-wait and exec wall-time histograms, worker occupancy) as a
// deterministic JSON snapshot; -cpuprofile/-memprofile write standard pprof
// profiles of the whole report run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"multiscalar/internal/dist"
	"multiscalar/internal/experiment"
	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/obs/span"
	_ "multiscalar/internal/policy" // register the policy zoo for -corpus
	"multiscalar/internal/workloads"
)

func main() {
	var (
		which      = flag.String("experiment", "all", "fig5, chart, table1, summary, ablations, or all")
		corpus     = flag.String("corpus", "", "generated-corpus sweep \"<seed>:<n>\" instead of a paper experiment (e.g. seed:100)")
		policyList = flag.String("policies", "greedy,roundrobin,knapsack", "comma-separated policy arms for -corpus")
		wls        = flag.String("workloads", "", "comma-separated workload subset (default: all 18)")
		pus        = flag.String("pus", "", "comma-separated PU counts (default: 4,8)")
		workers    = flag.Int("j", 0, "max concurrent partition/simulation jobs (default GOMAXPROCS)")
		cacheDir   = flag.String("cache-dir", "", "content-addressed result cache directory (default: no cache)")
		noCache    = flag.Bool("no-cache", false, "ignore -cache-dir and recompute everything")
		distAddr   = flag.String("workers", "", "lead a distributed run: listen on this host:port for mssrv -worker peers")
		remoteAddr = flag.String("remote-cache", "", "base URL of a peer cache (an mssrv -cache-dir), probed after the disk tier")
		lease      = flag.Duration("lease", 0, "distributed job lease before reassignment to another worker (0 = 2m)")
		progress   = flag.Bool("progress", false, "print a progress/ETA line to stderr")
		timeout    = flag.Duration("timeout", 0, "overall deadline for the run; queued jobs cancel cleanly when it expires (0 = none)")
		metricsOut = flag.String("metrics-out", "", "write the grid metrics snapshot as JSON to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
		traceRun   = flag.Bool("trace", false, "trace the run end to end, spanning distributed workers (implied by -trace-out)")
		traceOut   = flag.String("trace-out", "", "write the run's trace as Chrome trace-event JSON (open in chrome://tracing or Perfetto)")
		submitURL  = flag.String("submit", "", "submit the experiment as a job to this mssrv base URL instead of running locally, stream its events to completion, and print the result")
		apiKey     = flag.String("api-key", "", "X-Api-Key tenant header for -submit (default: the server's anonymous tenant)")
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
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	names := splitList(*wls)
	if err := validateWorkloads(names); err != nil {
		fatal(err)
	}
	puCounts, err := parsePUs(splitList(*pus))
	if err != nil {
		fatal(err)
	}

	dir := *cacheDir
	if *noCache {
		dir = ""
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	var tracer *span.Tracer
	if *traceRun || *traceOut != "" {
		// One report run is one trace: raise the span budget so a full sweep
		// (hundreds of jobs, each contributing several hops) fits.
		tracer = span.New(span.Options{Process: "msreport", MaxSpansPerTrace: 1 << 16, Metrics: reg})
	}
	// SIGINT/SIGTERM (and -timeout, if set) cancel the run's context: jobs
	// still queued for a worker return immediately, simulations already
	// executing finish, and the command exits with a clean diagnostic
	// instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *submitURL != "" {
		req, err := buildSubmitRequest(*which, *corpus, splitList(*policyList), names, puCounts)
		if err != nil {
			fatal(err)
		}
		if err := runSubmit(ctx, os.Stdout, os.Stderr, *submitURL, *apiKey, req); err != nil {
			fatal(err)
		}
		return
	}

	cache, remoteTier := buildCache(dir, *remoteAddr, reg, os.Stderr)
	opts := grid.Options{Workers: *workers, Metrics: reg}
	if cache != nil {
		opts.Cache = cache
	}

	var d *distRun
	if *distAddr != "" {
		var err error
		d, err = startLeader(*distAddr, *lease, reg, tracer)
		if err != nil {
			fatal(err)
		}
		opts.Dispatcher = d.sched
	}
	eng := grid.New(opts)
	if d != nil {
		// The leader's own cores pull from the same scheduler as remote
		// workers, via ComputeCtx — RunCtx already holds the job's
		// single-flight leadership, so re-entering it would deadlock.
		go d.sched.RunLocal(ctx, eng.Workers(), eng.ComputeCtx)
	}
	defer distSummary(d, remoteTier)
	// LIFO defers: the trace finishes (root span ends, file written) before
	// distSummary closes the scheduler, so worker spans are already ingested.
	runName := *which
	if *corpus != "" {
		runName = "corpus"
	}
	ctx, rootSp := tracer.StartRoot(ctx, "experiment."+runName)
	defer finishTrace(tracer, rootSp, *traceOut)
	r := experiment.NewRunnerOn(eng).WithContext(ctx)
	if *progress {
		defer trackProgress(eng)()
	}
	if *metricsOut != "" {
		defer func() {
			blob, err := reg.Snapshot().JSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*metricsOut, append(blob, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}()
	}

	if *corpus != "" {
		seed, n, err := parseCorpus(*corpus)
		if err != nil {
			fatal(err)
		}
		spec := experiment.CorpusSpec{Seed: seed, N: n, Policies: splitList(*policyList)}
		rows, err := r.Corpus(spec)
		if err != nil {
			fatalRun(ctx, err)
		}
		fmt.Print(experiment.FormatCorpus(spec, rows))
		fmt.Fprintln(os.Stderr, corpusSummary(spec, eng.Stats()))
		return
	}

	needFig5 := *which == "fig5" || *which == "chart" || *which == "summary" || *which == "all"
	var cells []experiment.Fig5Cell
	if needFig5 {
		var err error
		cells, err = experiment.Figure5(r, puCounts, names)
		if err != nil {
			fatalRun(ctx, err)
		}
	}
	switch *which {
	case "fig5":
		fmt.Print(experiment.FormatFigure5(cells))
	case "chart":
		for _, n := range []int{4, 8} {
			fmt.Print(experiment.ChartFigure5(cells, n, false))
			fmt.Println()
		}
	case "summary":
		fmt.Print(experiment.FormatSummary(experiment.Summarize(cells)))
	case "table1":
		printTable1(ctx, r, names)
	case "ablations":
		printAblations(ctx, r, names)
	case "all":
		fmt.Print(experiment.FormatFigure5(cells))
		fmt.Print(experiment.FormatSummary(experiment.Summarize(cells)))
		fmt.Println()
		printTable1(ctx, r, names)
		fmt.Println()
		printAblations(ctx, r, names)
	default:
		fatal(fmt.Errorf("unknown experiment %q", *which))
	}
}

// parseCorpus parses the -corpus argument "<seed>:<n>". The seed field is a
// signed integer or the literal word "seed" (meaning 1); n must be a
// positive integer. Trailing junk in either field is an error, not
// truncated.
func parseCorpus(s string) (seed int64, n int, err error) {
	head, tail, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -corpus %q (want <seed>:<n>, e.g. seed:100 or 42:50)", s)
	}
	if head == "seed" {
		seed = 1
	} else if seed, err = strconv.ParseInt(head, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad -corpus seed %q (want an integer or the word \"seed\")", head)
	}
	if n, err = strconv.Atoi(tail); err != nil || n <= 0 {
		return 0, 0, fmt.Errorf("bad -corpus size %q (want a positive integer)", tail)
	}
	return seed, n, nil
}

// corpusSummary renders the one-line accounting printed to stderr after the
// corpus scoreboard. The "N simulated" figure is the warm-cache acceptance
// signal: a rerun on a populated cache must say "0 simulated". The live
// progress line during the sweep comes from -progress via trackProgress,
// sharing fitStatus with this line's consumers.
func corpusSummary(spec experiment.CorpusSpec, s grid.Stats) string {
	return fmt.Sprintf("corpus: %d programs x %d arms = %d jobs (%d simulated, %d cache hits)",
		spec.N, 3+len(spec.Policies), s.Done, s.Sims, s.CacheHits)
}

// parsePUs parses PU counts strictly: "4x" or "8.5" is an error, not 4.
func parsePUs(fields []string) ([]int, error) {
	var out []int
	for _, s := range fields {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad PU count %q (want a positive integer)", s)
		}
		out = append(out, n)
	}
	return out, nil
}

// validateWorkloads rejects unknown -workloads names before any simulation
// starts, listing the known names.
func validateWorkloads(names []string) error {
	for _, n := range names {
		if _, err := workloads.ByName(n); err != nil {
			return fmt.Errorf("unknown workload %q (known: %s)",
				n, strings.Join(workloads.Names(), ", "))
		}
	}
	return nil
}

// termWidth returns the terminal column count from $COLUMNS (exported by
// most interactive shells), or 0 when unknown.
func termWidth() int {
	if s := os.Getenv("COLUMNS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// fitStatus prepares an in-place status line: truncated to width-1 columns
// when the width is known (so it never wraps and \r can return over it) and
// padded with spaces to cover prev printed characters, clearing leftovers
// from a longer previous line.
func fitStatus(s string, prev, width int) string {
	if width > 0 && len(s) > width-1 {
		s = s[:width-1]
	}
	if len(s) < prev {
		s += strings.Repeat(" ", prev-len(s))
	}
	return s
}

// trackProgress prints a live jobs/ETA line to stderr until the returned
// stop function runs, then a final summary (jobs run / cache hits / wall
// time) from the grid metrics.
func trackProgress(eng *grid.Engine) (stop func()) {
	start := time.Now()
	quit := make(chan struct{})
	done := make(chan struct{})
	width := termWidth()
	line := func() string {
		s := eng.Stats()
		elapsed := time.Since(start).Round(100 * time.Millisecond)
		eta := "?"
		if s.Done > 0 && s.Jobs > s.Done {
			rem := time.Duration(float64(elapsed) / float64(s.Done) * float64(s.Jobs-s.Done))
			eta = rem.Round(100 * time.Millisecond).String()
		} else if s.Jobs == s.Done {
			eta = "0s"
		}
		return fmt.Sprintf("grid: %d/%d jobs (%d sims, %d cached, j=%d) elapsed %s eta %s",
			s.Done, s.Jobs, s.Sims, s.CacheHits, eng.Workers(), elapsed, eta)
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		prev := 0
		for {
			select {
			case <-quit:
				// Clear the status line, then leave a one-line summary.
				fmt.Fprintf(os.Stderr, "\r%s\r", fitStatus("", prev, width))
				s := eng.Stats()
				fmt.Fprintf(os.Stderr, "grid: %d jobs run (%d simulated, %d cache hits) in %s\n",
					s.Done, s.Sims, s.CacheHits, time.Since(start).Round(10*time.Millisecond))
				return
			case <-tick.C:
				out := fitStatus(line(), prev, width)
				fmt.Fprintf(os.Stderr, "\r%s", out)
				prev = len(strings.TrimRight(out, " "))
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

func printTable1(ctx context.Context, r *experiment.Runner, names []string) {
	rows, err := experiment.Table1(r, names)
	if err != nil {
		fatalRun(ctx, err)
	}
	fmt.Print(experiment.FormatTable1(rows))
}

func printAblations(ctx context.Context, r *experiment.Runner, names []string) {
	out, err := experiment.Ablations(r, names)
	if err != nil {
		fatalRun(ctx, err)
	}
	fmt.Print(out)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// buildCache composes the result-cache tiers: the disk tier at dir and,
// when remote is set, the peer behind it, whose fail-open warnings go to
// logw.
func buildCache(dir, remote string, reg *obs.Registry, logw io.Writer) (*dist.Tiered, *dist.RemoteCache) {
	return dist.BuildCache(dist.CacheConfig{
		Dir:           dir,
		Remote:        remote,
		RemoteOptions: dist.RemoteOptions{Metrics: reg, Logger: log.New(logw, "msreport ", log.LstdFlags)},
	})
}

// distRun bundles the leader-side pieces of a distributed run.
type distRun struct {
	sched *dist.Scheduler
	srv   *http.Server
	addr  net.Addr
}

// startLeader listens for workers and mounts the scheduler on HTTP. The
// leader is up before any job is submitted, so workers can register while
// the first experiment is still partitioning.
func startLeader(addr string, lease time.Duration, reg *obs.Registry, tracer *span.Tracer) (*distRun, error) {
	sched := dist.NewScheduler(dist.SchedOptions{Lease: lease, Metrics: reg, Tracer: tracer})
	leader := dist.NewLeader(sched, dist.LeaderOptions{
		Logger: log.New(os.Stderr, "msreport ", log.LstdFlags),
		Tracer: tracer,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("leader listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: leader.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "msreport: leading distributed run on %s\n", ln.Addr())
	return &distRun{sched: sched, srv: srv, addr: ln.Addr()}, nil
}

// distSummary ends the distributed run and prints one machine-greppable
// summary line per concern: fleet activity, then remote cache traffic. It
// closes the scheduler (workers observe closed on their next pull and
// exit), waits briefly for them to drain, and only then tears down the
// listener so no worker dies on a connection error.
func distSummary(d *distRun, remote *dist.RemoteCache) {
	if d != nil {
		jobs := d.sched.WorkerJobs() // snapshot before Close deregisters
		st := d.sched.Stats()
		d.sched.Close()
		deadline := time.Now().Add(3 * time.Second)
		for d.sched.RemoteWorkers() > 0 && time.Now().Before(deadline) {
			time.Sleep(25 * time.Millisecond)
		}
		d.srv.Close()

		names := make([]string, 0, len(jobs))
		for name := range jobs {
			names = append(names, name)
		}
		sort.Strings(names)
		var parts []string
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s:%d", name, jobs[name]))
		}
		fmt.Fprintf(os.Stderr, "msreport: dist workers=%d jobs{%s} submitted=%d completed=%d reassigned=%d\n",
			st.RemoteWorkers, strings.Join(parts, " "), st.Submitted, st.Completed, st.Reassigned)
	}
	if remote != nil {
		rs := remote.Stats()
		fmt.Fprintf(os.Stderr, "msreport: remote cache hits=%d misses=%d puts=%d errors=%d\n",
			rs.Hits, rs.Misses, rs.Puts, rs.Errors)
	}
}

// finishTrace ends the run's root span, prints a one-line trace summary, and
// writes the Chrome trace-event export when -trace-out asked for one. A
// leader's /debug routes stay useful only while the process lives, so the
// export is how a CLI run keeps its trace.
func finishTrace(tr *span.Tracer, root *span.Span, out string) {
	if root == nil {
		return
	}
	id := root.TraceID()
	root.End(nil)
	td := tr.Recorder().Get(id)
	if td == nil {
		fmt.Fprintln(os.Stderr, "msreport: trace was not retained")
		return
	}
	fmt.Fprintf(os.Stderr, "msreport: trace %s spans=%d dropped=%d wall=%s\n",
		td.TraceID, len(td.Spans), td.Dropped, td.Duration().Round(time.Millisecond))
	if out == "" {
		return
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msreport: trace-out:", err)
		return
	}
	defer f.Close()
	if err := span.WriteChrome(f, td); err != nil {
		fmt.Fprintln(os.Stderr, "msreport: trace-out:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "msreport: trace written to %s\n", out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msreport:", err)
	os.Exit(1)
}

// fatalRun reports a failed experiment run. When the run's context ended
// (signal or -timeout), the joined per-job cancellation errors collapse to
// one diagnostic line instead of a page of context.Canceled repeats.
func fatalRun(ctx context.Context, err error) {
	if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		fmt.Fprintf(os.Stderr, "msreport: run interrupted (%v)\n", ctx.Err())
		os.Exit(1)
	}
	fatal(err)
}
