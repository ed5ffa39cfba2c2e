// Command mslint runs the static Multiscalar invariant checker: it selects
// tasks for a benchmark (or an assembly file) and verifies both the program
// (IR000–IR005) and the resulting partition (PT001–PT010) against the task
// invariants of the paper. See DESIGN.md §7 for the rule catalog.
//
// Usage:
//
//	mslint -workload compress -heuristic dd -tasksize
//	mslint -asm prog.s -heuristic cf
//	mslint -all
//	mslint -all -json > findings.json
//	mslint -corpus 50 -seed 1
//
// -corpus N lints a generated corpus instead: N property-based programs
// (gen.CorpusParams from -seed) are verified directly (IR000–IR005) and
// then partitioned by every heuristic and every registered policy, with
// each partition checked against PT001–PT010: any invalid generated
// program or contract-violating policy fails the run. TestRandomProgramsClean
// (internal/verify) checks the same contract on the programs of
// `-corpus 50 -seed 1`.
//
// Exit status is 0 when no error-severity findings exist, 1 when at least
// one does, and 2 on usage errors. -min controls which findings print;
// the exit status always reflects errors regardless of the display filter.
//
// -json emits the findings at or above -min as a JSON array on stdout in
// the shared lint format (internal/lintout) that msvet -json also produces,
// so one consumer parses both tools' output. Locations are symbolic
// (workload/variant/task/block) since mslint findings live in selected
// partitions, not source lines.
package main

import (
	"flag"
	"fmt"
	"os"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	"multiscalar/internal/lintout"
	_ "multiscalar/internal/policy" // register the policy zoo for -corpus
	"multiscalar/internal/verify"
	"multiscalar/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "", "benchmark name (see -list)")
		asmFile   = flag.String("asm", "", "assembly file to lint instead of a workload")
		heuristic = flag.String("heuristic", "cf", "task selection heuristic: bb, cf, or dd")
		taskSize  = flag.Bool("tasksize", false, "apply the task-size heuristic (unrolling, call inclusion)")
		targets   = flag.Int("targets", 4, "hardware target limit N")
		all       = flag.Bool("all", false, "lint every workload under every heuristic, with and without -tasksize")
		corpus    = flag.Int("corpus", 0, "lint N generated programs under every heuristic and policy (0 = off)")
		seed      = flag.Int64("seed", 1, "generator corpus seed for -corpus")
		list      = flag.Bool("list", false, "list available workloads and exit")
		min       = flag.String("min", "warn", "lowest severity to print: info, warn, or error")
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array on stdout (shared lint format)")
	)
	flag.Parse()

	if *list {
		for _, w := range workloads.All() {
			fmt.Println(w.Name)
		}
		return
	}
	minSev, err := parseSeverity(*min)
	if err != nil {
		usage(err)
	}
	out := &output{json: *jsonOut}
	if *all {
		if *workload != "" || *asmFile != "" || *corpus > 0 {
			usage(fmt.Errorf("-all cannot be combined with -workload, -asm, or -corpus"))
		}
		code := lintAll(out, minSev, *targets)
		out.flush(code)
	}
	if *corpus > 0 {
		if *workload != "" || *asmFile != "" {
			usage(fmt.Errorf("-corpus cannot be combined with -workload or -asm"))
		}
		code := lintCorpus(out, minSev, *targets, *seed, *corpus)
		out.flush(code)
	}
	prog, err := loadProgram(*workload, *asmFile)
	if err != nil {
		usage(err)
	}
	h, err := core.ParseHeuristic(*heuristic)
	if err != nil {
		usage(err)
	}
	name := *workload
	if name == "" {
		name = *asmFile
	}
	errs, fatalErr := lintOne(out, name, prog, core.Options{Heuristic: h, TaskSize: *taskSize, MaxTargets: *targets}, minSev)
	if fatalErr != nil {
		fmt.Fprintln(os.Stderr, "mslint:", fatalErr)
		os.Exit(1)
	}
	code := 0
	if errs > 0 {
		code = 1
	}
	out.flush(code)
}

// output accumulates findings for -json mode (flushed as one array on exit)
// and passes human-readable lines straight through otherwise.
type output struct {
	json     bool
	findings []lintout.Finding
}

// collect records the shown findings of one configuration under a symbolic
// location prefix like "compress[dd +tasksize]".
func (o *output) collect(where string, fs verify.Findings) {
	for _, f := range fs {
		loc := where
		if f.Task >= 0 {
			loc += fmt.Sprintf(" task %d", f.Task)
		}
		if f.FnName != "" {
			loc += " fn " + f.FnName
		}
		if f.Blk != ir.NoBlock {
			loc += fmt.Sprintf(" b%d", f.Blk)
		}
		o.findings = append(o.findings, lintout.Finding{
			Tool:     "mslint",
			Rule:     string(f.Rule),
			Severity: f.Sev.String(),
			Location: loc,
			Message:  f.Msg,
		})
	}
}

// flush writes the JSON document (in -json mode) and exits with code.
func (o *output) flush(code int) {
	if o.json {
		if err := lintout.Write(os.Stdout, o.findings); err != nil {
			fmt.Fprintln(os.Stderr, "mslint:", err)
			os.Exit(2)
		}
	}
	os.Exit(code)
}

// lintOne verifies one program/options combination, printing findings at or
// above minSev and a one-line summary (or collecting them, in -json mode).
// It returns the error-finding count.
func lintOne(out *output, name string, prog *ir.Program, opts core.Options, minSev verify.Severity) (int, error) {
	part, err := core.Select(prog, opts)
	if err != nil {
		return 0, fmt.Errorf("%s: select: %w", name, err)
	}
	fs := verify.Partition(part)
	shown := fs.MinSeverity(minSev)
	label := fmt.Sprintf("%v", opts.Heuristic)
	if opts.Policy != "" {
		label = "policy:" + opts.Policy
	}
	if opts.TaskSize {
		label += " +tasksize"
	}
	if out.json {
		out.collect(fmt.Sprintf("%s[%s]", name, label), shown)
		return fs.Errors(), nil
	}
	if len(shown) > 0 {
		fmt.Print(shown)
	}
	fmt.Printf("%s [%s]: %d tasks, %d errors, %d warnings, %d findings\n",
		name, label, len(part.Tasks), fs.Errors(), fs.Warnings(), len(fs))
	return fs.Errors(), nil
}

// lintAll sweeps the full benchmark grid — every workload under every
// heuristic, with and without the task-size heuristic — and returns the
// process exit code.
func lintAll(out *output, minSev verify.Severity, targets int) int {
	heuristics := []core.Heuristic{core.BasicBlock, core.ControlFlow, core.DataDependence}
	totalErrs, configs := 0, 0
	for _, w := range workloads.All() {
		for _, h := range heuristics {
			for _, ts := range []bool{false, true} {
				opts := core.Options{Heuristic: h, TaskSize: ts, MaxTargets: targets}
				errs, err := lintOne(out, w.Name, w.Build(), opts, minSev)
				if err != nil {
					fmt.Fprintln(os.Stderr, "mslint:", err)
					return 1
				}
				totalErrs += errs
				configs++
			}
		}
	}
	if !out.json {
		fmt.Printf("\n%d configurations linted, %d error findings\n", configs, totalErrs)
	}
	if totalErrs > 0 {
		return 1
	}
	return 0
}

// lintCorpus verifies n generated programs and lints every (program ×
// strategy) partition: the three paper heuristics plus every registered
// policy. Program-level findings (a generator bug) and partition-level
// findings (a selection-contract violation) both count as errors.
func lintCorpus(out *output, minSev verify.Severity, targets int, seed int64, n int) int {
	strategies := []core.Options{
		{Heuristic: core.BasicBlock},
		{Heuristic: core.ControlFlow},
		{Heuristic: core.DataDependence},
	}
	for _, p := range core.PolicyNames() {
		strategies = append(strategies, core.Options{Heuristic: core.ControlFlow, Policy: p})
	}
	totalErrs, configs := 0, 0
	for i := 0; i < n; i++ {
		p := gen.CorpusParams(seed, i)
		prog := gen.Generate(p)
		name := p.Key()
		if fs := verify.Program(prog); fs.Errors() > 0 {
			shown := fs.MinSeverity(minSev)
			if out.json {
				out.collect(name, shown)
			} else if len(shown) > 0 {
				fmt.Print(shown)
			}
			totalErrs += fs.Errors()
		}
		for _, opts := range strategies {
			opts.MaxTargets = targets
			errs, err := lintOne(out, name, prog, opts, minSev)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mslint:", err)
				return 1
			}
			totalErrs += errs
			configs++
		}
	}
	if !out.json {
		fmt.Printf("\n%d generated programs, %d configurations linted, %d error findings\n", n, configs, totalErrs)
	}
	if totalErrs > 0 {
		return 1
	}
	return 0
}

func loadProgram(workload, asmFile string) (*ir.Program, error) {
	switch {
	case workload != "" && asmFile != "":
		return nil, fmt.Errorf("use either -workload or -asm, not both")
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, err
		}
		return asm.Parse(asmFile, string(src))
	case workload != "":
		w, err := workloads.ByName(workload)
		if err != nil {
			return nil, err
		}
		return w.Build(), nil
	}
	return nil, fmt.Errorf("one of -workload, -asm, or -all is required (try -list)")
}

func parseSeverity(s string) (verify.Severity, error) {
	switch s {
	case "info":
		return verify.SevInfo, nil
	case "warn":
		return verify.SevWarn, nil
	case "error":
		return verify.SevError, nil
	}
	return 0, fmt.Errorf("unknown severity %q (want info, warn, or error)", s)
}

func usage(err error) {
	fmt.Fprintln(os.Stderr, "mslint:", err)
	os.Exit(2)
}
