// Command mstask runs the paper's task selection over a benchmark (or an
// assembly file, or a generated workload) and prints the resulting
// partition: every task with its member blocks, targets, create mask, and
// static size.
//
// Usage:
//
//	mstask -workload compress -heuristic dd -tasksize
//	mstask -asm prog.s -heuristic cf
//	mstask -gen -seed 42 -policy knapsack -verify
//	mstask -workload gen:v1:s42:f3:b24:br40:ld2:cd20:rd50:mw64
//
// -gen partitions a generated program (default parameters at -seed); for
// full parameter control pass a canonical gen: name to -workload. -policy
// replaces the heuristic's growth decisions with a registered selection
// policy (greedy, roundrobin, knapsack).
package main

import (
	"flag"
	"fmt"
	"os"

	"multiscalar/internal/core"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	_ "multiscalar/internal/policy" // register the policy zoo
	"multiscalar/internal/verify"
	"multiscalar/internal/workloads"

	"multiscalar/internal/asm"
)

func main() {
	var (
		workload  = flag.String("workload", "", "benchmark name or canonical gen: name (see -list)")
		asmFile   = flag.String("asm", "", "assembly file to partition instead of a workload")
		genFlag   = flag.Bool("gen", false, "partition a generated program (default gen.Params at -seed)")
		seed      = flag.Int64("seed", 1, "generator seed for -gen")
		heuristic = flag.String("heuristic", "cf", "task selection heuristic: bb, cf, or dd")
		policyN   = flag.String("policy", "", "selection policy replacing heuristic growth (see -list)")
		taskSize  = flag.Bool("tasksize", false, "apply the task-size heuristic (unrolling, call inclusion)")
		targets   = flag.Int("targets", 4, "hardware target limit N")
		list      = flag.Bool("list", false, "list available workloads and policies, then exit")
		verifyP   = flag.Bool("verify", false, "run the static invariant checker on the partition (exit 1 on error findings)")
	)
	flag.Parse()

	if *list {
		for _, w := range workloads.All() {
			suite := "int"
			if w.FP {
				suite = "fp"
			}
			fmt.Printf("%-10s (%s)\n", w.Name, suite)
		}
		fmt.Printf("policies: %v\n", core.PolicyNames())
		return
	}
	prog, err := loadProgram(*workload, *asmFile, *genFlag, *seed)
	if err != nil {
		fatal(err)
	}
	h, err := core.ParseHeuristic(*heuristic)
	if err != nil {
		fatal(err)
	}
	part, err := core.Select(prog, core.Options{Heuristic: h, Policy: *policyN, TaskSize: *taskSize, MaxTargets: *targets})
	if err != nil {
		fatal(err)
	}
	printPartition(part)
	if *verifyP {
		fs := verify.Partition(part)
		fmt.Println()
		if len(fs) > 0 {
			fmt.Print(fs)
		}
		fmt.Printf("verify: %d errors, %d warnings, %d findings\n",
			fs.Errors(), fs.Warnings(), len(fs))
		if fs.Errors() > 0 {
			os.Exit(1)
		}
	}
}

func loadProgram(workload, asmFile string, genFlag bool, seed int64) (*ir.Program, error) {
	sources := 0
	for _, set := range []bool{workload != "", asmFile != "", genFlag} {
		if set {
			sources++
		}
	}
	switch {
	case sources > 1:
		return nil, fmt.Errorf("use exactly one of -workload, -asm, or -gen")
	case genFlag:
		p := gen.Default()
		p.Seed = seed
		return gen.Generate(p), nil
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
	return nil, fmt.Errorf("one of -workload, -asm, or -gen is required (try -list)")
}

func printPartition(part *core.Partition) {
	strategy := fmt.Sprintf("%s heuristic", part.Heuristic)
	if part.Opts.Policy != "" {
		strategy = fmt.Sprintf("%s policy", part.Opts.Policy)
	}
	fmt.Printf("program %s: %d tasks under the %s\n\n",
		part.Prog.Name, len(part.Tasks), strategy)
	fmt.Print(core.ComputeStats(part))
	fmt.Println()
	for _, t := range part.Tasks {
		fn := part.Prog.Fn(t.Fn)
		fmt.Printf("task %d: %s entry b%d  (%d blocks, %d static instrs)\n",
			t.ID, fn.Name, t.Entry, len(t.Blocks), t.StaticInstrs)
		fmt.Printf("  blocks:  %v\n", t.Blocks)
		fmt.Printf("  targets: %v\n", t.Targets)
		fmt.Printf("  creates: %v\n", t.CreateMask.Regs())
		if len(t.IncludedCalls) > 0 {
			fmt.Printf("  included calls at blocks %v\n", t.IncludedCalls)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mstask:", err)
	os.Exit(1)
}
