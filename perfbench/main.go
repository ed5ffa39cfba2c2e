// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in process for a fixed time, checks every output against the
// functional emulator, and prints its metrics as one JSON object on the
// last line of standard output:
//
//	go run . --workload simulate-gen --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and the layer each metric belongs to are described in
// README.md next to this file. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it prints the per-layer metrics of a separate,
// traced run and writes that run's spans under .bench_build/perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	_ "multiscalar/internal/policy" // register the policy zoo simulate-gen races
)

// defaultSeed is the workload seed when --seed is not given.
const defaultSeed = 1

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "fig5-cold, simulate-gen or simulate-warm")
	seed := fs.Int64("seed", defaultSeed, "workload seed: simulate-gen's corpus and simulate-warm's request order")
	secs := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := defaultConfig(*workload, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeReport(stdout, cfg, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeReport prints the diagnostic lines, then the result object as the
// last line.
func writeReport(out io.Writer, cfg config, rep *report) error {
	hostMS := (rep.hostBefore + rep.hostAfter) / 2
	fmt.Fprintf(out, "# %s seed=%d procs=%d host.control_ms before=%.2f after=%.2f\n",
		cfg.workload, cfg.seed, cfg.procs, rep.hostBefore, rep.hostAfter)
	c, err := json.Marshal(rep.counts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# counts %s\n", c)
	if n := len(rep.rounds); n > 0 {
		fmt.Fprintf(out, "# rounds n=%d wall_s min=%.4f median=%.4f max=%.4f\n",
			n, quantile(rep.rounds, 0), median(rep.rounds), quantile(rep.rounds, 1))
	}
	if len(rep.selfTimes) > 0 {
		var names []string
		for n := range rep.selfTimes {
			names = append(names, n)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, n := range names {
			lt := rep.selfTimes[n]
			fmt.Fprintf(&sb, " %s=%d/%.3fs/%.3fs", n, lt.spans, lt.total.Seconds(), lt.self.Seconds())
		}
		fmt.Fprintf(out, "# spans name=count/total/self%s\n", sb.String())
	}
	metrics := make(map[string]jsonMetric, len(rep.metrics)+1)
	for _, m := range rep.metrics {
		metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	if cfg.trace {
		metrics["host.control_ms"] = jsonMetric{Value: hostMS, Unit: "ms"}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
