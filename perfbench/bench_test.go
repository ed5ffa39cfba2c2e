package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"multiscalar/internal/experiment"
)

var workloadNames = []string{"fig5-cold", "simulate-gen", "simulate-warm"}

// tiny is the benchmark at test size: one paper workload, one corpus
// program per round, one round per phase.
func tiny(t *testing.T, workload string, seed int64, trace bool) config {
	cfg := defaultConfig(workload, seed, time.Millisecond, trace)
	cfg.setups, cfg.setupBudget = 1, 0
	cfg.fig5Names = []string{"fpppp"}
	cfg.genPrograms = 1
	cfg.warmRound = 24
	cfg.traceDir = t.TempDir()
	return cfg
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metric lists of BENCHMARK.json.
func declaredMetrics(t *testing.T) (endToEnd, perLayer []declared) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

type printed struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func runTiny(t *testing.T, cfg config) (*report, printed) {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", cfg.workload, cfg.seed, err)
	}
	var out bytes.Buffer
	if err := writeReport(&out, cfg, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return rep, p
}

// TestSmoke runs every workload untraced and traced, and checks the result
// object carries exactly the metrics BENCHMARK.json declares, with their
// units, and no failed operation.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			_, p := runTiny(t, tiny(t, w, defaultSeed, trace))
			if !p.Correct || p.Attempted == 0 || p.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, p.Correct, p.Attempted, p.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(p.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d", w, trace, len(p.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := p.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w, trace, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
		}
	}
}

// TestExactCounts checks the simulated totals repeat exactly across runs
// and do not depend on the engine's worker count, and that a second seed
// runs clean too.
func TestExactCounts(t *testing.T) {
	for _, w := range workloadNames {
		cfg := tiny(t, w, defaultSeed, false)
		a, _ := runTiny(t, cfg)
		b, _ := runTiny(t, cfg)
		cfg.procs = 1
		one, _ := runTiny(t, cfg)
		if a.counts != b.counts || a.counts != one.counts {
			t.Errorf("%s: counts differ: %+v, again %+v, on one worker %+v", w, a.counts, b.counts, one.counts)
		}
		if a.counts.Instrs == 0 || a.counts.StaticTasks == 0 {
			t.Errorf("%s: empty counts %+v", w, a.counts)
		}
		held, p := runTiny(t, tiny(t, w, 2, false))
		if !p.Correct || held.failed != 0 {
			t.Errorf("%s seed 2: correct=%v failed=%d", w, p.Correct, held.failed)
		}
	}
}

// TestCorruptedResultFails corrupts one result per workload and checks the
// oracle counts it as a failed operation.
func TestCorruptedResultFails(t *testing.T) {
	t.Run("fig5-cold", func(t *testing.T) {
		f := &fig5Cold{cfg: tiny(t, "fig5-cold", defaultSeed, false), probe: &simProbe{}, oracle: &oracle{}}
		if _, err := f.round(&phase{}); err != nil {
			t.Fatal(err)
		}
		if f.failed != 0 {
			t.Fatalf("clean sweep: %d failed", f.failed)
		}
		res, err := f.eng.Run(f.jobs()[0])
		if err != nil {
			t.Fatal(err)
		}
		res.FinalChecksum++
		if err := f.check(experiment.NewRunnerOn(f.eng)); err != nil {
			t.Fatal(err)
		}
		if f.failed != 1 {
			t.Errorf("one corrupted cell: %d failed, want 1", f.failed)
		}
	})
	t.Run("simulate-gen", func(t *testing.T) {
		g := &simulateGen{cfg: tiny(t, "simulate-gen", defaultSeed, false), probe: &simProbe{}, oracle: &oracle{}}
		ph := &phase{}
		if _, err := g.round(ph); err != nil {
			t.Fatal(err)
		}
		if g.failed != 0 {
			t.Fatalf("clean round: %d failed", g.failed)
		}
		bodies, jobs := g.requests(0, 1)
		_, srv := newServer(1, nil)
		got := make([][]byte, len(bodies))
		replies, _ := closedLoop(srv.Handler(), 1, bodies, func(i, _ int, body []byte) {
			got[i] = append([]byte(nil), body...)
		})
		if !bytes.Contains(got[2], []byte(`"Instrs":`)) {
			t.Fatalf("reply has no Instrs field: %s", got[2])
		}
		got[2] = bytes.Replace(got[2], []byte(`"Instrs":`), []byte(`"Instrs":9`), 1)
		if err := g.check(ph, 0, replies, got, jobs); err != nil {
			t.Fatal(err)
		}
		if g.failed != 1 {
			t.Errorf("one corrupted reply: %d failed, want 1", g.failed)
		}
	})
	t.Run("simulate-warm", func(t *testing.T) {
		w := newSimulateWarm(tiny(t, "simulate-warm", defaultSeed, false), &simProbe{}, &oracle{})
		if _, err := w.setup(); err != nil {
			t.Fatal(err)
		}
		res, err := w.eng.Run(w.jobList[0])
		if err != nil {
			t.Fatal(err)
		}
		res.Cycles++
		if _, err := w.round(&phase{}); err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, j := range w.jobOf {
			if j == 0 {
				want++
			}
		}
		if want == 0 || w.failed != want {
			t.Errorf("corrupted job 0: %d failed, want %d (its requests in the round)", w.failed, want)
		}
	})
}

// TestRejectsBadArguments checks a bad invocation exits non-zero without
// printing a result.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "fig5-cold", "--seconds", "0"},
		{"--workload", "fig5-cold", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := realMain(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
