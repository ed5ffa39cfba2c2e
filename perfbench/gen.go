package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/gen"
	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/serve"
	"multiscalar/internal/sim"
)

// genArm is one selection arm of experiment.Corpus: the three heuristics,
// then the control-flow heuristic under each policy of the zoo.
type genArm struct {
	wire serve.SelectOptions
	opts core.Options // what the server turns wire into
}

var genArms = []genArm{
	{serve.SelectOptions{Heuristic: "bb"}, core.Options{Heuristic: core.BasicBlock}},
	{serve.SelectOptions{Heuristic: "cf"}, core.Options{Heuristic: core.ControlFlow}},
	{serve.SelectOptions{Heuristic: "dd"}, core.Options{Heuristic: core.DataDependence}},
	{serve.SelectOptions{Heuristic: "cf", Policy: "greedy"}, core.Options{Heuristic: core.ControlFlow, Policy: "greedy"}},
	{serve.SelectOptions{Heuristic: "cf", Policy: "roundrobin"}, core.Options{Heuristic: core.ControlFlow, Policy: "roundrobin"}},
	{serve.SelectOptions{Heuristic: "cf", Policy: "knapsack"}, core.Options{Heuristic: core.ControlFlow, Policy: "knapsack"}},
}

// genPUs is the machine every simulate-gen request asks for: 4 out-of-order
// PUs, the paper's headline configuration.
const genPUs = 4

// genWarmupBase is the first corpus index of the set-up's warm-up programs,
// far from the indices the timed rounds use.
const genWarmupBase = 1 << 20

// simulateGen is a closed loop of cold /v1/simulate requests. Request i of
// a round simulates program i/6 of the seeded corpus under arm i%6; every
// round starts on a fresh engine and server and moves on to new programs,
// so every key is distinct and every request misses the memo.
type simulateGen struct {
	cfg    config
	probe  *simProbe
	oracle *oracle

	eng  *grid.Engine  // the latest round's engine, with its memo
	srv  *serve.Server // and server
	last []grid.Job    // the latest round's jobs

	next      int // corpus index of the next round's first program
	ref       counts
	rounds    int
	attempted int64
	failed    int64
}

func (g *simulateGen) pus() []int { return []int{genPUs} }

func (g *simulateGen) engine() *grid.Engine { return g.eng }

func (g *simulateGen) jobs() []grid.Job { return g.last }

// requests builds the bodies and jobs of n programs from corpus index first.
func (g *simulateGen) requests(first, n int) ([][]byte, []grid.Job) {
	var bodies [][]byte
	var jobs []grid.Job
	for p := first; p < first+n; p++ {
		name := gen.CorpusParams(g.cfg.seed, p).Key()
		for _, arm := range genArms {
			bodies = append(bodies, simulateBody(serve.SimulateRequest{
				Workload: name, Select: arm.wire, Machine: serve.MachineConfig{PUs: genPUs},
			}))
			jobs = append(jobs, grid.Job{Workload: name, Select: arm.opts, Config: sim.DefaultConfig(genPUs)})
		}
	}
	return bodies, jobs
}

// setup builds a fresh engine and server and warms the process with two
// programs' worth of cold requests.
func (g *simulateGen) setup() (time.Duration, error) {
	bodies, _ := g.requests(genWarmupBase, 2)
	t0 := time.Now()
	_, srv := newServer(g.cfg.procs, nil)
	replies, _ := closedLoop(srv.Handler(), g.cfg.procs, bodies, nil)
	d := time.Since(t0)
	for i, r := range replies {
		if r.status != http.StatusOK {
			return 0, fmt.Errorf("simulate-gen warm-up request %d: status %d", i, r.status)
		}
	}
	return d, nil
}

func (g *simulateGen) round(ph *phase) (time.Duration, error) {
	g.eng, g.srv, g.last = nil, nil, nil // let the previous round's memo go
	first := g.next
	g.next += g.cfg.genPrograms
	bodies, jobs := g.requests(first, g.cfg.genPrograms)
	var reg *obs.Registry
	if ph.tr != nil {
		reg = obs.NewRegistry()
	}
	eng, srv := newServer(g.cfg.procs, reg)
	got := make([][]byte, len(bodies))
	replies, wall := closedLoop(srv.Handler(), g.cfg.procs, bodies, func(i, _ int, body []byte) {
		got[i] = append([]byte(nil), body...)
	})
	g.eng, g.srv, g.last = eng, srv, jobs

	for _, r := range replies {
		ph.lat = append(ph.lat, r.end.Sub(r.start))
	}
	sims := g.probe.take()
	if ph.tr != nil {
		ids := make(map[string]int, len(replies))
		for i, r := range replies {
			ids[simKey(jobs[i].Workload, jobs[i].Select, genPUs)] = ph.tr.add("serve.request", -1, r.start, r.end)
		}
		for _, c := range sims {
			parent, ok := ids[c.key]
			if !ok {
				parent = -1
			}
			ph.tr.add("sim.Run", parent, c.start, c.end)
		}
		ph.sims = append(ph.sims, sims...)
		ph.addReplies(replies)
		if err := ph.addEngine(eng, reg); err != nil {
			return 0, err
		}
	}
	return wall, g.check(ph, first, replies, got, jobs)
}

// check compares every reply of a round with the emulator on its program.
// The corpus arms use no task-size transform, so core.Select runs every arm
// on the same program: the generated one after core.RestructureLoops. The
// first round's results are the workload's exact counts.
func (g *simulateGen) check(ph *phase, first int, replies []reply, got [][]byte, jobs []grid.Job) error {
	refs := make([]ref, g.cfg.genPrograms)
	for p := range refs {
		prog := gen.Generate(gen.CorpusParams(g.cfg.seed, first+p))
		core.RestructureLoops(prog)
		var err error
		if refs[p], err = g.oracle.reference(prog); err != nil {
			return fmt.Errorf("emulating corpus program %d: %w", first+p, err)
		}
	}
	var c counts
	for i, r := range replies {
		g.attempted++
		var resp serve.SimulateResponse
		if r.status != http.StatusOK || json.Unmarshal(got[i], &resp) != nil || !refs[i/len(genArms)].matches(resp.Result) {
			g.failed++
			continue
		}
		ph.rates = append(ph.rates, rate(resp.Result.Instrs, r.end.Sub(r.start)))
		c.add(resp.Result)
	}
	if g.rounds == 0 {
		before := g.eng.Stats()
		for _, j := range jobs {
			part, err := g.eng.PartitionCtx(context.Background(), j.Workload, j.Select)
			if err != nil {
				return err
			}
			c.StaticTasks += len(part.Tasks)
		}
		if d := g.eng.Stats().Delta(before); d.Partitions != 0 {
			return fmt.Errorf("simulate-gen: %d of the round's partitions were not memoized", d.Partitions)
		}
		g.ref = c
	}
	g.rounds++
	return nil
}

func (g *simulateGen) result() (attempted, failed int64, c counts) {
	return g.attempted, g.failed, g.ref
}
