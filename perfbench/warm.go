package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/serve"
	"multiscalar/internal/sim"
)

// simulateWarm is a closed loop of /v1/simulate requests over a fixed set of
// jobs that set-up simulated once, so every timed request is a memo hit.
// One round is one pass over a seeded request order.
type simulateWarm struct {
	cfg    config
	probe  *simProbe
	oracle *oracle

	eng     *grid.Engine
	srv     *serve.Server
	jobList []grid.Job
	bodies  [][]byte // request body per job
	want    [][]byte // set-up's response per job: every timed reply must equal it
	bad     []bool   // job whose set-up result failed the emulator oracle
	instrs  []uint64 // instructions in each job's result
	order   [][]byte // one round's request bodies, in seeded order
	jobOf   []int    // job index of each request of a round

	ref       counts
	attempted int64
	failed    int64
}

func newSimulateWarm(cfg config, probe *simProbe, o *oracle) *simulateWarm {
	w := &simulateWarm{cfg: cfg, probe: probe, oracle: o}
	for _, name := range cfg.fig5Names {
		for _, arm := range genArms[:3] { // the three heuristics
			for _, pus := range fig5PUs {
				w.jobList = append(w.jobList, grid.Job{Workload: name, Select: arm.opts, Config: sim.DefaultConfig(pus)})
				w.bodies = append(w.bodies, simulateBody(serve.SimulateRequest{
					Workload: name, Select: arm.wire, Machine: serve.MachineConfig{PUs: pus},
				}))
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for len(w.jobOf) < cfg.warmRound {
		w.jobOf = append(w.jobOf, rng.Perm(len(w.jobList))...)
	}
	w.jobOf = w.jobOf[:cfg.warmRound]
	for _, j := range w.jobOf {
		w.order = append(w.order, w.bodies[j])
	}
	return w
}

func (w *simulateWarm) pus() []int { return fig5PUs }

func (w *simulateWarm) engine() *grid.Engine { return w.eng }

func (w *simulateWarm) jobs() []grid.Job { return w.jobList }

// setup builds a fresh engine and server and simulates every job once; the
// replies become the reference every timed reply is compared with.
func (w *simulateWarm) setup() (time.Duration, error) {
	w.eng, w.srv = nil, nil
	want := make([][]byte, len(w.bodies))
	t0 := time.Now()
	eng, srv := newServer(w.cfg.procs, nil)
	replies, _ := closedLoop(srv.Handler(), w.cfg.procs, w.bodies, func(i, _ int, body []byte) {
		want[i] = append([]byte(nil), body...)
	})
	d := time.Since(t0)
	for i, r := range replies {
		if r.status != http.StatusOK {
			return 0, fmt.Errorf("simulate-warm set-up request %d: status %d", i, r.status)
		}
	}
	w.eng, w.srv, w.want = eng, srv, want
	return d, w.checkSetup()
}

// checkSetup compares each set-up result with the emulator on the
// partition's program and takes the exact counts from them.
func (w *simulateWarm) checkSetup() error {
	var c counts
	w.bad = make([]bool, len(w.jobList))
	w.instrs = make([]uint64, len(w.jobList))
	refs := make(map[string]ref)
	before := w.eng.Stats()
	for i, j := range w.jobList {
		part, err := w.eng.PartitionCtx(context.Background(), j.Workload, j.Select)
		if err != nil {
			return err
		}
		key := grid.PartitionKey(j.Workload, j.Select)
		want, ok := refs[key]
		if !ok {
			if want, err = w.oracle.reference(part.Prog); err != nil {
				return fmt.Errorf("emulating %s: %w", j.Workload, err)
			}
			refs[key] = want
			c.StaticTasks += len(part.Tasks)
		}
		var resp serve.SimulateResponse
		if json.Unmarshal(w.want[i], &resp) != nil || !want.matches(resp.Result) {
			w.bad[i] = true
			continue
		}
		w.instrs[i] = resp.Result.Instrs
		c.add(resp.Result)
	}
	if d := w.eng.Stats().Delta(before); d.Partitions != 0 {
		return fmt.Errorf("simulate-warm: %d set-up partitions were not memoized", d.Partitions)
	}
	w.ref = c
	return nil
}

func (w *simulateWarm) round(ph *phase) (time.Duration, error) {
	ok := make([]bool, len(w.order))
	before := w.eng.Stats()
	replies, wall := closedLoop(w.srv.Handler(), w.cfg.procs, w.order, func(i, status int, body []byte) {
		j := w.jobOf[i]
		ok[i] = status == http.StatusOK && !w.bad[j] && bytes.Equal(body, w.want[j])
	})
	for i, r := range replies {
		ph.lat = append(ph.lat, r.end.Sub(r.start))
		w.attempted++
		if !ok[i] {
			w.failed++
			continue
		}
		ph.rates = append(ph.rates, rate(w.instrs[w.jobOf[i]], r.end.Sub(r.start)))
	}
	if ph.tr != nil {
		for _, r := range replies {
			ph.tr.add("serve.request", -1, r.start, r.end)
		}
		ph.sims = append(ph.sims, w.probe.take()...)
		ph.addReplies(replies)
		ph.addCounts(w.eng.Stats().Delta(before))
	}
	return wall, nil
}

func (w *simulateWarm) result() (attempted, failed int64, c counts) {
	return w.attempted, w.failed, w.ref
}
