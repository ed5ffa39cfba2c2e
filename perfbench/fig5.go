package main

import (
	"fmt"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/experiment"
	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim"
)

// fig5PUs are the machine sizes of the paper's Figure 5.
var fig5PUs = []int{4, 8}

// fig5Cold runs cold Figure 5 + Table 1 sweeps, each on a fresh engine with
// no result cache. One round is one sweep; one operation is one Figure 5
// cell, that is one simulation.
type fig5Cold struct {
	cfg    config
	probe  *simProbe
	oracle *oracle

	eng *grid.Engine // the latest sweep's engine, with its memo

	refs      map[string]ref // emulator end state per workload/variant
	cycles0   []int64        // the first sweep's cycles per cell
	ref       counts         // exact totals of the first sweep
	sweeps    int
	attempted int64
	failed    int64
}

func (f *fig5Cold) pus() []int { return fig5PUs }

func (f *fig5Cold) engine() *grid.Engine { return f.eng }

// setup builds a fresh engine and warms the process with a sweep over the
// last workload of the subset.
func (f *fig5Cold) setup() (time.Duration, error) {
	t0 := time.Now()
	r := experiment.NewRunnerOn(grid.New(grid.Options{Workers: f.cfg.procs}))
	names := f.cfg.fig5Names[len(f.cfg.fig5Names)-1:]
	if _, err := experiment.Figure5(r, fig5PUs, names); err != nil {
		return 0, err
	}
	if _, err := experiment.Table1(r, names); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (f *fig5Cold) round(ph *phase) (time.Duration, error) {
	f.eng = nil // let the previous sweep's engine go before this one starts
	var reg *obs.Registry
	if ph.tr != nil {
		reg = obs.NewRegistry()
	}
	eng := grid.New(grid.Options{Workers: f.cfg.procs, Metrics: reg})
	r := experiment.NewRunnerOn(eng)
	t0 := time.Now()
	if _, err := experiment.Figure5(r, fig5PUs, f.cfg.fig5Names); err != nil {
		return 0, err
	}
	t1 := time.Now()
	if _, err := experiment.Table1(r, f.cfg.fig5Names); err != nil {
		return 0, err
	}
	t2 := time.Now()
	f.eng = eng

	sims := f.probe.take()
	for _, c := range sims {
		ph.lat = append(ph.lat, c.dur())
		ph.rates = append(ph.rates, rate(c.instrs, c.dur()))
	}
	if ph.tr != nil {
		root := ph.tr.add("sweep", -1, t0, t2)
		fig5 := ph.tr.add("experiment.Figure5", root, t0, t1)
		table1 := ph.tr.add("experiment.Table1", root, t1, t2)
		for _, c := range sims {
			parent := fig5
			if !c.start.Before(t1) {
				parent = table1
			}
			ph.tr.add("sim.Run", parent, c.start, c.end)
		}
		ph.fig5 = append(ph.fig5, t1.Sub(t0))
		ph.table1 = append(ph.table1, t2.Sub(t1))
		if err := ph.addEngine(eng, reg); err != nil {
			return 0, err
		}
		ph.sims = append(ph.sims, sims...)
	}
	return t2.Sub(t0), f.check(r)
}

// check reads every cell's result back from the sweep's engine and compares
// it with the emulator on the partition's program. Reading back must hit
// the engine's memo: a cell that simulates again is an error.
func (f *fig5Cold) check(r *experiment.Runner) error {
	if f.refs == nil {
		f.refs = make(map[string]ref)
	}
	var c counts
	var cycles []int64
	before := r.Engine().Stats()
	for _, name := range f.cfg.fig5Names {
		for _, v := range experiment.Variants() {
			part, err := r.Partition(name, v, 0)
			if err != nil {
				return err
			}
			c.StaticTasks += len(part.Tasks)
			key := name + "/" + v.String()
			want, ok := f.refs[key]
			if !ok {
				if want, err = f.oracle.reference(part.Prog); err != nil {
					return fmt.Errorf("emulating %s: %w", key, err)
				}
				f.refs[key] = want
			}
			for _, pus := range fig5PUs {
				for _, inOrder := range []bool{false, true} {
					res, err := r.Run(name, v, experiment.SimConfig{PUs: pus, InOrder: inOrder})
					f.attempted++
					if err != nil || !want.matches(res) {
						f.failed++
						cycles = append(cycles, -1)
						continue
					}
					c.add(res)
					cycles = append(cycles, res.Cycles)
				}
			}
		}
	}
	if d := r.Engine().Stats().Delta(before); d.Sims != 0 || d.Partitions != 0 {
		return fmt.Errorf("fig5-cold: reading the sweep back ran %d simulations and %d partitions", d.Sims, d.Partitions)
	}
	if f.sweeps == 0 {
		f.ref, f.cycles0 = c, cycles
	} else {
		for i, cyc := range cycles {
			if cyc >= 0 && cyc != f.cycles0[i] {
				f.failed++ // the same cell simulated to a different cycle count
			}
		}
	}
	f.sweeps++
	return nil
}

func (f *fig5Cold) result() (attempted, failed int64, c counts) {
	return f.attempted, f.failed, f.ref
}

// jobs are the sweep's Figure 5 jobs, built the way experiment builds them.
func (f *fig5Cold) jobs() []grid.Job {
	var out []grid.Job
	for _, name := range f.cfg.fig5Names {
		for _, opts := range []core.Options{
			{Heuristic: core.BasicBlock},
			{Heuristic: core.ControlFlow},
			{Heuristic: core.DataDependence},
			{Heuristic: core.DataDependence, TaskSize: true},
		} {
			for _, pus := range fig5PUs {
				for _, inOrder := range []bool{false, true} {
					cfg := sim.DefaultConfig(pus)
					cfg.InOrder = inOrder
					out = append(out, grid.Job{Workload: name, Select: opts, Config: cfg})
				}
			}
		}
	}
	return out
}
