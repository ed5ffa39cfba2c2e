package sim

import "multiscalar/internal/obs"

// metrics is the Tracer behind NewMetrics.
type metrics struct {
	tasks       *obs.Counter
	squashes    *obs.Counter
	taskInstrs  *obs.Histogram
	interWait   *obs.Histogram
	forwardLead *obs.Histogram
	restartDep  *obs.Histogram

	// State of the task instance in flight: its squashes so far, and the
	// send cycles of its register forwards, which precede its completion
	// event in the stream.
	restarts int64
	forwards []int64
}

// NewMetrics registers the simulator's metrics catalog on r and returns a
// Tracer that updates it from one run's event stream (nil when r is nil).
// Units are cycles unless stated; the catalog is documented in DESIGN.md §9.
// Tracers for several runs may share one registry.
func NewMetrics(r *obs.Registry) obs.Tracer {
	if r == nil {
		return nil
	}
	return &metrics{
		tasks: r.Counter("sim_tasks_total", "tasks",
			"dynamic task instances retired"),
		squashes: r.Counter("sim_squashes_total", "squashes",
			"memory dependence squash/restart pairs"),
		taskInstrs: r.Histogram("sim_task_instrs", "instrs",
			"dynamic instructions per task instance (Table 1 '#dyn inst')",
			obs.ExpBuckets(1, 2, 16)),
		interWait: r.Histogram("sim_inter_task_wait_cycles", "cycles",
			"per-task cycles stalled on values forwarded from earlier tasks",
			obs.ExpBuckets(1, 2, 20)),
		forwardLead: r.Histogram("sim_forward_lead_cycles", "cycles",
			"task completion minus register forward/release send time (ring "+
				"backpressure can push a send past completion, giving negatives)",
			obs.ExpBuckets(1, 2, 16)),
		restartDep: r.Histogram("sim_restart_depth", "restarts",
			"memory dependence restarts per task instance",
			obs.LinearBuckets(0, 1, 9)),
	}
}

func (m *metrics) Emit(e obs.Event) {
	switch e.Kind {
	case obs.EvSquash:
		m.squashes.Inc()
		m.restarts++
	case obs.EvRegForward:
		m.forwards = append(m.forwards, e.Cycle)
	case obs.EvTaskComplete:
		for _, t := range m.forwards {
			m.forwardLead.Observe(e.Cycle - t)
		}
		m.forwards = m.forwards[:0]
		m.interWait.Observe(e.Arg)
	case obs.EvTaskRetire:
		m.tasks.Inc()
		m.taskInstrs.Observe(e.Arg)
		m.restartDep.Observe(m.restarts)
		m.restarts = 0
	}
}
