// Package obs is the observability layer: cycle-stamped event tracing, a
// typed metrics registry, and a Chrome trace-event / Perfetto exporter.
//
// Tracing is pluggable and pay-for-use: the simulator holds one Tracer that
// is nil by default, and every emission site is guarded — an unobserved run
// executes exactly the same instructions it did before the instrumentation
// existed, and produces byte-identical results (asserted by tests in
// internal/sim). Attach a Collector to record the event stream in memory,
// then hand it to WriteChromeTrace to get a JSON file ui.perfetto.dev (or
// chrome://tracing) opens directly; Tee attaches several Tracers to one run.
//
// Metrics are the aggregate companion: counters, gauges, and fixed-bucket
// histograms with atomic (lock-cheap) update paths and deterministic
// text/JSON snapshots, so two runs over the same work produce snapshots that
// diff cleanly.
package obs

// Kind enumerates the traced event types. The taxonomy follows the paper's
// §2.3 cycle accounting: task lifetime edges per PU, memory dependence
// squash/restart pairs, ARB capacity overflows, inter-task control
// mispredictions, synchronization waits, and register ring traffic.
type Kind uint8

const (
	// EvTaskAssign: the sequencer assigned a dynamic task to a PU
	// (Cycle = assign time, Arg unused).
	EvTaskAssign Kind = iota
	// EvTaskStart: execution began after the task descriptor fetch (Arg =
	// the index of the exit the instance takes in its static task's target
	// list).
	EvTaskStart
	// EvTaskComplete: the last instruction of the task finished (Arg = the
	// instance's inter-task wait cycles, squashed attempts included).
	EvTaskComplete
	// EvTaskRetire: the task retired, in order, including end overhead
	// (Arg = dynamic instruction count).
	EvTaskRetire
	// EvSquash: a memory dependence violation squashed the task at the
	// violating store's cycle (Arg = restart depth so far, 0-based).
	EvSquash
	// EvRestart: the squashed task restarted one cycle after the violating
	// store (Arg = restart depth so far, 0-based).
	EvRestart
	// EvARBOverflow: a memory access would exceed the task's ARB stage
	// capacity and stalls to non-speculative time (Arg = effective address).
	EvARBOverflow
	// EvMispredict: the task's successor was mispredicted; the corrected
	// assignment waits for this task's completion (Cycle = resolution).
	EvMispredict
	// EvSyncWait: a load predicted to conflict synchronized with the
	// producing store instead of speculating (Cycle = the store's cycle,
	// Arg = load PC).
	EvSyncWait
	// EvRegForward: a compiler-designated forward point sent a register on
	// the ring before task end (Arg = register number).
	EvRegForward
	// EvRegRelease: a created register without an earlier forward released
	// at task completion (Arg = register number).
	EvRegRelease

	numKinds
)

// String returns the event name used in exported traces.
func (k Kind) String() string {
	switch k {
	case EvTaskAssign:
		return "task-assign"
	case EvTaskStart:
		return "task-start"
	case EvTaskComplete:
		return "task-complete"
	case EvTaskRetire:
		return "task-retire"
	case EvSquash:
		return "squash"
	case EvRestart:
		return "restart"
	case EvARBOverflow:
		return "arb-overflow"
	case EvMispredict:
		return "mispredict"
	case EvSyncWait:
		return "sync-wait"
	case EvRegForward:
		return "reg-forward"
	case EvRegRelease:
		return "reg-release"
	}
	return "unknown"
}

// Event is one cycle-stamped occurrence. The struct is flat and small so a
// Collector append is the entire cost of an observed emission.
type Event struct {
	Kind  Kind
	Cycle int64 // simulated cycle of the occurrence
	PU    int   // processing unit (Seq mod NumPUs)
	Seq   int   // dynamic task sequence number
	Task  int   // static task identity
	Arg   int64 // kind-specific payload (see the Kind constants)
}

// Tracer receives events. Implementations must not retain the Event past the
// call (it is reused by value). Producers treat a nil Tracer as "tracing
// off" and skip emission entirely.
type Tracer interface {
	Emit(Event)
}

// Tee returns a Tracer that forwards every event to each of ts, in order.
func Tee(ts ...Tracer) Tracer { return tee(ts) }

type tee []Tracer

func (t tee) Emit(e Event) {
	for _, x := range t {
		x.Emit(e)
	}
}

// Collector is a Tracer that records the stream in memory, in emission
// order. It is not safe for concurrent use; the simulator emits from a
// single goroutine.
type Collector struct {
	Events []Event
}

// Emit appends the event.
func (c *Collector) Emit(e Event) { c.Events = append(c.Events, e) }

// Count returns how many recorded events have the given kind.
func (c *Collector) Count(k Kind) int {
	n := 0
	for _, e := range c.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}
