package sim

import (
	"fmt"
	"strings"

	"multiscalar/internal/core"
	"multiscalar/internal/obs"
)

// TaskRecord captures the lifetime of one dynamic task instance.
type TaskRecord struct {
	Seq      int   // dynamic sequence number (program order)
	TaskID   int   // static task identity
	PU       int   // processing unit (Seq mod NumPUs)
	Assign   int64 // cycle the sequencer assigned the task
	Start    int64 // cycle execution began (after descriptor fetch)
	Complete int64 // cycle the last instruction finished
	Retire   int64 // cycle the task retired (includes end overhead)
	Instrs   int   // dynamic instructions
	Exit     core.Target
	// Mispredicted marks that this task's *successor* was mispredicted.
	Mispredicted bool
	// Restarts counts memory dependence squashes of this instance.
	Restarts int
}

// Timeline is a run's record sequence, in program order.
type Timeline []TaskRecord

// TimelineRecorder is a Tracer that builds a run's Timeline from the event
// stream. Memory grows with the run: one TaskRecord per task instance.
type TimelineRecorder struct {
	part *core.Partition
	tl   Timeline
}

// NewTimeline returns a recorder for a run of part; it resolves each task's
// exit target from the partition.
func NewTimeline(part *core.Partition) *TimelineRecorder {
	return &TimelineRecorder{part: part}
}

// Emit implements obs.Tracer. Every event of a task instance follows its
// assignment and precedes the next instance's, so it updates the last record.
func (r *TimelineRecorder) Emit(e obs.Event) {
	if e.Kind == obs.EvTaskAssign {
		r.tl = append(r.tl, TaskRecord{Seq: e.Seq, TaskID: e.Task, PU: e.PU, Assign: e.Cycle})
		return
	}
	rec := &r.tl[len(r.tl)-1]
	switch e.Kind {
	case obs.EvTaskStart:
		rec.Start = e.Cycle
		// A partition that passes the verifier (PT005) lists every dynamic
		// exit among the task's targets, so the index is never -1 there.
		if e.Arg >= 0 {
			rec.Exit = r.part.Tasks[e.Task].Targets[e.Arg]
		}
	case obs.EvTaskComplete:
		rec.Complete = e.Cycle
	case obs.EvTaskRetire:
		rec.Retire, rec.Instrs = e.Cycle, int(e.Arg)
	case obs.EvSquash:
		rec.Restarts++
	case obs.EvMispredict:
		rec.Mispredicted = true
	}
}

// Timeline returns the records built so far.
func (r *TimelineRecorder) Timeline() Timeline { return r.tl }

// FormatTimeline renders up to max records as a text Gantt chart: one row
// per task, columns assign/start/complete/retire, plus a proportional bar.
// Pass max <= 0 for all records.
func FormatTimeline(tl Timeline, max int) string {
	if len(tl) == 0 {
		return "(empty timeline)\n"
	}
	if max <= 0 || max > len(tl) {
		max = len(tl)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%4s %5s %3s %8s %8s %8s %8s %6s %5s %s\n",
		"seq", "task", "pu", "assign", "start", "complete", "retire", "instrs", "exit", "activity")
	end := tl[max-1].Retire
	begin := tl[0].Assign
	span := end - begin
	if span <= 0 {
		span = 1
	}
	const width = 40
	for _, rec := range tl[:max] {
		bar := make([]byte, width)
		for i := range bar {
			bar[i] = ' '
		}
		mark := func(from, to int64, ch byte) {
			lo := int((from - begin) * width / span)
			hi := int((to - begin) * width / span)
			for i := lo; i <= hi && i < width; i++ {
				if i >= 0 {
					bar[i] = ch
				}
			}
		}
		mark(rec.Assign, rec.Start, '.')
		mark(rec.Start, rec.Complete, '#')
		mark(rec.Complete, rec.Retire, '-')
		flag := ""
		if rec.Mispredicted {
			flag = "!"
		}
		fmt.Fprintf(&sb, "%4d %4d%s %3d %8d %8d %8d %8d %6d %5s |%s|\n",
			rec.Seq, rec.TaskID, flag, rec.PU, rec.Assign, rec.Start, rec.Complete,
			rec.Retire, rec.Instrs, rec.Exit, string(bar))
	}
	return sb.String()
}

// Utilization computes the fraction of PU-cycles spent holding live tasks
// (start to retire) over the recorded span — a coarse occupancy figure. The
// span runs from the first assignment to the last retire, so a timeline that
// begins late in a run (or a truncated slice of one) is measured against its
// own extent, not against cycle 0.
func (tl Timeline) Utilization(numPUs int) float64 {
	if len(tl) == 0 {
		return 0
	}
	var busy, total int64
	end := tl[len(tl)-1].Retire
	for _, rec := range tl {
		busy += rec.Retire - rec.Start
	}
	total = (end - tl[0].Assign) * int64(numPUs)
	if total <= 0 {
		return 0
	}
	u := float64(busy) / float64(total)
	if u > 1 {
		u = 1
	}
	return u
}
