package span

import (
	"io"
	"sort"

	"multiscalar/internal/obs"
)

// WriteChrome exports one completed trace as Chrome trace-event JSON, one
// process ("pid") per participating process — leader, each worker — with the
// root's process first, and greedy lane packing within each process so
// overlapping spans (parallel jobs in one sweep) land on separate tracks.
// Timestamps are microseconds relative to the earliest span, so moderate
// clock skew between machines shifts tracks but never produces negative
// times.
func WriteChrome(w io.Writer, td *TraceData) error {
	spans := append([]SpanData(nil), td.Spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Duration > spans[j].Duration
	})

	var base int64
	if len(spans) > 0 {
		base = spans[0].Start
	}

	// Stable pid assignment: root's process is pid 0, others sorted.
	procs := []string{td.Root.Process}
	seen := map[string]bool{td.Root.Process: true}
	var rest []string
	for _, s := range spans {
		if !seen[s.Process] {
			seen[s.Process] = true
			rest = append(rest, s.Process)
		}
	}
	sort.Strings(rest)
	procs = append(procs, rest...)
	pid := make(map[string]int, len(procs))
	for i, p := range procs {
		pid[p] = i
	}

	events := make([]obs.ChromeEvent, 0, len(spans)+len(procs))
	for i, p := range procs {
		events = append(events, obs.ChromeEvent{
			Name: "process_name", Ph: "M", Pid: i, Tid: 0,
			Args: map[string]any{"name": p},
		})
	}

	// lanes[pid] holds, per track, the end time (µs) of its last slice;
	// each span takes the first lane it fits on.
	lanes := make(map[int][]int64)
	for _, s := range spans {
		ts := (s.Start - base) / 1000
		dur := s.Duration / 1000
		args := map[string]any{
			"span_id":   string(s.SpanID),
			"parent_id": string(s.Parent),
			"status":    s.Status,
		}
		if s.Error != "" {
			args["error"] = s.Error
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		p := pid[s.Process]
		if s.Duration == 0 {
			// Instant events (Event markers such as lease reassignments).
			events = append(events, obs.ChromeEvent{
				Name: s.Name, Ph: "i", Ts: ts, Pid: p, Tid: 0, Scope: "t",
				Args: args,
			})
			continue
		}
		if dur < 1 {
			dur = 1
		}
		tid := 0
		for ; tid < len(lanes[p]); tid++ {
			if lanes[p][tid] <= ts {
				break
			}
		}
		if tid == len(lanes[p]) {
			lanes[p] = append(lanes[p], 0)
		}
		lanes[p][tid] = ts + dur
		events = append(events, obs.ChromeEvent{
			Name: s.Name, Ph: "X", Ts: ts, Dur: dur, Pid: p, Tid: tid,
			Args: args,
		})
	}
	return obs.WriteChromeEvents(w, events)
}
