package core

import (
	"fmt"
	"strings"
)

// Stats summarizes a partition's static structure — what mstask prints and
// what the paper's qualitative discussion of task characteristics is about.
type Stats struct {
	Tasks           int
	Blocks          int     // total member blocks (overlap counted per task)
	AvgBlocks       float64 // blocks per task
	AvgStaticInstrs float64 // static instructions per task
	MaxStaticInstrs int
	// TargetHistogram[n] counts tasks with n targets (index capped at 8).
	TargetHistogram [9]int
	AvgTargets      float64
	AvgCreateRegs   float64 // registers in the create mask per task
	IncludedCalls   int     // call sites executing inside tasks
	ReturnTasks     int     // tasks with a return target
}

// ComputeStats gathers static statistics for the partition.
func ComputeStats(p *Partition) Stats {
	var s Stats
	s.Tasks = len(p.Tasks)
	if s.Tasks == 0 {
		return s
	}
	var blocks, instrs, targets, regs int
	for _, t := range p.Tasks {
		blocks += len(t.Blocks)
		instrs += t.StaticInstrs
		if t.StaticInstrs > s.MaxStaticInstrs {
			s.MaxStaticInstrs = t.StaticInstrs
		}
		n := t.NumTargets()
		targets += n
		if n > 8 {
			n = 8
		}
		s.TargetHistogram[n]++
		regs += t.CreateMask.Count()
		s.IncludedCalls += len(t.IncludedCalls)
		for _, tgt := range t.Targets {
			if tgt.Kind == TargetReturn {
				s.ReturnTasks++
				break
			}
		}
	}
	s.Blocks = blocks
	s.AvgBlocks = float64(blocks) / float64(s.Tasks)
	s.AvgStaticInstrs = float64(instrs) / float64(s.Tasks)
	s.AvgTargets = float64(targets) / float64(s.Tasks)
	s.AvgCreateRegs = float64(regs) / float64(s.Tasks)
	return s
}

// String renders the statistics in a compact block.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tasks            %6d\n", s.Tasks)
	fmt.Fprintf(&sb, "blocks/task      %6.1f\n", s.AvgBlocks)
	fmt.Fprintf(&sb, "static instrs    %6.1f avg, %d max\n", s.AvgStaticInstrs, s.MaxStaticInstrs)
	fmt.Fprintf(&sb, "targets/task     %6.1f  histogram", s.AvgTargets)
	for n, c := range s.TargetHistogram {
		if c > 0 {
			fmt.Fprintf(&sb, " %d:%d", n, c)
		}
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "create regs/task %6.1f\n", s.AvgCreateRegs)
	fmt.Fprintf(&sb, "included calls   %6d\n", s.IncludedCalls)
	fmt.Fprintf(&sb, "return tasks     %6d\n", s.ReturnTasks)
	return sb.String()
}
