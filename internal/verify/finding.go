package verify

import (
	"fmt"
	"sort"
	"strings"

	"multiscalar/internal/ir"
)

// Severity grades a finding. Only SevError findings indicate a partition the
// Multiscalar hardware could mis-execute; warnings flag suspicious but
// recoverable shapes, and infos are advisory reports.
type Severity uint8

// Severities, most severe last so they order naturally.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

// String names the severity as mslint prints it.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// RuleID names one rule of the catalog. IRxxx rules check the program alone;
// PTxxx rules check a partition against its program. The catalog (with the
// paper invariant each rule encodes) is documented in DESIGN.md §7.
type RuleID string

// The rule catalog.
const (
	// IR layer.
	RuleInvalidIR     RuleID = "IR000" // ir.Validate rejected the program
	RuleUnreachable   RuleID = "IR001" // block unreachable from function entry
	RuleUndefUse      RuleID = "IR002" // register read with no definition on any path
	RuleDeadStore     RuleID = "IR003" // definition that no execution can observe
	RuleUndefBranch   RuleID = "IR004" // branch condition never defined on any path
	RuleRecursiveCall RuleID = "IR005" // call-graph cycle (recursion depth report)

	// Partition layer.
	RuleCoverage      RuleID = "PT001" // reachable block belongs to no task
	RuleConnected     RuleID = "PT002" // task member unreachable from the task entry
	RuleSingleEntry   RuleID = "PT003" // side entrance / entry re-entry via continue edges
	RuleTargetLimit   RuleID = "PT004" // more targets than the hardware tracks
	RuleTargetSet     RuleID = "PT005" // Targets disagree with the CFG exit-edge successors
	RuleCreateMask    RuleID = "PT006" // create mask misses a live register the task may write
	RuleForwardPoint  RuleID = "PT007" // forward point unsound or register never released
	RuleCallInclusion RuleID = "PT008" // IncludedCalls / FnIncluded inconsistency
	RulePartIndex     RuleID = "PT009" // task index / target-task existence broken
	RuleDeadForward   RuleID = "PT010" // create-mask register with no forward point anywhere (dead mask bit)
)

// Finding is one rule violation (or report) at a location.
type Finding struct {
	Rule RuleID
	Sev  Severity

	// Fn and Blk locate the finding; Blk is ir.NoBlock for function- or
	// program-level findings. FnName is carried for printing.
	Fn     ir.FnID
	FnName string
	Blk    ir.BlockID

	// Task is the ID of the offending task, or -1 for IR-layer findings.
	Task int

	Msg string
}

// String renders the finding on one line, mslint's output format.
func (f Finding) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s", f.Sev, f.Rule)
	if f.Task >= 0 {
		fmt.Fprintf(&sb, " task %d", f.Task)
	}
	if f.FnName != "" {
		fmt.Fprintf(&sb, " fn %s", f.FnName)
	}
	if f.Blk != ir.NoBlock {
		fmt.Fprintf(&sb, " b%d", f.Blk)
	}
	sb.WriteString(": ")
	sb.WriteString(f.Msg)
	return sb.String()
}

// Findings is an ordered list of findings.
type Findings []Finding

// Sort orders findings deterministically: errors first, then by rule, task,
// function, block, and message — so repeated runs and golden tests see one
// canonical order.
func (fs Findings) Sort() {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Blk != b.Blk {
			return a.Blk < b.Blk
		}
		return a.Msg < b.Msg
	})
}

// Errors returns the number of error-severity findings.
func (fs Findings) Errors() int { return fs.countSev(SevError) }

// Warnings returns the number of warning-severity findings.
func (fs Findings) Warnings() int { return fs.countSev(SevWarn) }

func (fs Findings) countSev(s Severity) int {
	n := 0
	for _, f := range fs {
		if f.Sev == s {
			n++
		}
	}
	return n
}

// MinSeverity returns the findings at or above the given severity.
func (fs Findings) MinSeverity(s Severity) Findings {
	var out Findings
	for _, f := range fs {
		if f.Sev >= s {
			out = append(out, f)
		}
	}
	return out
}

// String renders one finding per line.
func (fs Findings) String() string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
