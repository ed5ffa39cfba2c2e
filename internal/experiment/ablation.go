package experiment

import (
	"context"
	"fmt"
	"strings"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/sim"
)

// AblationRow is one point of a one-dimensional sweep.
type AblationRow struct {
	Workload string
	Label    string // parameter setting, e.g. "N=2"
	IPC      float64
	Extra    string // auxiliary metric (violations, accuracy, ...)
}

// sweep runs one ablation point per (workload, setting) pair concurrently
// on the runner's engine, keeping rows in workload-major order.
func sweep(ctx context.Context, n int, fn func(i int) (AblationRow, error)) ([]AblationRow, error) {
	rows := make([]AblationRow, n)
	err := grid.RunAll(ctx, n, func(i int) error {
		row, err := fn(i)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// AblationTargets sweeps the hardware target limit N (the paper fixes 4):
// fewer trackable successors truncate feasible tasks; more relax the
// control-flow heuristic.
func AblationTargets(r *Runner, names []string, ns []int) ([]AblationRow, error) {
	if len(ns) == 0 {
		ns = []int{2, 4, 8}
	}
	return sweep(r.context(), len(names)*len(ns), func(i int) (AblationRow, error) {
		name, n := names[i/len(ns)], ns[i%len(ns)]
		res, err := r.Run(name, CF, SimConfig{PUs: 8, Targets: n})
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Workload: name,
			Label:    fmt.Sprintf("N=%d", n),
			IPC:      res.IPC,
			Extra:    fmt.Sprintf("taskpred=%.1f%% size=%.1f", 100*res.TaskPredAccuracy, res.AvgTaskSize),
		}, nil
	})
}

// AblationSync compares the memory dependence synchronization table on/off.
func AblationSync(r *Runner, names []string) ([]AblationRow, error) {
	return sweep(r.context(), len(names)*2, func(i int) (AblationRow, error) {
		name, noSync := names[i/2], i%2 == 1
		res, err := r.Run(name, DD, SimConfig{PUs: 8, NoSyncTable: noSync})
		if err != nil {
			return AblationRow{}, err
		}
		label := "sync=on"
		if noSync {
			label = "sync=off"
		}
		return AblationRow{
			Workload: name,
			Label:    label,
			IPC:      res.IPC,
			Extra:    fmt.Sprintf("violations=%d restarts=%d syncwaits=%d", res.Violations, res.Restarts, res.SyncWaits),
		}, nil
	})
}

// AblationRing sweeps the register communication ring bandwidth.
func AblationRing(r *Runner, names []string, bws []int) ([]AblationRow, error) {
	if len(bws) == 0 {
		bws = []int{1, 2, 4}
	}
	return sweep(r.context(), len(names)*len(bws), func(i int) (AblationRow, error) {
		name, bw := names[i/len(bws)], bws[i%len(bws)]
		res, err := r.Run(name, DD, SimConfig{PUs: 8, RingBW: bw})
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Workload: name,
			Label:    fmt.Sprintf("ring=%d/cyc", bw),
			IPC:      res.IPC,
		}, nil
	})
}

// AblationBanks sweeps the L1 D-cache bank count (the paper interleaves one
// bank per PU).
func AblationBanks(r *Runner, names []string, banks []int) ([]AblationRow, error) {
	if len(banks) == 0 {
		banks = []int{1, 4, 8}
	}
	return sweep(r.context(), len(names)*len(banks), func(i int) (AblationRow, error) {
		name, nb := names[i/len(banks)], banks[i%len(banks)]
		res, err := r.Run(name, CF, SimConfig{PUs: 8, L1DBanks: nb})
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Workload: name,
			Label:    fmt.Sprintf("banks=%d", nb),
			IPC:      res.IPC,
		}, nil
	})
}

// AblationGreedy compares the paper's greedy feasible-task search (which
// explores past the target limit hunting for reconverging control flow)
// against a first-fit baseline that stops at the limit. The non-standard
// selection options go straight to the grid engine, which keys partitions
// on the full option set.
func AblationGreedy(r *Runner, names []string) ([]AblationRow, error) {
	return sweep(r.context(), len(names)*2, func(i int) (AblationRow, error) {
		name, noGreedy := names[i/2], i%2 == 1
		label := "greedy"
		if noGreedy {
			label = "first-fit"
		}
		res, err := r.runJob(label, grid.Job{
			Workload: name,
			Select:   core.Options{Heuristic: core.ControlFlow, NoGreedy: noGreedy},
			Config:   sim.DefaultConfig(8),
		})
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Workload: name,
			Label:    label,
			IPC:      res.IPC,
			Extra:    fmt.Sprintf("size=%.1f", res.AvgTaskSize),
		}, nil
	})
}

// AblationThresh sweeps the task-size heuristic's CALL_THRESH and
// LOOP_THRESH around the paper's value of 30 (again as direct grid jobs
// with non-standard selection options).
func AblationThresh(r *Runner, names []string, threshes []int) ([]AblationRow, error) {
	if len(threshes) == 0 {
		threshes = []int{10, 30, 90}
	}
	return sweep(r.context(), len(names)*len(threshes), func(i int) (AblationRow, error) {
		name, th := names[i/len(threshes)], threshes[i%len(threshes)]
		label := fmt.Sprintf("thresh=%d", th)
		res, err := r.runJob(label, grid.Job{
			Workload: name,
			Select: core.Options{
				Heuristic:  core.DataDependence,
				TaskSize:   true,
				CallThresh: th,
				LoopThresh: th,
			},
			Config: sim.DefaultConfig(8),
		})
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Workload: name,
			Label:    label,
			IPC:      res.IPC,
			Extra:    fmt.Sprintf("size=%.1f", res.AvgTaskSize),
		}, nil
	})
}

// ablationWorkloads are the ablations' default workloads, chosen for
// sensitivity: perl/vortex expose the target limit, wave5 exercises the ARB
// and synchronization table, compress and tomcatv show the ring bandwidth.
var ablationWorkloads = []string{"compress", "perl", "vortex", "wave5", "tomcatv"}

// Ablations runs the report's five ablation tables over names (nil =
// ablationWorkloads) and renders them in order, titled and separated by
// blank lines, as `msreport -experiment ablations` prints them.
func Ablations(r *Runner, names []string) (string, error) {
	if len(names) == 0 {
		names = ablationWorkloads
	}
	tables := []struct {
		title string
		run   func() ([]AblationRow, error)
	}{
		{"hardware target limit N", func() ([]AblationRow, error) { return AblationTargets(r, names, nil) }},
		{"memory dependence synchronization", func() ([]AblationRow, error) { return AblationSync(r, names) }},
		{"register ring bandwidth", func() ([]AblationRow, error) { return AblationRing(r, names, nil) }},
		{"L1 D-cache banks", func() ([]AblationRow, error) { return AblationBanks(r, names, nil) }},
		{"greedy vs first-fit task growth", func() ([]AblationRow, error) { return AblationGreedy(r, names) }},
	}
	var sb strings.Builder
	for i, tb := range tables {
		rows, err := tb.run()
		if err != nil {
			return "", err
		}
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(FormatAblation(tb.title, rows))
	}
	return sb.String(), nil
}

// FormatAblation renders ablation rows grouped by workload.
func FormatAblation(title string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: %s\n", title)
	fmt.Fprintf(&sb, "%-10s %-12s %8s  %s\n", "benchmark", "setting", "IPC", "notes")
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-10s %-12s %8.3f  %s\n", row.Workload, row.Label, row.IPC, row.Extra)
	}
	return sb.String()
}
