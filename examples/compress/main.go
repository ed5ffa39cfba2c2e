// Compress: a deep dive into the paper's motivating workload. Shows the
// static tasks the data-dependence heuristic selects for the LZW hash loop,
// the dynamic task stream (sizes, exit targets), and how the ARB +
// synchronization table handle the hash-table memory dependences.
package main

import (
	"fmt"
	"log"
	"sort"

	"multiscalar"
)

func main() {
	w, err := multiscalar.WorkloadByName("compress")
	if err != nil {
		log.Fatal(err)
	}
	part, err := multiscalar.Select(w.Build(), multiscalar.Options{
		Heuristic: multiscalar.DataDependence,
		TaskSize:  true, // compress is one of the two benchmarks that respond
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("compress under the data-dependence + task-size heuristics: %d static tasks\n\n", len(part.Tasks))
	for _, t := range part.Tasks {
		fmt.Printf("  task %d: entry b%-3d blocks %v targets %v\n", t.ID, t.Entry, t.Blocks, t.Targets)
	}

	// Walk the dynamic task stream: how big are instances, where do they exit?
	instances := map[int]int{}
	sizes := map[int]int{}
	total := 0
	err = multiscalar.WalkTasks(part, 10_000_000, func(te multiscalar.TaskExec) {
		instances[te.Task.ID]++
		sizes[te.Task.ID] += te.DynInstrs
		total += te.DynInstrs
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndynamic stream: %d instructions in task instances\n", total)
	var ids []int
	for id := range instances {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  task %d: %6d instances, avg %5.1f instrs\n",
			id, instances[id], float64(sizes[id])/float64(instances[id]))
	}

	// The hash table makes neighbor iterations collide through memory: watch
	// the ARB and the synchronization table tame the violations.
	fmt.Println("\nmemory dependence speculation on 4 out-of-order PUs:")
	for _, syncOn := range []bool{false, true} {
		cfg := multiscalar.DefaultConfig(4)
		cfg.SyncTable = syncOn
		res, err := multiscalar.Simulate(part, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  sync table %-3v: IPC %.3f, %d violations, %d restarts, %d sync waits\n",
			syncOn, res.IPC, res.Violations, res.Restarts, res.SyncWaits)
	}
}
