// Package predict implements the prediction hardware of the paper's §4.2:
// a gshare branch predictor for intra-task branches (16-bit history, 64K
// two-bit counters) and a path-based inter-task predictor (16-bit path
// history, 64K entries of a two-bit counter plus a two-bit target number),
// plus the return-address stack the sequencer uses to resolve return targets.
package predict

// Gshare is the intra-task conditional branch predictor.
type Gshare struct {
	history uint32
	bits    uint
	mask    uint32
	// table holds 2-bit saturating counters (taken >= 2), each stored XOR 2
	// so that zeroed memory reads as weakly taken: building or resetting the
	// table is a clear.
	table []uint8

	// Lookups and Mispredicts count accesses for reporting.
	Lookups, Mispredicts uint64
}

// NewGshare returns a gshare predictor with historyBits of global history and
// a table of 1<<historyBits two-bit counters (16 -> 64K entries, as in the
// paper).
func NewGshare(historyBits uint) *Gshare {
	g := new(Gshare)
	g.Reset(historyBits)
	return g
}

// Reset returns every counter to weakly taken and zeroes the history and
// the counts, leaving g equal to NewGshare(historyBits).
func (g *Gshare) Reset(historyBits uint) {
	size := 1 << historyBits
	g.table = cleared(g.table, size)
	g.history, g.bits, g.mask = 0, historyBits, uint32(size-1)
	g.Lookups, g.Mispredicts = 0, 0
}

// cleared returns s resized to n zero elements, reusing its array when it
// is large enough.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (g *Gshare) index(pc uint64) uint32 {
	return (uint32(pc>>2) ^ g.history) & g.mask
}

// counter returns the two-bit counter at i.
func (g *Gshare) counter(i uint32) uint8 { return g.table[i] ^ 2 }

// Predict returns the taken/not-taken prediction for the branch at pc.
func (g *Gshare) Predict(pc uint64) bool {
	return g.counter(g.index(pc)) >= 2
}

// Update trains the predictor with the actual outcome and shifts the global
// history. It returns whether the prediction (made against the pre-update
// state) was correct, and bumps the counters.
func (g *Gshare) Update(pc uint64, taken bool) bool {
	i := g.index(pc)
	c := g.counter(i)
	pred := c >= 2
	if taken && c < 3 {
		c++
	}
	if !taken && c > 0 {
		c--
	}
	g.table[i] = c ^ 2
	bit := uint32(0)
	if taken {
		bit = 1
	}
	g.history = ((g.history << 1) | bit) & g.mask
	g.Lookups++
	if pred != taken {
		g.Mispredicts++
	}
	return pred == taken
}

// PathPredictor is the inter-task next-task predictor: a path history of
// recent task start addresses indexes a table whose entries hold a two-bit
// hysteresis counter and a target number selecting among the task's static
// targets (up to MaxTargets).
type PathPredictor struct {
	history uint32
	mask    uint32
	entries []pathEntry

	// MaxTargets is the number of successor slots the hardware tracks (the
	// paper's N = 4, two-bit target numbers). Predicted numbers are always in
	// [0, MaxTargets); actual targets beyond that always mispredict, modeling
	// tasks with more successors than the hardware can track.
	MaxTargets int

	// Lookups and Mispredicts count predictions for Table 1's task pred.
	Lookups, Mispredicts uint64
}

type pathEntry struct {
	counter uint8 // 2-bit hysteresis
	target  uint8
}

// NewPathPredictor returns a path-based predictor with historyBits of path
// history (16 -> 64K entries) tracking maxTargets successors per task.
func NewPathPredictor(historyBits uint, maxTargets int) *PathPredictor {
	p := new(PathPredictor)
	p.Reset(historyBits, maxTargets)
	return p
}

// Reset clears every entry, the path history and the counts, leaving p
// equal to NewPathPredictor(historyBits, maxTargets).
func (p *PathPredictor) Reset(historyBits uint, maxTargets int) {
	size := 1 << historyBits
	p.entries = cleared(p.entries, size)
	p.history, p.mask, p.MaxTargets = 0, uint32(size-1), maxTargets
	p.Lookups, p.Mispredicts = 0, 0
}

func (p *PathPredictor) index(taskPC uint64) uint32 {
	return (uint32(taskPC>>2) ^ p.history) & p.mask
}

// Predict returns the predicted target number for the task starting at
// taskPC. Call Speculate or Resolve afterwards to advance the path history.
func (p *PathPredictor) Predict(taskPC uint64) int {
	e := p.entries[p.index(taskPC)]
	t := int(e.target)
	if t >= p.MaxTargets {
		t = 0
	}
	return t
}

// Speculate shifts the predicted next task's start address into the path
// history (the sequencer predicts several tasks ahead, so history updates
// are speculative, as in hardware).
func (p *PathPredictor) Speculate(nextTaskPC uint64) {
	p.history = ((p.history << 3) ^ uint32(nextTaskPC>>2)) & p.mask
}

// Resolve trains the entry for the task at taskPC with the actual target
// number and records accuracy. actual < 0 (target not in the static list)
// always counts as a misprediction and trains slot 0.
func (p *PathPredictor) Resolve(taskPC uint64, predicted, actual int) bool {
	p.Lookups++
	correct := predicted == actual && actual >= 0 && actual < p.MaxTargets
	if !correct {
		p.Mispredicts++
	}
	i := p.index(taskPC)
	e := &p.entries[i]
	act := uint8(0)
	if actual >= 0 && actual < p.MaxTargets {
		act = uint8(actual)
	}
	if e.target == act {
		if e.counter < 3 {
			e.counter++
		}
	} else {
		if e.counter > 0 {
			e.counter--
		} else {
			e.target = act
			e.counter = 1
		}
	}
	return correct
}

// Accuracy returns the fraction of correct predictions so far (1.0 when no
// lookups have happened).
func (p *PathPredictor) Accuracy() float64 {
	if p.Lookups == 0 {
		return 1
	}
	return 1 - float64(p.Mispredicts)/float64(p.Lookups)
}

// RAS is a return-address stack used by the sequencer to resolve
// TargetReturn successors. Entries are opaque uint64 tokens (the caller
// stores task entry encodings).
type RAS struct {
	stack []uint64
	cap   int

	// Overflows counts pushes that displaced the oldest entry.
	Overflows uint64
}

// NewRAS returns a return-address stack with the given capacity.
func NewRAS(capacity int) *RAS { return &RAS{cap: capacity} }

// Reset empties the stack and zeroes its count, leaving r equal to
// NewRAS(capacity).
func (r *RAS) Reset(capacity int) {
	r.stack, r.cap, r.Overflows = r.stack[:0], capacity, 0
}

// Push records a return address.
func (r *RAS) Push(v uint64) {
	if len(r.stack) == r.cap {
		copy(r.stack, r.stack[1:])
		r.stack = r.stack[:len(r.stack)-1]
		r.Overflows++
	}
	r.stack = append(r.stack, v)
}

// Pop returns the most recent return address, or 0,false when empty.
func (r *RAS) Pop() (uint64, bool) {
	if len(r.stack) == 0 {
		return 0, false
	}
	v := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	return v, true
}

// Depth returns the current number of entries.
func (r *RAS) Depth() int { return len(r.stack) }
