package predict

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGshareLearnsAlwaysTaken(t *testing.T) {
	g := NewGshare(10)
	pc := uint64(0x1000)
	for i := 0; i < 100; i++ {
		g.Update(pc, true)
	}
	if !g.Predict(pc) {
		t.Error("did not learn always-taken")
	}
	if g.Lookups != 100 {
		t.Errorf("lookups = %d", g.Lookups)
	}
}

func TestGshareLearnsAlternatingWithHistory(t *testing.T) {
	// With global history, a strict alternation is learnable: after warmup
	// the mispredict rate must drop well below 50%.
	g := NewGshare(10)
	pc := uint64(0x2000)
	for i := 0; i < 500; i++ {
		g.Update(pc, i%2 == 0)
	}
	before := g.Mispredicts
	for i := 500; i < 1500; i++ {
		g.Update(pc, i%2 == 0)
	}
	late := g.Mispredicts - before
	if late > 100 {
		t.Errorf("alternating pattern still mispredicts %d/1000 after warmup", late)
	}
}

func TestGshareCounterSaturation(t *testing.T) {
	g := NewGshare(4)
	f := func(pc uint64, outcomes []bool) bool {
		for _, o := range outcomes {
			g.Update(pc, o)
		}
		for _, c := range g.table {
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPathPredictorLearnsStableTarget(t *testing.T) {
	p := NewPathPredictor(10, 4)
	pc := uint64(0x3000)
	miss := 0
	for i := 0; i < 200; i++ {
		pred := p.Predict(pc)
		if !p.Resolve(pc, pred, 2) {
			miss++
		}
		p.Speculate(pc)
	}
	if p.Predict(pc) != 2 {
		t.Errorf("did not converge to target 2, predicts %d", p.Predict(pc))
	}
	if miss > 10 {
		t.Errorf("%d misses on a constant target", miss)
	}
}

func TestPathPredictorHysteresis(t *testing.T) {
	p := NewPathPredictor(10, 4)
	pc := uint64(0x4000)
	for i := 0; i < 50; i++ {
		p.Resolve(pc, p.Predict(pc), 1)
	}
	// One glitch must not flip the stored target.
	p.Resolve(pc, p.Predict(pc), 3)
	if p.Predict(pc) != 1 {
		t.Error("single outlier flipped a saturated entry")
	}
}

func TestPathPredictorOutOfRangeTargetAlwaysMisses(t *testing.T) {
	p := NewPathPredictor(10, 4)
	pc := uint64(0x5000)
	for i := 0; i < 20; i++ {
		if p.Resolve(pc, p.Predict(pc), 6) {
			t.Fatal("target 6 counted as correct with 4 hardware slots")
		}
	}
	if p.Predict(pc) >= 4 {
		t.Error("prediction out of hardware range")
	}
}

func TestPathPredictorNegativeActual(t *testing.T) {
	p := NewPathPredictor(8, 4)
	if p.Resolve(0x10, 0, -1) {
		t.Error("actual=-1 treated as correct")
	}
}

func TestPathPredictorAccuracy(t *testing.T) {
	p := NewPathPredictor(8, 4)
	if p.Accuracy() != 1 {
		t.Error("accuracy without lookups should be 1")
	}
	p.Resolve(0x10, 0, 1)
	p.Resolve(0x10, p.Predict(0x10), 1)
	if a := p.Accuracy(); a < 0 || a > 1 {
		t.Errorf("accuracy %v out of range", a)
	}
}

func TestPathHistoryDistinguishesPaths(t *testing.T) {
	// The same task reached along different paths should use different
	// entries: train path A->X to target 0 and B->X to target 1.
	p := NewPathPredictor(12, 4)
	a, b, x := uint64(0x100), uint64(0x200), uint64(0x300)
	for i := 0; i < 100; i++ {
		p.history = 0
		p.Speculate(a)
		p.Resolve(x, p.Predict(x), 0)
		p.history = 0
		p.Speculate(b)
		p.Resolve(x, p.Predict(x), 1)
	}
	p.history = 0
	p.Speculate(a)
	ta := p.Predict(x)
	p.history = 0
	p.Speculate(b)
	tb := p.Predict(x)
	if ta != 0 || tb != 1 {
		t.Errorf("path-sensitivity failed: after A predicts %d (want 0), after B predicts %d (want 1)", ta, tb)
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	for i := uint64(1); i <= 3; i++ {
		r.Push(i)
	}
	for want := uint64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("Pop on empty succeeded")
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // displaces 1
	if r.Overflows != 1 {
		t.Errorf("overflows = %d", r.Overflows)
	}
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("top = %d", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("second = %d", v)
	}
	if _, ok := r.Pop(); ok {
		t.Error("oldest entry survived overflow")
	}
}

// TestResetMatchesFresh trains each predictor, resets it to a new size, and
// checks that it then predicts exactly as a new one does.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, p, r := NewGshare(12), NewPathPredictor(12, 4), NewRAS(4)
	for run, bits := range []uint{12, 8, 12, 10} {
		g.Reset(bits)
		p.Reset(bits, 1+run)
		r.Reset(2 + run)
		fg, fp, fr := NewGshare(bits), NewPathPredictor(bits, 1+run), NewRAS(2+run)
		for i := 0; i < 5000; i++ {
			pc, taken, target := uint64(rng.Intn(64))*4, rng.Intn(3) > 0, rng.Intn(6)-1
			if g.Update(pc, taken) != fg.Update(pc, taken) {
				t.Fatalf("run %d: gshare update %d disagrees with a fresh one", run, i)
			}
			pred := p.Predict(pc)
			if pred != fp.Predict(pc) || p.Resolve(pc, pred, target) != fp.Resolve(pc, pred, target) {
				t.Fatalf("run %d: path predictor step %d disagrees with a fresh one", run, i)
			}
			p.Speculate(pc)
			fp.Speculate(pc)
			if taken {
				r.Push(pc)
				fr.Push(pc)
			} else {
				v, ok := r.Pop()
				if w, fok := fr.Pop(); v != w || ok != fok {
					t.Fatalf("run %d: RAS pop %d disagrees with a fresh one", run, i)
				}
			}
		}
		if g.Mispredicts != fg.Mispredicts || p.Accuracy() != fp.Accuracy() || r.Overflows != fr.Overflows {
			t.Fatalf("run %d: counts differ from fresh predictors", run)
		}
	}
}

// resetCases are the table sizes the reset tests train at and reset to:
// the same size, a smaller one, a larger one, and sizes below one chunk.
var resetCases = []struct{ from, to uint }{
	{10, 10}, {16, 16}, {12, 9}, {9, 12}, {4, 4}, {3, 8}, {8, 3},
}

// TestGshareResetMatchesNew trains a predictor at random, resets it, and
// requires every entry, the history, the counts and the next predictions
// and updates to equal a new predictor's. Each case trains and resets one
// predictor three times, so resets follow resets.
func TestGshareResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range resetCases {
		g := NewGshare(c.from)
		for round := 0; round < 3; round++ {
			for i := 0; i < 1+rng.Intn(2000); i++ {
				g.Update(uint64(rng.Intn(1<<20))<<2, rng.Intn(3) == 0)
			}
			g.Reset(c.to)
			fresh := NewGshare(c.to)
			if !reflect.DeepEqual(g, fresh) {
				t.Fatalf("%d→%d bits, round %d: reset predictor differs from a new one", c.from, c.to, round)
			}
			for i := 0; i < 500; i++ {
				pc, taken := uint64(rng.Intn(1<<20))<<2, rng.Intn(2) == 0
				if g.Predict(pc) != fresh.Predict(pc) || g.Update(pc, taken) != fresh.Update(pc, taken) {
					t.Fatalf("%d→%d bits, round %d: prediction %d differs from a new predictor's", c.from, c.to, round, i)
				}
			}
			g.Reset(c.from)
		}
	}
}

// TestPathPredictorResetMatchesNew is TestGshareResetMatchesNew for the
// inter-task predictor.
func TestPathPredictorResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range resetCases {
		p := NewPathPredictor(c.from, 4)
		for round := 0; round < 3; round++ {
			for i := 0; i < 1+rng.Intn(2000); i++ {
				pc := uint64(rng.Intn(1<<20)) << 2
				p.Resolve(pc, p.Predict(pc), rng.Intn(6)-1)
				p.Speculate(uint64(rng.Intn(1<<20)) << 2)
			}
			p.Reset(c.to, 4)
			fresh := NewPathPredictor(c.to, 4)
			if !reflect.DeepEqual(p, fresh) {
				t.Fatalf("%d→%d bits, round %d: reset predictor differs from a new one", c.from, c.to, round)
			}
			for i := 0; i < 500; i++ {
				pc, next, actual := uint64(rng.Intn(1<<20))<<2, uint64(rng.Intn(1<<20))<<2, rng.Intn(6)-1
				a, b := p.Predict(pc), fresh.Predict(pc)
				if a != b || p.Resolve(pc, a, actual) != fresh.Resolve(pc, b, actual) {
					t.Fatalf("%d→%d bits, round %d: prediction %d differs from a new predictor's", c.from, c.to, round, i)
				}
				p.Speculate(next)
				fresh.Speculate(next)
			}
			p.Reset(c.from, 4)
		}
	}
}
