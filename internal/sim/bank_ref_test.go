package sim

import (
	"math/rand"
	"testing"
)

// refBankSched is the map-based bank scheduler the bitmap one replaced,
// kept as a reference model: one map entry per claimed (bank, cycle), and a
// prune that walks the whole map.
type refBankSched struct {
	banks int
	use   map[bankSlot]bool
	floor int64
}

type bankSlot struct {
	bank  int
	cycle int64
}

func newRefBankSched(banks int) *refBankSched {
	if banks < 1 {
		banks = 1
	}
	return &refBankSched{banks: banks, use: make(map[bankSlot]bool)}
}

func (b *refBankSched) schedule(addr uint64, t int64) int64 {
	bank := int((addr >> 5) % uint64(b.banks))
	if t < b.floor {
		t = b.floor
	}
	for b.use[bankSlot{bank: bank, cycle: t}] {
		t++
	}
	b.use[bankSlot{bank: bank, cycle: t}] = true
	return t
}

func (b *refBankSched) prune(watermark int64) {
	if watermark <= b.floor {
		return
	}
	for slot := range b.use {
		if slot.cycle < watermark {
			delete(b.use, slot)
		}
	}
	b.floor = watermark
}

// TestBankSchedMatchesReference drives the bitmap scheduler and the
// reference model with the same seeded random requests and compares every
// granted cycle. Requests cluster so banks conflict, reach below the floor
// and far past the bitmap's end, and prunes move the floor across 64-cycle
// word boundaries (and sometimes backwards, which must be a no-op).
func TestBankSchedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		matchBankReference(t, seed, func(banks int) *bankSched {
			b := new(bankSched)
			b.reset(banks)
			return b
		})
	}
}

// TestResetBankSchedMatchesReference runs the same requests on one
// scheduler, reset before each seed to that seed's bank count: its bitmaps
// come back longer or shorter than new ones, and hold the last seed's bits.
func TestResetBankSchedMatchesReference(t *testing.T) {
	b := new(bankSched)
	for seed := int64(1); seed <= 40; seed++ {
		matchBankReference(t, seed, func(banks int) *bankSched {
			b.reset(banks)
			return b
		})
	}
}

// matchBankReference drives the scheduler that sched returns for a bank
// count, and the reference model, with seed's requests.
func matchBankReference(t *testing.T, seed int64, sched func(banks int) *bankSched) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	banks := rng.Intn(9) // 0 selects one bank
	got, want := sched(banks), newRefBankSched(banks)
	var now int64
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(20); {
		case op == 0:
			w := now - 50 + rng.Int63n(60)
			got.prune(w)
			want.prune(w)
		case op == 1:
			now += rng.Int63n(200)
		default:
			a := uint64(rng.Intn(64)) << 5
			c := now - 20 + rng.Int63n(100)
			if rng.Intn(50) == 0 {
				c += 1000 + rng.Int63n(5000)
			}
			if g, w := got.schedule(a, c), want.schedule(a, c); g != w {
				t.Fatalf("seed %d step %d: schedule(%#x, %d) = %d; reference %d", seed, step, a, c, g, w)
			}
		}
	}
}
