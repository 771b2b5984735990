//go:build unix

package sim

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"testing"
	"time"
)

// cpuTime returns the CPU time the process has used. Unlike wall time it
// does not grow while other processes hold the CPU, which on a shared
// host stretches a long run more than a short one.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// flushOneSlot schedules n events into the level-0 slot that starts ahead
// of the engine's clock, and returns the CPU time to run them all. Event i
// falls at offset order[i] of n evenly spaced offsets across the slot
// (order nil means i: time order). Within the wheel's level-0 reach the
// slot's chain holds them newest first; a millisecond out they first sit
// in a level-1 slot, whose cascade files them oldest first.
func flushOneSlot(e *Engine, n int, order []int, ahead Time) time.Duration {
	fn := func() {}
	base := (e.Now() + ahead) &^ (1<<shift0 - 1)
	for i := 0; i < n; i++ {
		k := i
		if order != nil {
			k = order[i]
		}
		e.ScheduleAt(base+Time(k*(1<<shift0)/n), fn)
	}
	start := cpuTime()
	e.Run()
	return cpuTime() - start
}

// TestWheelSlotFlushScales requires a slot flush to stay near O(n log n):
// eight times the events in one slot may cost at most 20 times the CPU
// time. An O(n log n) sort predicts 10.2 times (8 × log 16000 / log 2000)
// and a sorted run 8; the insertion sort this replaced cost 64 times in
// theory and measured 86 times on a chain that arrives newest first. Two
// input shapes run, each straight into level 0 and through a level-1
// cascade: events scheduled in time order, the shape of a burst of timers
// armed at one instant, and the same offsets in a seeded random order,
// which no reversal puts in order. Both sizes keep the slab within a
// core's L2 cache, so the ratio measures the algorithm, not the memory
// hierarchy. Each size runs on its own engine, warmed by one untimed round
// so the slab and near ring are grown, the collector is off while they
// run, the sizes alternate, and the median of the rounds' ratios decides.
func TestWheelSlotFlushScales(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n, rounds, maxRatio = 2_000, 15, 20
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name         string
		small, large []int
	}{
		{"time order", nil, nil},
		{"random order", rng.Perm(n), rng.Perm(8 * n)},
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, sh := range shapes {
		for _, ahead := range []Time{100 * Microsecond, Millisecond} {
			small, large := NewEngine(1), NewEngine(1)
			flushOneSlot(small, n, sh.small, ahead)
			flushOneSlot(large, 8*n, sh.large, ahead)
			ratios := make([]float64, rounds)
			for i := range ratios {
				s := flushOneSlot(small, n, sh.small, ahead)
				ratios[i] = float64(flushOneSlot(large, 8*n, sh.large, ahead)) / float64(max(s, 1))
			}
			sort.Float64s(ratios)
			ratio := ratios[rounds/2]
			t.Logf("%s, %v ahead: %d events in one slot cost %.1fx the CPU time of %d",
				sh.name, ahead, 8*n, ratio, n)
			if ratio > maxRatio {
				t.Errorf("%s, %v ahead: %d events in one slot cost %.1fx the CPU time of %d, want at most %dx",
					sh.name, ahead, 8*n, ratio, n, maxRatio)
			}
		}
	}
}
