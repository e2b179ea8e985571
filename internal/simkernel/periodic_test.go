package simkernel

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// periodicLog drives periodic timers (EveryArg and Every), one-shots and
// schedules made from inside callbacks through shared milliseconds, and
// returns the firing log. Each entry is "name@time".
func periodicLog() []string {
	k := New(1)
	var log []string
	note := func(name string) { log = append(log, fmt.Sprintf("%s@%d", name, k.Now())) }

	var p TimerHandle
	k.At(15, func() { note("early") })
	p = k.EveryArg(5, 10, func(arg uint64) {
		note(fmt.Sprintf("p%d", arg))
		switch k.Now() {
		case 5:
			// Queued before p's own re-arm, so it runs ahead of p at 15.
			k.At(15, func() { note("cb5") })
		case 15:
			// Zero delay: after everything already queued for 15.
			k.After(0, func() { note("cb15") })
		case 35:
			p.Cancel()
		}
	}, 7)
	q := k.Every(15, 10, func() { note("q") })
	k.At(10, func() {
		// Scheduled after p's re-arm at 5, so it runs behind p at 15.
		k.At(15, func() { note("from10") })
	})
	k.At(25, func() { note("pre25") })
	k.At(45, func() { q.Cancel() })
	k.At(45, func() { note("post45") })
	k.Run(100)
	return log
}

// TestPeriodicFiringLog pins the exact firing order where periodic timers,
// one-shots and in-callback schedules share a millisecond. A periodic
// firing is re-armed after its callback returns with a fresh sequence
// number — exactly where an After(period) issued at the end of the
// callback would land — so same-instant FIFO is what a self-rescheduling
// callback produces.
func TestPeriodicFiringLog(t *testing.T) {
	want := strings.Join([]string{
		"p7@5",
		"early@15", "q@15", "cb5@15", "p7@15", "from10@15", "cb15@15",
		"pre25@25", "q@25", "p7@25",
		"q@35", "p7@35",
		"post45@45",
	}, " ")
	if got := strings.Join(periodicLog(), " "); got != want {
		t.Fatalf("firing log\n got %s\nwant %s", got, want)
	}
}

func TestPeriodicCancelInsideOwnCallback(t *testing.T) {
	k := New(1)
	fires := 0
	var p TimerHandle
	p = k.EveryArg(0, 10, func(uint64) {
		fires++
		if !p.Active() {
			t.Fatal("periodic timer inactive inside its own callback")
		}
		if fires == 3 && !p.Cancel() {
			t.Fatal("in-callback Cancel reported no-op")
		}
	}, 0)
	k.Run(1000)
	if fires != 3 {
		t.Fatalf("fired %d times, want 3", fires)
	}
	if p.Active() || k.Pending() != 0 {
		t.Fatalf("after in-callback cancel: active=%v pending=%d", p.Active(), k.Pending())
	}
	// The cancel left no heap record behind to elide.
	if k.Cancelled() != 1 || k.Elided() != 0 {
		t.Fatalf("cancelled=%d elided=%d, want 1 and 0", k.Cancelled(), k.Elided())
	}
}

func TestPeriodicCancelFromSameInstantEvent(t *testing.T) {
	t.Run("before the firing", func(t *testing.T) {
		k := New(1)
		var fires []Time
		var p TimerHandle
		k.At(20, func() { p.Cancel() }) // queued ahead of p's firing at 20
		p = k.Every(10, 10, func() { fires = append(fires, k.Now()) })
		k.Run(100)
		if len(fires) != 1 || fires[0] != 10 {
			t.Fatalf("fires = %v, want [10]", fires)
		}
		if k.Elided() != 1 {
			t.Fatalf("elided = %d, want 1 (the revoked firing at 20)", k.Elided())
		}
	})
	t.Run("after the firing", func(t *testing.T) {
		k := New(1)
		var fires []Time
		p := k.Every(10, 10, func() { fires = append(fires, k.Now()) })
		// Queued after p's re-arm at 10, so it runs behind p's firing at 20.
		k.At(12, func() { k.At(20, func() { p.Cancel() }) })
		k.Run(100)
		if len(fires) != 2 || fires[0] != 10 || fires[1] != 20 {
			t.Fatalf("fires = %v, want [10 20]", fires)
		}
		if k.Elided() != 1 {
			t.Fatalf("elided = %d, want 1 (the re-armed firing at 30)", k.Elided())
		}
	})
}

// A cancelled periodic slot goes back to the free list; whoever takes it
// next must not inherit the periodic behaviour, and the old handle must
// not reach the new owner.
func TestPeriodicSlotReuseDoesNotResurrect(t *testing.T) {
	t.Run("reused inside the callback", func(t *testing.T) {
		k := New(1)
		pFires, oneShot := 0, 0
		var p, reuse TimerHandle
		p = k.EveryArg(10, 10, func(uint64) {
			pFires++
			p.Cancel()
			reuse = k.After(5, func() { oneShot++ })
			if reuse.slot != p.slot {
				t.Fatalf("test premise broken: slot not reused (%d vs %d)", reuse.slot, p.slot)
			}
		}, 0)
		k.Run(1000)
		if pFires != 1 || oneShot != 1 {
			t.Fatalf("periodic fired %d times, one-shot %d, want 1 and 1", pFires, oneShot)
		}
		if p.Cancel() || p.Active() || k.Pending() != 0 {
			t.Fatalf("stale handle live: pending=%d", k.Pending())
		}
	})
	t.Run("reused by another periodic", func(t *testing.T) {
		k := New(1)
		var log []string
		old := k.Every(10, 10, func() { log = append(log, fmt.Sprintf("old@%d", k.Now())) })
		var fresh TimerHandle
		k.At(25, func() {
			old.Cancel()
			fresh = k.Every(7, 50, func() { log = append(log, fmt.Sprintf("new@%d", k.Now())) })
			if fresh.slot != old.slot {
				t.Fatalf("test premise broken: slot not reused (%d vs %d)", fresh.slot, old.slot)
			}
		})
		k.Run(100)
		// old's record for 30 carries the retired generation: elided.
		if got, want := strings.Join(log, " "), "old@10 old@20 new@32 new@82"; got != want {
			t.Fatalf("log = %q, want %q", got, want)
		}
		if old.Cancel() || !fresh.Active() {
			t.Fatal("stale handle reached the slot's new owner")
		}
	})
}

func TestPeriodicPendingActive(t *testing.T) {
	k := New(1)
	var p TimerHandle
	var inside []int
	p = k.EveryArg(10, 10, func(uint64) { inside = append(inside, k.Pending()) }, 0)
	k.At(15, func() {})
	if k.Pending() != 2 || !p.Active() {
		t.Fatalf("armed: pending=%d active=%v, want 2 true", k.Pending(), p.Active())
	}
	k.Run(35)
	// A periodic timer counts once, its own callback included.
	if got := fmt.Sprint(inside); got != "[2 1 1]" {
		t.Fatalf("Pending inside callback = %s, want [2 1 1]", got)
	}
	if k.Pending() != 1 || !p.Active() {
		t.Fatalf("between firings: pending=%d active=%v, want 1 true", k.Pending(), p.Active())
	}
	p.Cancel()
	if k.Pending() != 0 || p.Active() {
		t.Fatalf("cancelled: pending=%d active=%v, want 0 false", k.Pending(), p.Active())
	}
}

// A periodic timer adds no per-timer object, and the period rides in the
// slot without widening it: the arena stays at four words a slot.
func TestTimerSlotFourWords(t *testing.T) {
	if sz := unsafe.Sizeof(timerSlot{}); sz != 32 {
		t.Fatalf("timerSlot is %d bytes, want 32", sz)
	}
}
