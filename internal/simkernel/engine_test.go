package simkernel

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// engineHarness is a miniature sharded workload: every cell runs a ticker
// that logs locally and posts mail to the next cell; mail is imported at
// barriers in (srcCell, FIFO) order. The full log therefore captures both
// intra-cell scheduling and the cross-cell rendezvous, so comparing logs
// across worker counts checks the determinism contract end to end.
type engineHarness struct {
	cells []*Kernel
	out   [][]mail   // per-src-cell outbox, drained at each barrier
	logs  [][]string // per-cell event log (only the owning cell appends)
	coord *Kernel    // serial coordination kernel drained at barriers
}

type mail struct {
	src, dst int
	at       Time
}

func newEngineHarness(numCells int, seed int64) *engineHarness {
	h := &engineHarness{
		cells: make([]*Kernel, numCells),
		out:   make([][]mail, numCells),
		logs:  make([][]string, numCells),
	}
	for i := range h.cells {
		h.cells[i] = New(int64(Mix64(uint64(seed) ^ uint64(i+1))))
	}
	h.coord = New(seed)
	for i := range h.cells {
		i := i
		period := Time(7 + 3*i)
		h.cells[i].Every(period, period, func() {
			k := h.cells[i]
			h.logs[i] = append(h.logs[i], fmt.Sprintf("c%d tick @%d", i, k.Now()))
			if k.Now()%3 == 0 { // some ticks post cross-cell mail
				h.out[i] = append(h.out[i], mail{src: i, dst: (i + 1) % numCells, at: k.Now() + 15})
			}
		})
	}
	h.coord.Every(50, 50, func() {
		h.logs[0] = append(h.logs[0], fmt.Sprintf("coord @%d", h.coord.Now()))
	})
	return h
}

func (h *engineHarness) barrier(b Time) uint64 {
	n := h.coord.Run(b)
	for src := range h.out {
		for _, m := range h.out[src] {
			m := m
			h.cells[m.dst].At(m.at, func() {
				h.logs[m.dst] = append(h.logs[m.dst], fmt.Sprintf("c%d mail from c%d @%d", m.dst, m.src, h.cells[m.dst].Now()))
			})
		}
		h.out[src] = h.out[src][:0]
	}
	return n
}

func (h *engineHarness) run(workers int, until Time) ([][]string, []uint64, uint64) {
	eng := NewEngine(h.cells, 10, workers, nil, h.barrier, h.coord.NextEvent)
	total := eng.Run(until)
	counts := append([]uint64(nil), eng.CellEvents()...)
	return h.logs, counts, total
}

// TestEngineDeterministicAcrossWorkers is the determinism contract in
// miniature: the same scenario must produce identical per-cell logs and
// event counts for any worker count.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	const until = 2000
	refLogs, refCounts, refTotal := newEngineHarness(5, 42).run(1, until)
	for _, workers := range []int{2, 4, 8} {
		logs, counts, total := newEngineHarness(5, 42).run(workers, until)
		if !reflect.DeepEqual(logs, refLogs) {
			t.Fatalf("workers=%d: logs diverge from workers=1", workers)
		}
		if !reflect.DeepEqual(counts, refCounts) {
			t.Fatalf("workers=%d: cell event counts %v != %v", workers, counts, refCounts)
		}
		if total != refTotal {
			t.Fatalf("workers=%d: total %d != %d", workers, total, refTotal)
		}
	}
	if refTotal == 0 {
		t.Fatal("harness processed no events")
	}
}

// goroutinesAtMost polls runtime.NumGoroutine for up to ~100ms until it is
// at most want and returns the last count. A helper that has already
// signalled the WaitGroup may still be returning from its function when
// Run hands back control; a helper that never stopped keeps the count up.
func goroutinesAtMost(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(100 * time.Microsecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestEngineStopWaitsForHelpers: no helper goroutine outlives Run —
// neither after the first call nor after a second call that continues
// from the previous boundary — and the split run still matches a single
// 1-worker run to the same horizon.
func TestEngineStopWaitsForHelpers(t *testing.T) {
	refLogs, refCounts, _ := newEngineHarness(5, 42).run(1, 2000)

	base := runtime.NumGoroutine()
	h := newEngineHarness(5, 42)
	eng := NewEngine(h.cells, 10, 4, nil, h.barrier, h.coord.NextEvent)
	for _, until := range []Time{1000, 2000} {
		eng.Run(until)
		if n := goroutinesAtMost(base); n > base {
			t.Fatalf("after Run(%d): %d goroutines, want baseline %d", until, n, base)
		}
	}
	if !reflect.DeepEqual(h.logs, refLogs) {
		t.Fatal("two-call 4-worker run's logs diverge from the 1-worker run")
	}
	if counts := eng.CellEvents(); !reflect.DeepEqual(counts, refCounts) {
		t.Fatalf("two-call 4-worker run's cell counts %v != %v", counts, refCounts)
	}
}

// TestEngineOversubscribed: with more workers than Ps the rendezvous must
// park instead of spin — a spinning helper would burn the only timeslice
// the worker it waits for can use — and still produce the 1-worker logs
// and counts exactly. A watchdog turns a livelock into a prompt failure.
func TestEngineOversubscribed(t *testing.T) {
	const until = 2000
	refLogs, refCounts, refTotal := newEngineHarness(9, 42).run(1, until)
	for _, tc := range []struct{ procs, workers int }{{1, 8}, {2, 2}} {
		prev := runtime.GOMAXPROCS(tc.procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

		h := newEngineHarness(9, 42)
		eng := NewEngine(h.cells, 10, tc.workers, nil, h.barrier, h.coord.NextEvent)
		finished := make(chan uint64, 1)
		go func() { finished <- eng.Run(until) }()
		var total uint64
		select {
		case total = <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("GOMAXPROCS=%d workers=%d: Run did not finish", tc.procs, tc.workers)
		}
		runtime.GOMAXPROCS(prev)

		if tc.workers > tc.procs && eng.spin != 0 {
			t.Fatalf("GOMAXPROCS=%d workers=%d: spin budget %d, want 0", tc.procs, tc.workers, eng.spin)
		}
		if !reflect.DeepEqual(h.logs, refLogs) {
			t.Fatalf("GOMAXPROCS=%d workers=%d: logs diverge from workers=1", tc.procs, tc.workers)
		}
		if counts := eng.CellEvents(); !reflect.DeepEqual(counts, refCounts) {
			t.Fatalf("GOMAXPROCS=%d workers=%d: cell counts %v != %v", tc.procs, tc.workers, counts, refCounts)
		}
		if total != refTotal {
			t.Fatalf("GOMAXPROCS=%d workers=%d: total %d != %d", tc.procs, tc.workers, total, refTotal)
		}
	}
}

// TestEngineBarrierElision pins the elision contract end to end: an
// elided run produces the exact logs, counts and totals of the eager run
// (a skipped barrier would have processed zero events), while actually
// skipping a meaningful share of the boundaries.
func TestEngineBarrierElision(t *testing.T) {
	const until = 2000
	refLogs, refCounts, refTotal := newEngineHarness(5, 42).run(1, until)

	h := newEngineHarness(5, 42)
	eng := NewEngine(h.cells, 10, 1, nil, h.barrier, h.coord.NextEvent)
	eng.EnableBarrierElision(func() bool {
		for _, slot := range h.out {
			if len(slot) > 0 {
				return true
			}
		}
		return false
	})
	total := eng.Run(until)
	if !reflect.DeepEqual(h.logs, refLogs) {
		t.Fatal("elided run's logs diverge from the eager run")
	}
	if counts := eng.CellEvents(); !reflect.DeepEqual(counts, refCounts) {
		t.Fatalf("elided run's cell counts %v != %v", counts, refCounts)
	}
	if total != refTotal {
		t.Fatalf("elided run's total %d != %d", total, refTotal)
	}
	if eng.BarriersRun() >= eng.Epochs() {
		t.Fatalf("no barrier elided: %d run over %d epochs", eng.BarriersRun(), eng.Epochs())
	}
}

// TestEngineElisionHonorsPendingMail: a boundary with buffered cross-cell
// mail must run its barrier even when the coordination kernel is empty —
// skipping it would delay the mail import past its arrival time.
func TestEngineElisionHonorsPendingMail(t *testing.T) {
	cell := New(1)
	coord := New(2)
	var delivered []Time
	var out []Time // pending cross-cell mail, delivery times
	cell.At(5, func() { out = append(out, 25) })
	barrier := func(Time) uint64 {
		for _, at := range out {
			cell.At(at, func() { delivered = append(delivered, cell.Now()) })
		}
		out = out[:0]
		return 0
	}
	eng := NewEngine([]*Kernel{cell}, 10, 1, nil, barrier, coord.NextEvent)
	eng.EnableBarrierElision(func() bool { return len(out) > 0 })
	eng.Run(100)
	if !reflect.DeepEqual(delivered, []Time{25}) {
		t.Fatalf("mail delivered at %v, want [25]", delivered)
	}
	// Exactly one boundary (the epoch that posted the mail) had work; every
	// other boundary must have been elided.
	if eng.BarriersRun() != 1 {
		t.Fatalf("barriers run %d, want 1 (epochs %d)", eng.BarriersRun(), eng.Epochs())
	}
}

// TestEngineElisionHonorsCoordinationEvents: a boundary with a coordination
// event due at or before it must run its barrier even with no mail.
func TestEngineElisionHonorsCoordinationEvents(t *testing.T) {
	cell := New(1)
	coord := New(2)
	var fired []Time
	coord.At(42, func() { fired = append(fired, coord.Now()) })
	eng := NewEngine([]*Kernel{cell}, 10, 1, nil,
		func(b Time) uint64 { return coord.Run(b) }, coord.NextEvent)
	eng.EnableBarrierElision(func() bool { return false })
	eng.Run(100)
	if !reflect.DeepEqual(fired, []Time{42}) {
		t.Fatalf("coordination event fired at %v, want [42]", fired)
	}
	if eng.BarriersRun() != 1 {
		t.Fatalf("barriers run %d, want 1 (epochs %d)", eng.BarriersRun(), eng.Epochs())
	}
}

// TestEngineFastForward checks that idle stretches cost one barrier, not
// one barrier per empty epoch, and that events still fire at exact times.
func TestEngineFastForward(t *testing.T) {
	cell := New(1)
	var fired []Time
	cell.At(5, func() { fired = append(fired, cell.Now()) })
	cell.At(100_000, func() { fired = append(fired, cell.Now()) })
	eng := NewEngine([]*Kernel{cell}, 10, 1, nil, nil, nil)
	eng.Run(200_000)
	want := []Time{5, 100_000}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	// 10ms epochs over 200s would be 20k barriers; fast-forward should
	// collapse the idle stretches to a handful.
	if eng.Epochs() > 10 {
		t.Fatalf("expected fast-forward, got %d epochs", eng.Epochs())
	}
	if cell.Now() != 200_000 {
		t.Fatalf("cell clock %d, want 200000", cell.Now())
	}
}

// TestEngineBoundaryClamp verifies cells never run past a boundary and the
// final partial epoch lands exactly on the horizon.
func TestEngineBoundaryClamp(t *testing.T) {
	cells := []*Kernel{New(1), New(2)}
	var maxSeen Time
	var boundary Time
	cells[0].Every(1, 1, func() {
		if now := cells[0].Now(); now > maxSeen {
			maxSeen = now
		}
	})
	eng := NewEngine(cells, 10, 1, nil, func(b Time) uint64 {
		boundary = b
		if maxSeen > b {
			t.Fatalf("cell ran to %d past boundary %d", maxSeen, b)
		}
		return 0
	}, nil)
	eng.Run(95)
	if boundary != 95 {
		t.Fatalf("last boundary %d, want 95", boundary)
	}
	if cells[1].Now() != 95 {
		t.Fatalf("idle cell clock %d, want 95", cells[1].Now())
	}
}
