// Epoch-stepped parallel driver for a set of independent kernels.
//
// The Engine advances a fleet of per-shard kernels ("cells") plus one
// serial coordination kernel through fixed-width virtual-time epochs. In
// the parallel phase every cell runs its private event queue up to the
// epoch boundary — cells share no mutable state, so the phase parallelises
// across workers with no locking inside the kernels. Cell i always runs on
// worker i mod workers, so a cell's heap and host state stay on one
// goroutine. At the boundary the workers wait and the barrier callback runs
// single-threaded: it drains the coordination kernel and imports cross-cell
// mail in a fixed order, so results are a pure function of the scenario —
// byte-identical for any worker count, including 1.
//
// The goroutine calling Run is worker 0; workers−1 helper goroutines live
// for the duration of the call. Worker 0 releases an epoch by publishing
// the boundary and bumping an atomic generation counter, and each helper
// bumps an atomic done counter when its cells reach the boundary. An epoch
// typically carries a few microseconds of work, so a waiting worker spins
// on the counter for up to ~100µs before parking on its own channel; when
// there are more workers than CPUs (min of GOMAXPROCS and NumCPU) spinning
// would steal the CPU the awaited worker needs, and every wait parks at
// once.
//
// Virtual time never exceeds the boundary inside a phase, so two cells can
// never observe each other at divergent clocks: all inter-cell effects are
// applied at the barrier with every kernel parked exactly at the boundary.
//
// When no kernel has an event before the next boundary the engine
// fast-forwards: it jumps straight to the epoch containing the earliest
// pending record (a cheap heap peek), so idle stretches cost one barrier
// rather than one barrier per empty epoch.
package simkernel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Engine steps cells and a coordination kernel through epoch barriers.
type Engine struct {
	cells   []*Kernel
	width   Time
	workers int

	// preParallel runs single-threaded immediately before the workers are
	// released into an epoch (used to flip the harness out of barrier
	// mode); barrier runs single-threaded at each boundary and returns the
	// number of events it processed (coordination kernel + mail import).
	preParallel func()
	barrier     func(boundary Time) uint64

	// earliestExtra lets the barrier owner report pending coordination
	// events so fast-forward accounts for them.
	earliestExtra func() (Time, bool)

	// Barrier elision (EnableBarrierElision): when mailPending reports no
	// cross-cell mail and earliestExtra shows no coordination event due at
	// the boundary, the barrier callback is provably a no-op and is
	// skipped, so idle epochs cost a heap peek instead of a full
	// single-threaded rendezvous.
	mailPending func() bool
	elide       bool

	// Cached earliest-pending-record time per cell. A parked cell's heap
	// only changes when the cell itself runs or a barrier executes
	// (mail import, coordination handlers scheduling or cancelling cell
	// timers), so the cache is exact between refreshes — which lets the
	// epoch loop skip the boundary Run call for cells with nothing due,
	// instead of peeking every heap every epoch.
	nextAt []Time
	nextOk []bool

	cellEvents    []uint64
	barrierEvents uint64
	barriersRun   uint64
	epochs        uint64
	stallNs       []int64

	// Epoch rendezvous (workers > 1). Worker 0 — the goroutine in Run —
	// publishes boundary and bumps gen to release an epoch; each helper
	// bumps done when its cells reach the boundary. quit, set before the
	// final release, tells the helpers to exit. The padding keeps the
	// line the workers spin on apart from worker 0's bookkeeping.
	_        [64]byte
	gen      atomic.Uint64
	done     atomic.Int64
	_        [48]byte
	boundary Time
	quit     bool
	spin     int
	parkers  []parker // per worker; index 0 is the caller of Run
	wg       sync.WaitGroup
}

// NewEngine builds an epoch engine over cells. width is the epoch length
// (at most the minimum cross-cell latency for exact-arrival fidelity;
// larger widths stay deterministic but defer cross-cell delivery).
// workers is the number of goroutines draining cells each epoch, the
// caller of Run included; values below 1 or above len(cells) are clamped.
// The callbacks may be nil.
func NewEngine(cells []*Kernel, width Time, workers int, preParallel func(), barrier func(Time) uint64, earliestExtra func() (Time, bool)) *Engine {
	if width <= 0 {
		panic("simkernel: non-positive epoch width")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	return &Engine{
		cells:         cells,
		width:         width,
		workers:       workers,
		preParallel:   preParallel,
		barrier:       barrier,
		earliestExtra: earliestExtra,
		nextAt:        make([]Time, len(cells)),
		nextOk:        make([]bool, len(cells)),
		cellEvents:    make([]uint64, len(cells)),
		stallNs:       make([]int64, workers),
	}
}

// refreshAll re-peeks every cell's heap into the next-event cache. Called
// whenever something other than a cell's own Run may have touched its heap:
// at Run entry (setup scheduled work before the engine started) and after
// each executed barrier.
func (e *Engine) refreshAll() {
	for i, c := range e.cells {
		e.nextAt[i], e.nextOk[i] = c.NextEvent()
	}
}

// earliest returns the minimum pending-event time across all cells (from
// the cache) and the coordination kernel (via earliestExtra), or false when
// everything is idle.
func (e *Engine) earliest() (Time, bool) {
	var min Time
	found := false
	for i := range e.cells {
		if e.nextOk[i] && (!found || e.nextAt[i] < min) {
			min, found = e.nextAt[i], true
		}
	}
	if e.earliestExtra != nil {
		if t, ok := e.earliestExtra(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// Run advances all cells to until, epoch by epoch, and returns the number
// of events processed (cells plus barrier work). It may be called again to
// continue from the previous boundary.
func (e *Engine) Run(until Time) uint64 {
	before := e.barrierEvents
	for _, n := range e.cellEvents {
		before += n
	}
	b := e.cells[0].Now() // all kernels agree on the boundary between runs
	e.refreshAll()
	if e.workers > 1 {
		e.startHelpers()
		defer e.stopHelpers()
	}
	for b < until {
		next := b + e.width
		if min, ok := e.earliest(); ok {
			if min > next {
				// Fast-forward to the boundary of the epoch holding the
				// earliest record: ((min-1)/width+1)*width is the smallest
				// boundary >= min.
				next = ((min-1)/e.width + 1) * e.width
			}
		} else {
			next = until // nothing pending anywhere: idle to the horizon
		}
		if next > until {
			next = until
		}
		if e.preParallel != nil {
			e.preParallel()
		}
		if e.workers <= 1 {
			e.runOwned(0, next)
		} else {
			e.runParallel(next)
		}
		runBarrier := e.barrier != nil
		if runBarrier && e.elide && !e.mailPending() {
			// With no mail to import, the barrier can only do work if the
			// coordination kernel holds an event at or before the boundary;
			// otherwise it is a no-op and the epoch's output is identical
			// without it.
			if t, ok := e.earliestExtra(); !ok || t > next {
				runBarrier = false
			}
		}
		if runBarrier {
			// Coordination handlers may read any cell's clock and schedule
			// or cancel work on any heap: park every cell exactly at the
			// boundary first (a pure clock advance — skipped cells have
			// nothing due, cells that ran are already there), then refresh
			// every cache the barrier may have invalidated.
			for i, c := range e.cells {
				e.cellEvents[i] += c.Run(next)
			}
			e.barrierEvents += e.barrier(next)
			e.barriersRun++
			e.refreshAll()
		}
		b = next
		e.epochs++
	}
	// Elided stretches leave idle cells' clocks behind their last-run
	// boundary; park everyone at the horizon before handing control back.
	for i, c := range e.cells {
		e.cellEvents[i] += c.Run(until)
	}
	total := e.barrierEvents
	for _, n := range e.cellEvents {
		total += n
	}
	return total - before
}

// spinBudget is how many times a waiting worker checks the rendezvous
// before parking. An epoch carries a few microseconds of work, far less
// than a futex wake-up, so a worker that spins ~100µs across the barrier
// almost never parks mid-run; a much smaller budget parks on nearly every
// boundary and pays the wake-up each epoch.
const spinBudget = 100_000

// parker is one worker's wait slot: spin on a condition for the engine's
// budget, then park on a 1-slot channel. The waiter sets sleeping before
// its last check of the condition and whoever clears it by
// compare-and-swap owns the wake-up — the waiter itself, if it saw the
// condition hold, or unpark, which then sends exactly one token. No
// wake-up is lost and at most one token is ever pending.
type parker struct {
	sleeping atomic.Bool
	wake     chan struct{}
	_        [48]byte // keep each worker's flag on its own cache line
}

// wait returns once ready holds. A token can arrive late — sent for an
// earlier condition by a waker that was slow to get to unpark — so a woken
// waiter re-checks before returning.
func (p *parker) wait(spin int, ready func() bool) {
	for i := 0; i < spin; i++ {
		if ready() {
			return
		}
	}
	for {
		p.sleeping.Store(true)
		if ready() {
			if !p.sleeping.CompareAndSwap(true, false) {
				<-p.wake // unpark claimed the flag first: take its token
			}
			return
		}
		<-p.wake
	}
}

// unpark wakes the waiter if it has parked or is about to. Call it after
// making the waiter's condition true.
func (p *parker) unpark() {
	if p.sleeping.Load() && p.sleeping.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// startHelpers launches workers−1 helper goroutines; the caller of Run is
// worker 0. Spinning only pays when every worker has a CPU of its own:
// oversubscribed, a spinning worker burns the timeslice the one it waits
// for needs, so everyone parks at once instead.
func (e *Engine) startHelpers() {
	e.spin = spinBudget
	if procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU()); e.workers > procs {
		e.spin = 0
	}
	e.quit = false
	e.parkers = make([]parker, e.workers)
	for w := range e.parkers {
		e.parkers[w].wake = make(chan struct{}, 1)
	}
	gen := e.gen.Load()
	e.wg.Add(e.workers - 1)
	for w := 1; w < e.workers; w++ {
		go e.helper(w, gen)
	}
}

// stopHelpers releases a final generation with quit set and waits until
// every helper has returned, so no goroutine outlives Run.
func (e *Engine) stopHelpers() {
	e.quit = true
	e.release()
	e.wg.Wait()
	e.parkers = nil
}

// release publishes the boundary and quit flag by bumping the generation,
// then wakes every helper that has parked.
func (e *Engine) release() {
	e.done.Store(0)
	e.gen.Add(1)
	for w := 1; w < e.workers; w++ {
		e.parkers[w].unpark()
	}
}

// helper is worker w's loop: wait for a generation past seen, drain the
// owned cells up to the published boundary, report done — the last helper
// to finish wakes worker 0. The wait, spin and park alike, is barrier
// stall, summed locally and published once the helper exits.
func (e *Engine) helper(w int, seen uint64) {
	defer e.wg.Done()
	p := &e.parkers[w]
	helpers := int64(e.workers - 1)
	var stall int64
	for {
		idle := time.Now()
		p.wait(e.spin, func() bool { return e.gen.Load() != seen })
		seen = e.gen.Load()
		stall += time.Since(idle).Nanoseconds()
		if e.quit {
			e.stallNs[w] += stall
			return
		}
		e.runOwned(w, e.boundary)
		if e.done.Add(1) == helpers {
			e.parkers[0].unpark()
		}
	}
}

// runOwned runs worker w's cells — cell i always belongs to worker
// i mod workers — up to boundary b. Only cells with a record due this epoch
// run; a skipped cell's heap is untouched (nothing fires, nothing is
// scheduled onto it outside a barrier), so its cached next time stays
// exact and only its clock lags — repaired before any barrier. The cache
// and counter reads and writes need no synchronisation: only the owner
// touches them during a phase, and the generation and done counters order
// them against worker 0's barrier.
func (e *Engine) runOwned(w int, b Time) {
	for i := w; i < len(e.cells); i += e.workers {
		if e.nextOk[i] && e.nextAt[i] <= b {
			e.cellEvents[i] += e.cells[i].Run(b)
			e.nextAt[i], e.nextOk[i] = e.cells[i].NextEvent()
		}
	}
}

// runParallel runs one epoch as worker 0: release the helpers, drain its
// own cells, then wait for every helper to report done. The wait counts as
// worker 0's stall.
func (e *Engine) runParallel(boundary Time) {
	e.boundary = boundary
	e.release()
	e.runOwned(0, boundary)
	helpers := int64(e.workers - 1)
	if e.done.Load() == helpers {
		return
	}
	idle := time.Now()
	e.parkers[0].wait(e.spin, func() bool { return e.done.Load() == helpers })
	e.stallNs[0] += time.Since(idle).Nanoseconds()
}

// CellEvents returns the cumulative events processed per cell. The slice
// is live; callers must not modify it and should read it only while the
// engine is idle.
func (e *Engine) CellEvents() []uint64 { return e.cellEvents }

// BarrierEvents returns the cumulative events processed by barrier phases.
func (e *Engine) BarrierEvents() uint64 { return e.barrierEvents }

// Epochs returns how many epochs have been stepped.
func (e *Engine) Epochs() uint64 { return e.epochs }

// BarriersRun returns how many epoch boundaries actually executed the
// barrier callback (≤ Epochs when elision is enabled).
func (e *Engine) BarriersRun() uint64 { return e.barriersRun }

// EnableBarrierElision arms no-op-barrier skipping: at each boundary the
// engine consults mailPending (cross-cell mail buffered?) and
// earliestExtra (coordination event due at or before the boundary?) and
// runs the barrier callback only when one of them says there is work.
// Elision never changes a run's output — a skipped barrier would have
// processed zero events — it only removes rendezvous overhead; Epochs
// and BarrierEvents are unaffected, BarriersRun counts the survivors.
// mailPending must be safe to call with all workers parked.
func (e *Engine) EnableBarrierElision(mailPending func() bool) {
	if e.barrier != nil && e.earliestExtra == nil {
		panic("simkernel: barrier elision requires earliestExtra")
	}
	e.mailPending = mailPending
	e.elide = mailPending != nil
}

// WorkerStallNs returns the cumulative wall-clock nanoseconds each worker
// spent waiting at barriers — the load-imbalance signal. Index 0 is the
// caller of Run waiting for the helpers to finish an epoch; index w ≥ 1 is
// helper w waiting for the next epoch to be released, which includes the
// barrier callback. Spinning and parking both count as stall. Indexed by
// worker, valid only while the engine is idle.
func (e *Engine) WorkerStallNs() []int64 { return e.stallNs }

// Workers returns the effective worker count after clamping.
func (e *Engine) Workers() int { return e.workers }
