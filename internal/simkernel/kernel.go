// Package simkernel implements a deterministic discrete-event simulation
// kernel, the substrate that replaces PeerSim in the paper's evaluation.
//
// The kernel maintains a virtual clock in milliseconds and a 4-ary min-heap
// of pending events. Events scheduled for the same instant fire in
// scheduling order (FIFO), which makes runs with the same seed bit-for-bit
// reproducible. All protocol code in this repository executes inside kernel
// events; nothing observes wall-clock time.
//
// Timers are slab-allocated: the heap holds small (time, seq, slot, gen)
// records while the callbacks live in a reusable slot arena. Scheduling
// returns a TimerHandle that can cancel the timer before it fires; a
// cancelled entry is elided lazily when it reaches the top of the heap, so
// cancellation is O(1) and the heap is never re-sifted. Generation counters
// make handles ABA-safe across slot reuse. Periodic timers (Every,
// EveryArg) keep their slot for life: Run re-arms it after each firing, so
// a periodic behaviour costs one slot and, with a bound callback, no
// object at all.
//
// The heap is hand-rolled rather than container/heap: the stdlib interface
// boxes every pushed and popped record through `any`, which costs one heap
// allocation per scheduled event. With the inlined sift-up/sift-down below,
// scheduling and firing allocate nothing in steady state (the event slice,
// slot arena and free list all reach a stable capacity), which
// TestHotPathAllocs locks in. The 4-ary shape halves tree depth versus a
// binary heap, trading slightly wider sibling scans (cache-friendly: four
// 24-byte records share two cache lines) for fewer comparison levels.
package simkernel

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is a simulated timestamp or duration in milliseconds.
type Time int64

// Handy durations.
const (
	Millisecond Time = 1
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders a Time compactly, e.g. "1h30m", "250ms".
func (t Time) String() string {
	switch {
	case t >= Hour && t%Minute == 0:
		if t%Hour == 0 {
			return fmt.Sprintf("%dh", t/Hour)
		}
		return fmt.Sprintf("%dh%dm", t/Hour, (t%Hour)/Minute)
	case t >= Minute && t%Second == 0:
		if t%Minute == 0 {
			return fmt.Sprintf("%dm", t/Minute)
		}
		return fmt.Sprintf("%dm%ds", t/Minute, (t%Minute)/Second)
	case t >= Second && t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	default:
		return fmt.Sprintf("%dms", t)
	}
}

// event is one heap record. The callback itself lives in the slot arena so
// heap moves copy four words, not a closure header.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	slot uint32
	gen  uint32
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). seq is unique, so the
// order is total and every correct heap yields the same pop sequence — the
// golden-trace test holds across heap-shape changes.
type eventHeap []event

// less is the (at, seq) ordering shared by sift-up and sift-down.
func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends e and sifts it up. No boxing, no interface calls.
func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the minimum. Caller checks emptiness via peek.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q.less(j, best) {
				best = j
			}
		}
		if !q.less(best, i) {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	*h = q
	return top
}

func (h eventHeap) peek() (event, bool) { // caller checks Len first
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// timerSlot is one arena cell. gen increments every time the slot is
// handed out, so stale heap records and stale handles can be recognised.
// A slot carries either a plain callback (fn) or an argument-taking
// callback (argFn + arg); the latter lets long-lived callers schedule with
// a reusable function value instead of a fresh closure, so the whole
// schedule→fire round trip performs zero heap allocations. A slot is live
// (scheduled, not yet fired or cancelled) exactly while a callback is
// installed. A nonzero period makes the slot periodic: Run re-arms it
// after each firing instead of freeing it, so a periodic timer costs one
// slot for its whole life. The period is kept in 32 bits so a slot stays
// four words.
type timerSlot struct {
	gen    uint32
	period uint32 // milliseconds; 0 = one-shot
	fn     func()
	argFn  func(uint64)
	arg    uint64
}

func (s *timerSlot) live() bool { return s.fn != nil || s.argFn != nil }

// TimerHandle identifies a scheduled timer. The zero value is inert:
// Cancel and Active on it are safe no-ops. Handles stay valid (and
// harmless) after the timer fires or is cancelled — the generation
// counter prevents a stale handle from touching a reused slot. A periodic
// timer keeps one handle across all of its firings.
type TimerHandle struct {
	k    *Kernel
	slot uint32
	gen  uint32
}

// Cancel revokes the timer if it has not fired yet, or a periodic timer's
// future firings (also from inside its own callback). It reports whether
// this call actually cancelled it; cancelling a fired, already-cancelled
// or zero handle is a no-op returning false.
func (h TimerHandle) Cancel() bool {
	if h.k == nil {
		return false
	}
	s := &h.k.slots[h.slot]
	if s.gen != h.gen || !s.live() {
		return false
	}
	s.fn = nil
	s.argFn = nil
	s.period = 0
	h.k.free = append(h.k.free, h.slot)
	h.k.live--
	h.k.cancelled++
	return true
}

// OwnedBy reports whether the timer was scheduled on k. A zero handle is
// owned by no kernel. Sharded callers use this to avoid cancelling a timer
// that lives on another cell's kernel from a parallel phase: such timers
// are instead abandoned (handle zeroed, token bumped) and fire as no-ops.
func (h TimerHandle) OwnedBy(k *Kernel) bool { return h.k == k && k != nil }

// Active reports whether the timer is still scheduled to fire. A periodic
// timer stays active, its own callback included, until cancelled.
func (h TimerHandle) Active() bool {
	if h.k == nil {
		return false
	}
	s := &h.k.slots[h.slot]
	return s.gen == h.gen && s.live()
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Kernel struct {
	now   Time
	queue eventHeap
	seq   uint64

	slots []timerSlot
	free  []uint32 // reusable slot indices
	live  int      // scheduled-and-not-cancelled timers

	seed      int64
	rng       *rand.Rand
	processed uint64
	cancelled uint64
	elided    uint64
	stopped   bool
}

// New returns a kernel whose clock starts at 0 and whose PRNG is seeded
// deterministically from seed.
func New(seed int64) *Kernel {
	return &Kernel{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed the kernel was constructed with.
func (k *Kernel) Seed() int64 { return k.seed }

// Rand exposes the kernel's deterministic PRNG. Components that need an
// independent stream should derive one with DeriveRNG instead.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Mix64 is the splitmix64 finalizer: a bijective avalanche mix used to
// derive independent, reproducible seeds from structured inputs. Every
// seed-derivation scheme in this repository must route through it so the
// mixing function can only ever be tuned in one place.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveRNG returns a new PRNG that is a pure function of (kernel seed,
// label): adding, removing or reordering other DeriveRNG consumers does
// not perturb the draws seen by existing consumers, and the same (seed,
// label) pair always yields the same stream.
func (k *Kernel) DeriveRNG(label string) *rand.Rand {
	var h uint64 = 14695981039346656037 // FNV-1a over the label
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(int64(Mix64(uint64(k.seed) ^ h))))
}

// DeriveRNGAt is DeriveRNG for indexed stream families: the returned PRNG
// is a pure function of (kernel seed, label, index), so one label can fan
// out into per-cell or per-shard streams without string formatting, and
// stream i never collides with stream j or with the label's un-indexed
// DeriveRNG stream.
func (k *Kernel) DeriveRNGAt(label string, index int) *rand.Rand {
	var h uint64 = 14695981039346656037 // FNV-1a over the label
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h = Mix64(h ^ Mix64(uint64(index)+0x5bd1e995))
	return rand.New(rand.NewSource(int64(Mix64(uint64(k.seed) ^ h))))
}

// Processed reports how many events have fired so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Cancelled reports how many timers were revoked before firing.
func (k *Kernel) Cancelled() uint64 { return k.cancelled }

// Elided reports how many dead heap records were skipped during Run —
// the queue garbage that lazy deletion absorbed.
func (k *Kernel) Elided() uint64 { return k.elided }

// Pending reports how many live timers are waiting to fire. Cancelled
// entries still occupying the heap are not counted; a periodic timer
// counts once, while its callback runs too.
func (k *Kernel) Pending() int { return k.live }

// NextEvent returns the timestamp of the earliest heap record, if any.
// The record may be a lazily-cancelled timer that will be elided without
// firing, so the returned time is a lower bound on the next real event —
// exactly what the epoch engine needs to fast-forward over idle stretches
// without ever skipping work.
func (k *Kernel) NextEvent() (Time, bool) {
	ev, ok := k.queue.peek()
	return ev.at, ok
}

// alloc takes a slot from the free list (or grows the arena) and bumps its
// generation. The caller installs the callback, which makes the slot live.
func (k *Kernel) alloc() uint32 {
	var slot uint32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, timerSlot{})
		slot = uint32(len(k.slots) - 1)
	}
	k.slots[slot].gen++
	return slot
}

// schedule pushes a heap record for an already-allocated slot.
func (k *Kernel) schedule(t Time, slot uint32) TimerHandle {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.live++
	gen := k.slots[slot].gen
	k.queue.push(event{at: t, seq: k.seq, slot: slot, gen: gen})
	return TimerHandle{k: k, slot: slot, gen: gen}
}

// At schedules fn to run at absolute time t and returns a cancellable
// handle. Scheduling in the past (or at the present instant) runs the
// event at the current time, after events already queued for that time.
func (k *Kernel) At(t Time, fn func()) TimerHandle {
	if fn == nil {
		panic("simkernel: nil event function")
	}
	slot := k.alloc()
	k.slots[slot].fn = fn
	return k.schedule(t, slot)
}

// After schedules fn to run d milliseconds from now.
func (k *Kernel) After(d Time, fn func()) TimerHandle {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// AtArg schedules fn(arg) at absolute time t. Unlike At, the callback takes
// its context as an explicit argument, so a long-lived fn (a bound method
// value created once) schedules without building a capturing closure — the
// allocation-free path the network's message delivery rides on.
func (k *Kernel) AtArg(t Time, fn func(uint64), arg uint64) TimerHandle {
	if fn == nil {
		panic("simkernel: nil event function")
	}
	slot := k.alloc()
	s := &k.slots[slot]
	s.argFn = fn
	s.arg = arg
	return k.schedule(t, slot)
}

// AfterArg schedules fn(arg) d milliseconds from now.
func (k *Kernel) AfterArg(d Time, fn func(uint64), arg uint64) TimerHandle {
	if d < 0 {
		d = 0
	}
	return k.AtArg(k.now+d, fn, arg)
}

// EveryArg schedules fn(arg) to run every period, with the first firing
// start milliseconds from now, and returns a handle whose Cancel stops it.
// The timer owns one slot for its whole life: Run re-arms it after each
// callback returns, with a fresh sequence number, so each firing lands
// exactly where an After(period) scheduled at the end of the callback
// would. A bound fn makes a periodic behaviour cost no allocation at all,
// neither per timer nor per firing.
func (k *Kernel) EveryArg(start, period Time, fn func(uint64), arg uint64) TimerHandle {
	if fn == nil {
		panic("simkernel: nil event function")
	}
	slot := k.allocPeriodic(period)
	s := &k.slots[slot]
	s.argFn = fn
	s.arg = arg
	return k.schedule(k.now+max(start, 0), slot)
}

// Every is EveryArg for a plain callback.
func (k *Kernel) Every(start, period Time, fn func()) TimerHandle {
	if fn == nil {
		panic("simkernel: nil event function")
	}
	slot := k.allocPeriodic(period)
	k.slots[slot].fn = fn
	return k.schedule(k.now+max(start, 0), slot)
}

func (k *Kernel) allocPeriodic(period Time) uint32 {
	if period <= 0 {
		panic("simkernel: non-positive ticker period")
	}
	if period > math.MaxUint32 {
		panic("simkernel: ticker period beyond 2^32 ms")
	}
	slot := k.alloc()
	k.slots[slot].period = uint32(period)
	return slot
}

// Run executes events in timestamp order until the queue is empty, the
// clock reaches until, or Stop is called. Events scheduled exactly at
// until do run. It returns the number of events processed by this call;
// lazily-deleted (cancelled) records are skipped without firing, without
// advancing the clock and without being counted.
func (k *Kernel) Run(until Time) uint64 {
	k.stopped = false
	var n uint64
	for {
		if k.stopped {
			break
		}
		ev, ok := k.queue.peek()
		if !ok || ev.at > until {
			break
		}
		k.queue.pop()
		s := &k.slots[ev.slot]
		if s.gen != ev.gen || !s.live() {
			k.elided++
			continue
		}
		fn, argFn, arg, period := s.fn, s.argFn, s.arg, s.period
		if period == 0 {
			s.fn = nil
			s.argFn = nil
			k.free = append(k.free, ev.slot)
			k.live--
		}
		k.now = ev.at
		if argFn != nil {
			argFn(arg)
		} else {
			fn()
		}
		n++
		k.processed++
		// A periodic slot stays live through its callback, so the callback
		// may cancel it; re-arm only if it did not (a cancelled slot may
		// even have been handed out again, under a new generation).
		if period > 0 {
			if s := &k.slots[ev.slot]; s.gen == ev.gen && s.live() {
				k.seq++
				k.queue.push(event{at: k.now + Time(period), seq: k.seq, slot: ev.slot, gen: ev.gen})
			}
		}
	}
	if k.now < until && !k.stopped {
		k.now = until // idle time passes even with an empty queue
	}
	return n
}

// Stop aborts a Run in progress after the current event returns.
func (k *Kernel) Stop() { k.stopped = true }
