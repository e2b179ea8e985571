// Cells: a network runs over a fleet of per-cell kernels plus one serial
// coordination kernel, for the epoch-barrier engine in simkernel. A
// classic run is the one-cell case: its only cell is the coordination
// kernel, so every send takes the serial path below and lands on the one
// lane.
//
// Delivery venue rules keep the parallel phases race-free:
//
//   - a message between two nodes of the same cell whose payload is not
//     foreign to that cell rides the cell's private lane — a slab +
//     free-list + bound-callback fast path scheduled on the cell's own
//     kernel (zero allocations in steady state);
//   - a payload the protocol *claims* for an owner cell (SetVenue: the
//     reply legs of a query whose handler only touches the query origin's
//     state) is delivered on that owner cell's lane even when the
//     endpoints live elsewhere — this is what keeps a locality's query
//     traffic inside its petal instead of taxing the coordination kernel;
//   - everything else (cross-cell messages, payloads the protocol marks
//     foreign to the destination cell, and payloads marked global) must
//     execute single-threaded: posted from a parallel phase it goes to
//     the per-executing-cell mailbox and is imported into the
//     coordination kernel at the next epoch barrier; posted from barrier
//     context it is scheduled directly.
//
// Owner-claimed handlers run on the query origin's cell, so their sends
// execute on a goroutine that may not own the sender's cell. Every
// phase-send is therefore attributed to the *executing* cell (SetOwner
// resolves it from the payload; it always matches the running goroutine):
// clock, traffic sink, counters, fault stream and mailbox slot all key on
// that cell, which is exactly what makes the attribution race-free.
//
// The mailbox import order is fixed — ascending executing cell, FIFO
// within a cell — and the coordination kernel breaks timestamp ties by
// schedule order, so cross-cell delivery is totally ordered by (epoch,
// execCell, seq) no matter how the parallel phase interleaved across
// workers.
package simnet

import (
	"math/rand"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/topology"
)

// lane is one cell's private delivery machinery — a pooled slab of
// in-flight messages bound to the cell's kernel — plus the cell's traffic
// sink and counters. The coordination kernel gets a lane of its own for
// barrier-time deliveries.
type lane struct {
	net     *Network
	kernel  *simkernel.Kernel
	sink    TrafficSink
	pending []Message    // slab of in-flight messages, indexed by delivery events
	free    []uint32     // reusable slab indices
	deliver func(uint64) // the one delivery callback, bound once in newLane

	sent         uint64
	dropped      uint64
	faultDropped uint64
}

func newLane(n *Network, k *simkernel.Kernel) *lane {
	l := &lane{net: n, kernel: k}
	l.deliver = l.deliverPending
	return l
}

// post stores the message in the lane's slab and schedules delivery on the
// lane's kernel at the absolute time at.
func (l *lane) post(at simkernel.Time, m Message) {
	var idx uint32
	if n := len(l.free); n > 0 {
		idx = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.pending = append(l.pending, Message{})
		idx = uint32(len(l.pending) - 1)
	}
	l.pending[idx] = m
	l.kernel.AtArg(at, l.deliver, uint64(idx))
}

// deliverPending fires when a slab record's latency elapses: it releases
// the slot (so re-entrant Sends from the handler can reuse it) and hands
// the message to the receiver, unless the receiver died or unregistered
// while the message was in flight.
func (l *lane) deliverPending(arg uint64) {
	idx := uint32(arg)
	msg := l.pending[idx]
	l.pending[idx].Payload = nil // drop the reference; slab cells outlive messages
	l.free = append(l.free, idx)
	n := l.net
	if !n.alive[msg.To] || n.handlers[msg.To] == nil {
		l.dropped++
		return
	}
	n.handlers[msg.To].HandleMessage(msg)
}

// Mailbox buffers cross-cell messages posted during parallel phases. Each
// source cell appends to its own slot (no sharing), and Drain visits
// messages in ascending source-cell order, FIFO within a cell — the
// deterministic total order the rendezvous contract requires.
type Mailbox struct {
	box [][]Message
}

// NewMailbox creates a mailbox for the given number of source cells.
func NewMailbox(cells int) *Mailbox {
	return &Mailbox{box: make([][]Message, cells)}
}

// Post appends a message to src's slot. Safe to call concurrently from
// different source cells (never concurrently for the same src).
func (mb *Mailbox) Post(src int, m Message) {
	mb.box[src] = append(mb.box[src], m)
}

// Drain visits every posted message in (srcCell, FIFO) order and empties
// the mailbox, retaining slot capacity. Single-threaded.
func (mb *Mailbox) Drain(visit func(src int, m Message)) {
	for src := range mb.box {
		slot := mb.box[src]
		for i := range slot {
			visit(src, slot[i])
		}
		for i := range slot {
			slot[i].Payload = nil
		}
		mb.box[src] = slot[:0]
	}
}

// Pending reports how many messages are buffered.
func (mb *Mailbox) Pending() int {
	n := 0
	for _, slot := range mb.box {
		n += len(slot)
	}
	return n
}

// NewSharded creates a locality-sharded network: cells[i] drives the
// nodes whose topology locality is i, and global is the serial
// coordination kernel that executes all cross-cell work at epoch
// barriers. The network starts in barrier mode (construction is
// single-threaded).
func NewSharded(global *simkernel.Kernel, cells []*simkernel.Kernel, topo *topology.Topology) *Network {
	cellOf := make([]int32, topo.NumNodes())
	for id := 0; id < topo.NumNodes(); id++ {
		cellOf[id] = int32(topo.LocalityOf(NodeID(id)))
	}
	return NewShardedMapped(global, cells, topo, cellOf)
}

// NewShardedMapped is NewSharded with an explicit node→cell map, for
// configurations that split a hot locality across several cells (the map
// must still keep each cell inside one locality — latency and fault
// decisions remain locality-keyed). len(cells) must cover every value in
// cellOf.
func NewShardedMapped(global *simkernel.Kernel, cells []*simkernel.Kernel, topo *topology.Topology, cellOf []int32) *Network {
	n := &Network{
		kernel:    global,
		topo:      topo,
		handlers:  make([]Handler, topo.NumNodes()),
		alive:     make([]bool, topo.NumNodes()),
		cells:     cells,
		cellOf:    cellOf,
		lanes:     make([]*lane, len(cells)),
		mail:      NewMailbox(len(cells)),
		inBarrier: true,
	}
	for i := range n.alive {
		n.alive[i] = true
	}
	for i, k := range cells {
		n.lanes[i] = newLane(n, k)
	}
	n.globalLane = newLane(n, global)
	return n
}

// CellOf returns the cell index of a node.
func (n *Network) CellOf(id NodeID) int { return int(n.cellOf[id]) }

// SetForeign installs the protocol's payload classifier: it reports
// whether delivering payload to a node of dstCell would touch state owned
// by another cell (e.g. a query whose origin lives elsewhere), forcing the
// delivery onto the coordination kernel.
func (n *Network) SetForeign(fn func(payload any, dstCell int) bool) { n.foreignFn = fn }

// SetGlobalPayload installs the classifier for payloads that must always
// execute on the coordination kernel (e.g. DHT ring mutations), regardless
// of the endpoints' cells.
func (n *Network) SetGlobalPayload(fn func(payload any) bool) { n.globalFn = fn }

// SetOwner installs the payload→owner-cell resolver: for payloads that
// carry a query it returns the cell of the query's origin. During
// parallel phases the network attributes each send (clock, sink,
// counters, fault stream, mailbox slot) to the owner cell when the
// resolver claims the payload, because owner-claimed handlers execute on
// that cell's goroutine regardless of the sender's home cell.
func (n *Network) SetOwner(fn func(payload any) (int, bool)) { n.ownerFn = fn }

// SetVenue installs the delivery-venue classifier: when it claims a
// (payload, receiver) pair, delivery is scheduled on the returned owner
// cell's lane instead of the coordination kernel, even for cross-cell
// sends. The protocol must only claim payloads whose handler touches
// nothing but the owner cell's state and draws from no other cell's
// random streams.
func (n *Network) SetVenue(fn func(payload any, to NodeID) (int, bool)) { n.venueFn = fn }

// MailPending reports how many cross-cell messages are buffered for the
// next barrier import. Call only while parked (single-threaded).
func (n *Network) MailPending() int { return n.mail.Pending() }

// SetCellSinks installs one traffic sink per cell; message accounting goes
// to the executing cell so parallel phases never share a sink.
func (n *Network) SetCellSinks(sinks []TrafficSink) {
	for i, s := range sinks {
		n.lanes[i].sink = s
	}
}

// EnterBarrier switches the network into single-threaded barrier mode:
// sends schedule directly into destination kernels (all workers are
// parked). Must only be called by the epoch engine's barrier phase.
func (n *Network) EnterBarrier() { n.inBarrier = true }

// ExitBarrier returns the network to parallel mode; cross-cell sends go to
// the mailbox again.
func (n *Network) ExitBarrier() { n.inBarrier = false }

// InBarrier reports whether the network is in single-threaded barrier
// mode. During construction it is true.
func (n *Network) InBarrier() bool { return n.inBarrier }

// venueGlobal decides whether a message must execute on the coordination
// kernel rather than the destination cell's lane.
func (n *Network) venueGlobal(srcCell, dstCell int, payload any) bool {
	if srcCell != dstCell {
		return true
	}
	if n.globalFn != nil && n.globalFn(payload) {
		return true
	}
	return n.foreignFn != nil && n.foreignFn(payload, dstCell)
}

// serialLane picks the lane a barrier-context send delivers on.
// Owner-claimed payloads ride the owner cell's lane — arrival is strictly
// after the next boundary (the epoch width never exceeds the minimum
// latency), so the cell is parked when the event lands. A one-cell
// network has a single lane to choose.
func (n *Network) serialLane(src, dst int, to NodeID, payload any) *lane {
	if len(n.lanes) == 1 {
		return n.lanes[0]
	}
	if n.venueFn != nil {
		if vc, ok := n.venueFn(payload, to); ok {
			return n.lanes[vc]
		}
	}
	if n.venueGlobal(src, dst, payload) {
		return n.globalLane
	}
	return n.lanes[dst]
}

// postParallel delivers a parallel-phase send made on cell exec: on a
// cell lane when the venue rules keep it on exec's own goroutine, through
// the mailbox otherwise.
func (n *Network) postParallel(exec, src, dst int, at simkernel.Time, m Message) {
	if n.venueFn != nil {
		if vc, ok := n.venueFn(m.Payload, m.To); ok {
			// Owner-claimed delivery executes on the owner cell — which is
			// exactly the cell running this send, so the post stays on this
			// goroutine's kernel.
			n.lanes[vc].post(at, m)
			return
		}
	}
	if !n.venueGlobal(src, dst, m.Payload) && exec == dst {
		// src == dst == exec: the intra-cell zero-alloc fast path.
		n.lanes[exec].post(at, m)
		return
	}
	n.mail.Post(exec, m)
}

// faultStream is the fault-decision RNG for a send executing on cell
// exec: the coordination stream serially, the cell's own stream in a
// parallel phase. Each cell consumes its stream in its own deterministic
// event order, so decisions are identical at any worker count.
func (n *Network) faultStream(exec int) *rand.Rand {
	if n.inBarrier {
		return n.faultRNG
	}
	return n.cellFaultRNG[exec]
}

// ImportMail drains the cross-cell mailbox into the coordination kernel at
// exact arrival times (SentAt + link latency + injected fault delay), in
// (srcCell, FIFO) order. Called single-threaded at each epoch barrier;
// arrivals always land strictly after the barrier because the epoch width
// never exceeds the minimum cross-cell latency and fault delay only adds.
func (n *Network) ImportMail() {
	n.mail.Drain(func(src int, m Message) {
		n.globalLane.post(m.SentAt+n.topo.Latency(m.From, m.To)+m.Delay, m)
	})
}
