// Package simnet layers message passing over the event kernel and the
// latency topology: sending a message schedules its delivery at the
// receiving node after the one-way link latency, and every message is
// accounted by byte size and traffic category. The paper's "background
// traffic" metric counts only the gossip and push categories (§6); the
// other categories are tracked so the CLI can report them separately.
//
// The network also models node failure: messages to or from a failed node
// are silently dropped, which is how protocols above (keepalives, pushes,
// redirections) come to observe the failure.
package simnet

import (
	"fmt"
	"math/rand"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/topology"
)

// NodeID aliases the underlay node identifier; one simulated process per
// underlay node.
type NodeID = topology.NodeID

// Category tags a message for traffic accounting.
type Category uint8

// Traffic categories.
const (
	CatGossip      Category = iota // content-overlay gossip exchanges (Algorithm 4)
	CatPush                        // content-peer → directory pushes (Algorithm 5)
	CatDirSummary                  // directory-summary refreshes between directory peers
	CatKeepalive                   // keepalive probes (§5.1)
	CatQuery                       // query routing, redirects, acks
	CatMaintenance                 // DHT maintenance (join/stabilize/fix-fingers)
	CatTransfer                    // object payload transfers (not modelled in size, per §6.1)
	CatReplication                 // active-replication offers/prefetches (§8 extension)
	numCategories
)

// NumCategories is the number of traffic categories.
const NumCategories = int(numCategories)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatGossip:
		return "gossip"
	case CatPush:
		return "push"
	case CatDirSummary:
		return "dir-summary"
	case CatKeepalive:
		return "keepalive"
	case CatQuery:
		return "query"
	case CatMaintenance:
		return "maintenance"
	case CatTransfer:
		return "transfer"
	case CatReplication:
		return "replication"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}

// Message is a simulated datagram. Payload is an in-process value; Bytes is
// the modelled wire size used for accounting.
type Message struct {
	From, To NodeID
	Payload  any
	Bytes    int
	Category Category
	// SentAt is stamped by the network when the message leaves the sender.
	SentAt simkernel.Time
	// Delay is extra latency injected by the fault plane (jitter/spikes),
	// added on top of the topology's link latency. Zero when faults are
	// disabled.
	Delay simkernel.Time
}

// Handler consumes messages delivered to a node.
type Handler interface {
	HandleMessage(msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(msg Message)

// HandleMessage calls f(msg).
func (f HandlerFunc) HandleMessage(msg Message) { f(msg) }

// TrafficSink observes every successfully sent message (even if the
// receiver turns out dead: the bytes still crossed the sender's link).
type TrafficSink interface {
	RecordMessage(at simkernel.Time, from, to NodeID, cat Category, bytes int)
}

// Network binds nodes, topology and the kernels together. Every network
// is a set of cells: New builds the one-cell network of a classic run,
// NewSharded one cell per locality for the epoch engine (see sharded.go).
// Each cell delivers through its own lane, and the coordination kernel
// has a lane of its own for barrier-time deliveries.
//
// Delivery is pooled: in-flight messages live in a lane's reusable slab
// of Message records, and every delivery event is the same long-lived
// callback bound once at construction, parameterised by the slab index
// through the kernel's AtArg path. Send therefore performs zero heap
// allocations in steady state (the slab and its free list stop growing
// once they cover the peak number of in-flight messages), provided the
// payload itself is pointer-shaped or pre-boxed — see TestHotPathAllocs.
type Network struct {
	kernel   *simkernel.Kernel
	topo     *topology.Topology
	handlers []Handler
	alive    []bool

	// Fault plane (see faults.go); nil when disabled, so the healthy send
	// path pays one pointer check. fplan is the compiled schedule index
	// built at install; faultRNG drives decisions for serial (barrier-
	// context) sends; cellFaultRNG[i] drives cell i's parallel sends (each
	// consumed only on its owning kernel's goroutine).
	faults       *FaultConfig
	fplan        *faultPlan
	faultRNG     *rand.Rand
	cellFaultRNG []*rand.Rand

	// Cell state (see sharded.go). kernel is the serial coordination
	// kernel and every node's events run on cells[cellOf[node]]; on a
	// one-cell network cells[0] is kernel itself and the network never
	// leaves barrier mode.
	cells      []*simkernel.Kernel
	cellOf     []int32
	lanes      []*lane
	globalLane *lane
	mail       *Mailbox
	foreignFn  func(payload any, dstCell int) bool
	globalFn   func(payload any) bool
	ownerFn    func(payload any) (int, bool)
	venueFn    func(payload any, to NodeID) (int, bool)
	inBarrier  bool
}

// New creates the one-cell network of a classic run over topo, driven by
// kernel. All nodes start alive with no handler (messages to handler-less
// nodes are dropped and counted).
func New(kernel *simkernel.Kernel, topo *topology.Topology) *Network {
	return NewShardedMapped(kernel, []*simkernel.Kernel{kernel}, topo, make([]int32, topo.NumNodes()))
}

// Kernel returns the driving (coordination) event kernel.
func (n *Network) Kernel() *simkernel.Kernel { return n.kernel }

// Topology returns the latency model.
func (n *Network) Topology() *topology.Topology { return n.topo }

// SetSink installs one traffic accounting sink (may be nil) for every
// cell.
func (n *Network) SetSink(s TrafficSink) {
	for _, l := range n.lanes {
		l.sink = s
	}
}

// Register installs the message handler for a node, replacing any previous
// handler.
func (n *Network) Register(id NodeID, h Handler) {
	n.handlers[id] = h
}

// Alive reports whether a node is up. Protocols must not use this as an
// oracle for *remote* state: it exists so a node can consult its own
// liveness and so tests can assert. Remote failure is observed through
// message loss.
func (n *Network) Alive(id NodeID) bool { return n.alive[id] }

// Fail marks a node down. In-flight messages to it are lost on arrival.
func (n *Network) Fail(id NodeID) { n.alive[id] = false }

// Recover marks a node up again.
func (n *Network) Recover(id NodeID) { n.alive[id] = true }

// Latency exposes the one-way latency between two nodes.
func (n *Network) Latency(a, b NodeID) simkernel.Time { return n.topo.Latency(a, b) }

// Send transmits a message. If the sender is dead nothing happens. The
// message is accounted at send time and delivered after the link latency,
// unless the receiver is dead or handler-less at delivery time. See
// sharded.go for the venue rules that pick the delivering lane.
func (n *Network) Send(from, to NodeID, cat Category, bytes int, payload any) {
	src := int(n.cellOf[from])
	dst := int(n.cellOf[to])
	// exec is the cell whose context runs this send, and every effect
	// (clock, sink, counters, fault stream) keys on it. Serially that is
	// the sender's cell. In a parallel phase it is the sender's cell too,
	// unless the payload is owner-claimed: the handler issuing it then
	// executes on the query origin's cell, and anything else would cross
	// goroutines.
	exec := src
	var now simkernel.Time
	if n.inBarrier {
		now = n.kernel.Now()
	} else {
		if n.ownerFn != nil {
			if oc, ok := n.ownerFn(payload); ok {
				exec = oc
			}
		}
		now = n.cells[exec].Now()
	}
	l := n.lanes[exec]
	if !n.alive[from] {
		l.dropped++
		return
	}
	if l.sink != nil {
		l.sink.RecordMessage(now, from, to, cat, bytes)
	}
	l.sent++
	m := Message{From: from, To: to, Payload: payload, Bytes: bytes, Category: cat, SentAt: now}
	lat := n.topo.Latency(from, to)
	if n.faults != nil {
		// Accounting stays above: the bytes crossed the sender's link even
		// when the network loses them, matching the dead-receiver semantics.
		drop, extra := n.fplan.decide(n.faultStream(exec), from, n.topo.LocalityOf(from), n.topo.LocalityOf(to), lat, now)
		if drop {
			l.faultDropped++
			return
		}
		m.Delay = extra
	}
	at := now + lat + m.Delay
	if n.inBarrier {
		n.serialLane(src, dst, to, payload).post(at, m)
		return
	}
	n.postParallel(exec, src, dst, at, m)
}

// Sent reports the number of messages accepted for transmission. On a
// sharded network, call only while parked (construction, barrier, or
// after the run).
func (n *Network) Sent() uint64 {
	var total uint64
	for _, l := range n.lanes {
		total += l.sent
	}
	return total
}

// Dropped reports the number of messages lost to dead or handler-less
// endpoints. Same concurrency caveat as Sent.
func (n *Network) Dropped() uint64 {
	total := n.globalLane.dropped
	for _, l := range n.lanes {
		total += l.dropped
	}
	return total
}
