package core

import (
	"fmt"

	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// The invariant auditor is the opt-in consistency checker behind the fault
// plane: scenarios that lose, delay and partition messages exercise every
// recovery path at once, and a bug in any of them tends to corrupt shared
// state long before it shows up in the paper metrics. The auditor walks
//
//   - D-ring successorship (the live-ghost invariant: every live pointer
//     must resolve to the node the ring registers for that ID — a stale
//     pointer to a transplanted or removed node is a routing hole);
//   - every directory's index (forward member bitsets ↔ inverse holder
//     lists, see dring.AuditConsistency) and its holder claims against the
//     actual stashes of live same-overlay content peers;
//   - the await-token/timer plane (a latched dir-join must have its timer
//     armed; dead hosts must leave nothing pending; a keepalive timeout
//     can only be armed on a content peer).
//
// It runs at epoch barriers (sharded runs park their workers there, so
// reading cell timer arenas is race-free) or anywhere on the classic path.
// It is diagnostic-only: it never mutates state, and it allocates freely.

// AuditReport is the outcome of one audit pass.
type AuditReport struct {
	Checks     int
	Violations []string // capped at maxAuditViolations entries
}

const maxAuditViolations = 32

// Audit runs every invariant check and returns the tally. Strict Chord
// successorship is deliberately NOT asserted: after failures the ring
// repairs lazily through stabilization, and a temporarily stale (dead)
// pointer is legal — only live pointers to unregistered nodes are bugs.
func (s *System) Audit() AuditReport {
	var r AuditReport
	fail := func(format string, args ...any) {
		if len(r.Violations) < maxAuditViolations {
			r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
		}
	}

	// --- D-ring live-ghost walk -----------------------------------------
	for addr, h := range s.hosts {
		if h == nil || h.dirNode == nil || !h.dirNode.Up() {
			continue
		}
		r.Checks++
		if !s.net.Alive(simnet.NodeID(addr)) {
			fail("ring: node %d is up on the ring but dead on the network", addr)
		}
		r.Checks++
		if s.ring.Lookup(h.dirNode.ID()) != h.dirNode {
			fail("ring: node %d (id %d) is not the registered node for its ID", addr, h.dirNode.ID())
		}
		for _, p := range h.dirNode.KnownPeers() {
			r.Checks++
			if s.ring.Lookup(p.ID()) != p {
				fail("ring: node %d holds live ghost pointer to id %d (addr %d)", addr, p.ID(), p.Addr())
			}
		}
	}

	// --- Directory index consistency and holder-vs-stash ------------------
	for addr, h := range s.hosts {
		if h == nil || h.dir == nil || !s.net.Alive(simnet.NodeID(addr)) {
			continue
		}
		var lines []string
		var checks int
		lines, checks = h.dir.AuditConsistency(lines, maxAuditViolations-len(r.Violations))
		r.Checks += checks
		r.Violations = append(r.Violations, lines...)

		site, loc := h.dir.Site(), h.dir.Locality()
		h.dir.ForEachHeld(func(ref model.ObjectRef, holders []simnet.NodeID) {
			for _, holder := range holders {
				hh := s.hosts[holder]
				// Only live, joined peers of this very overlay are checkable:
				// optimistic admissions (cp still nil), revived clients and
				// locality changers are legitimately stale until eviction.
				if hh == nil || hh.cp == nil || !s.net.Alive(holder) ||
					hh.cp.Site() != site || hh.cp.Locality() != loc {
					continue
				}
				r.Checks++
				if !hh.cp.Has(ref) && !s.hs.admitPendingFor(holder, ref) {
					// Entries backed by a pending (or abandoned) optimistic
					// admission are stale by design and cleaned lazily by the
					// §5.1 redirection-failure path; anything else is index
					// corruption.
					fail("dir %s/%d at %d: lists holder %d for ref %d, stash disagrees", site, loc, addr, holder, ref)
				}
			}
		})
	}

	// --- Await-token / timer plane ----------------------------------------
	for addr, h := range s.hosts {
		if h == nil || s.hs.has(simnet.NodeID(addr), hfServer) {
			continue
		}
		a := simnet.NodeID(addr)
		if !s.net.Alive(a) {
			r.Checks++
			if s.hs.gossipTimeout[a].Active() || s.hs.kaTimeout[a].Active() || s.hs.joinTimer[a].Active() {
				fail("timers: dead host %d has an armed failure-detection timer", addr)
			}
			r.Checks++
			if s.hs.gossipTicker[a].Active() || s.hs.kaTicker[a].Active() ||
				s.hs.dirTicker[a].Active() || s.hs.replTicker[a].Active() {
				fail("timers: dead host %d has a running ticker", addr)
			}
			continue
		}
		r.Checks++
		if s.hs.has(a, hfJoinInFlight) && !s.hs.joinTimer[a].Active() {
			fail("timers: host %d latched a dir-join with no armed latch timer", addr)
		}
		r.Checks++
		if s.hs.kaTimeout[a].Active() && h.cp == nil {
			fail("timers: host %d has a keepalive timeout armed but is not a content peer", addr)
		}
		if h.cp != nil {
			r.Checks++
			if !s.hs.gossipTicker[a].Active() || !s.hs.kaTicker[a].Active() {
				fail("timers: content peer %d is missing its gossip/keepalive ticker", addr)
			}
		}
	}
	return r
}
