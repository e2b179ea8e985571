package core

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// This file implements §5, "Dealing with Dynamicity": crash failures,
// directory failure detection and replacement (§5.2), voluntary directory
// leaves with state transfer, and locality changes (§5.4). Redirection
// failures (§5.1) live in query.go next to Algorithm 3.

// assertRingMutable panics when a D-ring membership mutation is attempted
// under Config.StaticRing: the static-ring venue rules (payloadVenue's
// routedMsg claim) assume dring.NextHop answers identically at send time
// and at delivery time, so a mutated ring would silently misroute claimed
// hops. The harness only derives StaticRing for churn-, fault- and
// crash-free scenarios; hitting this panic means that derivation drifted.
func (s *System) assertRingMutable(op string) {
	if s.cfg.StaticRing {
		panic("core: D-ring mutation (" + op + ") under Config.StaticRing")
	}
}

// FailPeer crashes a node: it stops participating and all traffic to it is
// lost. Other peers discover the failure through their own timeouts.
func (s *System) FailPeer(addr simnet.NodeID) {
	h := s.hosts[addr]
	if h == nil || s.hs.has(addr, hfServer) {
		return
	}
	s.net.Fail(addr)
	s.hs.stopTimers(addr)
	s.stopStandbyTimers(h)
	if h.dirNode != nil {
		s.assertRingMutable("directory failure")
		s.ring.Fail(h.dirNode)
	}
	if s.hs.has(addr, hfAccounted) {
		s.metsAt(addr).PeerLeft(s.k.Now())
		s.hs.clearFlag(addr, hfAccounted)
	}
}

// RevivePeer brings a crashed client node back online. Its volatile state
// (cache, view, overlay membership) is gone — it rejoins as a new client
// on its next query, exactly like a returning user. Directory hosts cannot
// be revived this way (their position is re-filled by §5.2 replacement).
func (s *System) RevivePeer(addr simnet.NodeID) bool {
	h := s.hosts[addr]
	if h == nil || s.hs.has(addr, hfServer) || h.dir != nil || h.dirNode != nil {
		return false
	}
	if s.net.Alive(addr) {
		return false
	}
	s.net.Recover(addr)
	h.cp = nil
	s.hs.stash[addr] = nil
	s.hs.admitPending[addr] = nil
	s.hs.clearFlag(addr, hfJoinInFlight)
	s.hs.joinAttempts[addr] = 0
	s.hs.gossipTicker[addr] = simkernel.TimerHandle{}
	s.hs.kaTicker[addr] = simkernel.TimerHandle{}
	s.hs.gossipTimeout[addr] = simkernel.TimerHandle{}
	s.hs.kaTimeout[addr] = simkernel.TimerHandle{}
	s.hs.joinTimer[addr] = simkernel.TimerHandle{}
	// Failure memory from the pre-crash life must not leak into the new
	// one: bump the await tokens so any orphaned handle fires as a no-op,
	// drop the remembered gossip partner, and forget any standby role —
	// a reborn client is a blank slate, not a watchdog for a directory it
	// no longer belongs to.
	s.hs.gossipToken[addr]++
	s.hs.kaToken[addr]++
	s.hs.gossipTarget[addr] = 0
	s.hs.resetAdaptive(addr)
	s.stopStandbyWatch(h)
	return true
}

// stopStandbyTimers silences a crashed host's standby machinery (both
// roles): the watchdog and maintenance loops must leave nothing in the
// event queue, exactly like hostSoA.stopTimers for the core tickers.
func (s *System) stopStandbyTimers(h *host) {
	h.standbyTicker.Cancel()
	h.standbyTicker = simkernel.TimerHandle{}
	h.probeTicker.Cancel()
	h.probeTicker = simkernel.TimerHandle{}
	h.probeTimeout.Cancel()
	h.probeToken++
}

// FailDirectory crashes the current directory peer of (site, loc); returns
// false if the position is already empty.
func (s *System) FailDirectory(site model.SiteID, loc int) bool {
	addr, ok := s.DirectoryAddr(site, loc)
	if !ok {
		return false
	}
	s.FailPeer(addr)
	return true
}

// onDirectoryUnreachable runs at a content peer whose keepalive (or push)
// went unanswered: forget the directory and try to replace it (§5.2).
func (s *System) onDirectoryUnreachable(h *host) {
	if h.cp == nil {
		return
	}
	s.traceDirSilent(h)
	h.cp.ForgetDir()
	if s.cfg.StandbyFailover {
		if h.replica != nil && h.standbyFor != 0 {
			// We ARE the standby: take over directly, don't race ourselves
			// through the cold join protocol.
			s.requestPromotion(h)
			return
		}
		// Give the designated standby a deterministic head start (two probe
		// periods plus jitter) before volunteering a cold rebuild; the
		// delayed retry re-checks the ring and simply adopts the promoted
		// standby in the common case.
		grace := 2*s.cfg.StandbyProbe +
			simkernel.Time(s.prand(h.addr).Int63n(int64(s.cfg.StandbyProbe)))
		s.hs.joinTimer[h.addr].Cancel()
		s.hs.joinTimer[h.addr] = s.hostKernel(h.addr).AfterArg(grace, s.joinRetryFn, uint64(uint32(h.addr)))
		return
	}
	s.attemptDirJoin(h, h.cp.Site(), h.cp.Locality())
}

// attemptDirJoin starts the §5.2 replacement protocol: the candidate
// "uses the common key assigned for d(ws,loc) and attempts to join D-ring
// via the normal join procedure". The join request is routed through
// D-ring; whoever is closest to the key decides whether the position is
// already taken.
func (s *System) attemptDirJoin(h *host, site model.SiteID, loc int) {
	if s.hs.has(h.addr, hfJoinInFlight) || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	key := s.ks.KeyForWebsiteID(s.widBySite[site], loc, int(s.hs.dirInstance[h.addr]))
	if n := s.ring.Lookup(key); n != nil && n.Up() {
		// Someone already replaced it: adopt.
		s.hs.joinAttempts[h.addr] = 0
		if h.cp != nil {
			h.cp.SetDir(n.Addr())
			s.pushFullContent(h)
		}
		return
	}
	entry, ok := s.randomAliveDir(s.prand(h.addr))
	if !ok {
		return
	}
	s.hs.set(h.addr, hfJoinInFlight)
	s.net.Send(h.addr, entry, simnet.CatMaintenance, bytesJoinCtl,
		routedMsg{Key: key, TTL: dring.RouteTTL(s.ks.Space), Inner: innerDirJoin{Candidate: h.addr}})
	// Clear the in-flight latch if the request is lost in a broken ring;
	// an answer cancels the timer.
	s.hs.joinTimer[h.addr].Cancel()
	s.hs.joinTimer[h.addr] = s.hostKernel(h.addr).AfterArg(15*simkernel.Second, s.joinLatchFn, uint64(uint32(h.addr)))
}

// handleDirJoinRequest runs at the D-ring node that received the routed
// join: if the position is filled, point the candidate at the incumbent;
// otherwise accept and offer ourselves as the bootstrap.
func (s *System) handleDirJoinRequest(h *host, key chord.ID, m innerDirJoin) {
	if n := s.ring.Lookup(key); n != nil && n.Up() {
		s.net.Send(h.addr, m.Candidate, simnet.CatMaintenance, bytesJoinCtl,
			dirJoinTakenMsg{Key: key, NewDir: n.Addr()})
		return
	}
	s.net.Send(h.addr, m.Candidate, simnet.CatMaintenance, bytesJoinCtl,
		dirJoinAcceptMsg{Key: key, Bootstrap: h.addr})
}

// handleDirJoinTaken: another content peer won the race; learn the new
// directory and make sure it indexes our content ("the content peer gets
// acquainted with its new directory peer", §5.2).
func (s *System) handleDirJoinTaken(h *host, m dirJoinTakenMsg) {
	s.hs.clearFlag(h.addr, hfJoinInFlight)
	s.hs.joinTimer[h.addr].Cancel()
	s.hs.joinAttempts[h.addr] = 0
	if h.cp == nil {
		return
	}
	h.cp.SetDir(m.NewDir)
	s.pushFullContent(h)
}

// handleDirJoinAccept: we may take the position. Join D-ring under the
// common key, become the directory, and rebuild the index from pushes
// while answering early queries from our own store and view (§5.2).
func (s *System) handleDirJoinAccept(h *host, m dirJoinAcceptMsg) {
	s.hs.clearFlag(h.addr, hfJoinInFlight)
	s.hs.joinTimer[h.addr].Cancel()
	s.hs.joinAttempts[h.addr] = 0
	if h.cp == nil || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	key := m.Key
	if n := s.ring.Lookup(key); n != nil {
		if n.Up() {
			// Raced: someone else joined first.
			h.cp.SetDir(n.Addr())
			s.pushFullContent(h)
			return
		}
		s.assertRingMutable("directory replacement join")
		s.ring.RemoveNode(key)
	}
	bh := s.hosts[m.Bootstrap]
	if bh == nil || bh.dirNode == nil || !bh.dirNode.Up() {
		return
	}
	s.assertRingMutable("directory replacement join")
	node, err := s.ring.AddNode(key, h.addr)
	if err != nil {
		return
	}
	if err := s.ring.Join(node, bh.dirNode); err != nil {
		s.ring.RemoveNode(key)
		return
	}
	node.Stabilize()
	node.FixAllFingers()
	s.installDirectory(h, node, h.cp.Site(), h.cp.Locality())
	// Index our own holdings immediately; overlay members re-register via
	// their keepalive timeouts and pushes.
	h.dir.ApplyPush(h.addr, h.cp.Objects(), nil)
	h.cp.SetDir(h.addr)
	s.statsAt(h.addr).DirReplacements++
	s.traceDirReplaced(h)
}

// installDirectory wires directory state and tickers onto a host.
func (s *System) installDirectory(h *host, node *chord.Node, site model.SiteID, loc int) {
	key := node.ID()
	h.dirNode = node
	h.dir = dring.NewDirectory(site, s.widBySite[site], loc, key,
		s.cfg.MaxOverlaySize, s.cfg.ObjectsPerSite, s.cfg.DirSummaryThreshold, s.in)
	s.dirByKey[key] = h.addr
	s.dirAddrs = append(s.dirAddrs, h.addr)
	offset := simkernel.Time(s.prand(h.addr).Int63n(int64(s.cfg.TGossip)))
	s.hs.dirTicker[h.addr] = s.hostKernel(h.addr).EveryArg(offset, s.cfg.TGossip, s.dirTickFn, uint64(h.addr))
	s.startReplicationTicker(h)
	if s.cfg.StandbyFailover {
		// A host promoted into a directory stops being anyone's standby.
		s.stopStandbyWatch(h)
		s.startStandbyTicker(h)
	}
	if s.cfg.MaintenancePeriod > 0 && !s.hs.stabTicker[h.addr].Active() {
		// Stabilization mutates the shared ring: coordination kernel only.
		mo := simkernel.Time(s.prand(h.addr).Int63n(int64(s.cfg.MaintenancePeriod)))
		s.hs.stabTicker[h.addr] = s.k.EveryArg(mo, s.cfg.MaintenancePeriod, s.stabTickFn, uint64(h.addr))
	}
}

// pushFullContent re-registers every held object with the (new) directory.
func (s *System) pushFullContent(h *host) {
	if h.cp == nil {
		return
	}
	d := h.cp.Dir()
	if !d.Known || d.Addr == h.addr {
		return
	}
	objs := h.cp.Objects()
	if len(objs) == 0 {
		return
	}
	m := pushMsg{Site: h.cp.Site(), M: overlayPush(h.addr, objs)}
	s.net.Send(h.addr, d.Addr, simnet.CatPush, m.M.WireBytes(), m)
	h.cp.RefreshDir()
}

// DirectoryLeave performs a §5.2 voluntary departure: the directory picks
// its most stable member ("according to ... peer stability"), transfers
// the directory index, summaries and its D-ring routing position, and
// leaves the system. Returns false when there is no suitable successor.
func (s *System) DirectoryLeave(site model.SiteID, loc int) bool {
	addr, ok := s.DirectoryAddr(site, loc)
	if !ok {
		return false
	}
	old := s.hosts[addr]
	if old == nil || old.dir == nil || old.dirNode == nil {
		return false
	}
	var best *host
	for _, mAddr := range old.dir.Members() {
		mh := s.hosts[mAddr]
		if mh == nil || mh.cp == nil || mh.dir != nil || !s.net.Alive(mAddr) {
			continue
		}
		if best == nil || mh.cp.JoinedAt() < best.cp.JoinedAt() {
			best = mh
		}
	}
	if best == nil {
		return false
	}
	// Hand over the D-ring position and the directory state.
	s.assertRingMutable("directory handoff")
	node := s.ring.Transplant(old.dirNode, best.addr)
	s.installDirectory(best, node, site, loc)
	best.dir.ImportEntries(old.dir.ExportEntries())
	for _, ns := range old.dir.NeighborSummaries() {
		best.dir.UpdateNeighborSummary(ns.DirID, ns.Locality, ns.Filter)
	}
	best.cp.SetDir(best.addr)
	// Stand the old designation down: the successor directory designates
	// its own standby on its maintenance loop.
	if old.standby != 0 {
		if sb := s.hosts[old.standby]; sb != nil && s.net.Alive(old.standby) && sb.standbyFor == old.addr {
			s.net.Send(old.addr, old.standby, simnet.CatKeepalive, bytesKeepalive, standbyRevokeMsg{FromDir: old.addr})
		}
		old.standby = 0
	}
	// The old directory departs.
	old.dir = nil
	old.dirNode = nil
	s.hs.stopTimers(old.addr)
	s.stopStandbyTimers(old)
	s.net.Fail(old.addr)
	if s.hs.has(old.addr, hfAccounted) {
		s.metsAt(old.addr).PeerLeft(s.k.Now())
		s.hs.clearFlag(old.addr, hfAccounted)
	}
	s.statsAt(addr).DirReplacements++
	s.traceDirHandoff(old.addr, best.addr, site, loc)
	return true
}

// ChangeLocality implements §5.4: the peer detects it now belongs to a
// different locality and switches overlays — it leaves its old overlay
// (contacts discover this via gossip rejections and ages), rejoins the new
// one as a new client on its next query, and then re-pushes its held
// content to the new directory.
func (s *System) ChangeLocality(addr simnet.NodeID, newLoc int) bool {
	h := s.hosts[addr]
	if h == nil || s.hs.has(addr, hfServer) || h.dir != nil {
		return false
	}
	if newLoc < 0 || newLoc >= s.cfg.Localities {
		return false
	}
	s.hs.assignedLoc[addr] = int32(newLoc)
	s.hs.set(addr, hfLocOverride)
	if h.cp != nil {
		s.hs.stash[addr] = h.cp.Objects()
		h.cp = nil
		s.hs.gossipTicker[addr].Cancel()
		s.hs.kaTicker[addr].Cancel()
		s.hs.gossipTimeout[addr].Cancel()
		s.hs.kaTimeout[addr].Cancel()
		// Still an accounted participant; it rejoins on its next query.
	}
	return true
}
