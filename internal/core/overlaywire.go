package core

import (
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// newContentPeerFor constructs the overlay state for a joining host.
func newContentPeerFor(h *host, site model.SiteID, loc int, cfg overlay.Config, now simkernel.Time) *overlay.ContentPeer {
	return overlay.New(h.addr, site, loc, cfg, now, h.sys.in)
}

// overlayPush builds an additions-only push (full-content re-registration
// after a directory change, §5.2).
func overlayPush(from simnet.NodeID, added []model.ObjectRef) overlay.PushMsg {
	return overlay.PushMsg{From: from, Added: added}
}

// startContentPeerTickers launches the periodic behaviours of a content
// peer: the active gossip loop (Algorithm 4) and the keepalive loop
// (§5.1). Phases are randomised so overlays do not synchronise.
func (s *System) startContentPeerTickers(h *host) {
	k := s.hostKernel(h.addr)
	gOffset := simkernel.Time(s.prand(h.addr).Int63n(int64(s.cfg.TGossip)))
	s.hs.gossipTicker[h.addr] = k.EveryArg(gOffset, s.cfg.TGossip, s.gossipTickFn, uint64(h.addr))
	kOffset := simkernel.Time(s.prand(h.addr).Int63n(int64(s.cfg.TKeepalive)))
	s.hs.kaTicker[h.addr] = k.EveryArg(kOffset, s.cfg.TKeepalive, s.kaTickFn, uint64(h.addr))
}

// gossipTick is the active behaviour of Algorithm 4. In steady state it
// allocates nothing: the envelope and its view-subset buffer come from the
// System pools, and the failure-detection timeout is armed through the
// kernel's AfterArg path with a callback bound once at construction.
func (s *System) gossipTick(h *host) {
	if h.cp == nil || !s.net.Alive(h.addr) {
		return
	}
	h.cp.TickAges()
	h.cp.DropOldContacts(s.cfg.TDead)
	if h.cp.View().Len() == 0 {
		return // nobody to gossip with (and no subset buffer to waste)
	}
	cell := s.cellIdx(h.addr)
	target, m, ok := h.cp.MakeGossip(s.prand(h.addr), s.takeSubsetBuf(cell))
	if !ok {
		return
	}
	wrapped := s.newGossipMsg(cell, h.cp.Site(), h.cp.Locality(), m)
	s.net.Send(h.addr, target, simnet.CatGossip, bytesGossipHdr+m.WireBytes(), wrapped)
	// Failure detection: no answer within the deadline ⇒ drop the contact.
	// The reply (or a reject) cancels the armed timer.
	s.hs.gossipToken[h.addr]++
	s.hs.gossipTarget[h.addr] = target
	s.hs.gossipTimeout[h.addr].Cancel()
	s.hs.gossipTimeout[h.addr] = s.hostKernel(h.addr).AfterArg(s.exchangeTimeout(h.addr, target),
		s.gossipTimeoutFn, packAddrTok(h.addr, s.hs.gossipToken[h.addr]))
}

// handleGossip covers both directions of an exchange. The envelope (and
// the subset buffer inside it) is recycled to the pools on every path out,
// so it must not be touched after this function returns (the overlay
// copies what it keeps during merge).
func (s *System) handleGossip(h *host, wrapped *gossipMsg) {
	m := wrapped.M
	cell := s.cellIdx(h.addr)
	if m.IsReply {
		// Completion of our active round: disarm failure detection.
		s.hs.gossipToken[h.addr]++
		s.hs.gossipTimeout[h.addr].Cancel()
		if h.cp != nil && h.cp.Site() == wrapped.Site && h.cp.Locality() == wrapped.Loc {
			h.cp.ApplyGossipReply(m)
		}
		s.putGossipMsg(cell, wrapped)
		return
	}
	// Passive behaviour.
	if h.cp == nil || h.cp.Site() != wrapped.Site || h.cp.Locality() != wrapped.Loc {
		// We are not (any longer) in the sender's overlay (§5.4).
		s.statsAt(h.addr).GossipRejects++
		s.putGossipMsg(cell, wrapped)
		s.net.Send(h.addr, m.From, simnet.CatGossip, bytesKeepalive, gossipRejectMsg{From: h.addr})
		return
	}
	reply := h.cp.AcceptGossip(m, s.prand(h.addr), s.takeSubsetBuf(cell))
	rw := s.newGossipMsg(cell, wrapped.Site, wrapped.Loc, reply)
	s.putGossipMsg(cell, wrapped)
	s.net.Send(h.addr, m.From, simnet.CatGossip, bytesGossipHdr+reply.WireBytes(), rw)
}

func (s *System) handleGossipReject(h *host, m gossipRejectMsg) {
	s.hs.gossipToken[h.addr]++
	s.hs.gossipTimeout[h.addr].Cancel()
	if h.cp != nil {
		h.cp.RemoveContact(m.From)
	}
}

// maybePush runs Algorithm 5's threshold check after a content change.
func (s *System) maybePush(h *host) {
	if h.cp == nil || !h.cp.NeedPush() {
		return
	}
	d := h.cp.Dir()
	if !d.Known {
		return
	}
	if d.Addr == h.addr {
		// This peer IS the directory (§5.2 replacement): index locally.
		if h.dir != nil {
			if m, ok := h.cp.TakePush(); ok {
				h.dir.ApplyPush(h.addr, m.Added, m.Removed)
			}
		}
		return
	}
	m, ok := h.cp.TakePush()
	if !ok {
		return
	}
	s.net.Send(h.addr, d.Addr, simnet.CatPush, m.WireBytes(), pushMsg{Site: h.cp.Site(), M: m})
	h.cp.RefreshDir() // Algorithm 5: reset_age(d)
}

// handlePush is Algorithm 6's passive behaviour at the directory.
func (s *System) handlePush(h *host, m pushMsg) {
	if h.dir == nil || h.dir.Site() != m.Site {
		return
	}
	h.dir.ApplyPush(m.M.From, m.M.Added, m.M.Removed)
}

// keepaliveTick sends the §5.1 liveness probe to the directory and arms
// failure detection (§5.2: failures are noticed "while sending keepalive
// or push messages"). Allocation-free in steady state: the probe payload
// is pre-boxed per host and the timeout rides AfterArg.
func (s *System) keepaliveTick(h *host) {
	if h.cp == nil || !s.net.Alive(h.addr) {
		return
	}
	d := h.cp.Dir()
	if !d.Known || d.Addr == h.addr {
		return
	}
	if s.hs.kaPayload[h.addr] == nil {
		s.hs.kaPayload[h.addr] = keepaliveMsg{From: h.addr}
	}
	s.net.Send(h.addr, d.Addr, simnet.CatKeepalive, bytesKeepalive, s.hs.kaPayload[h.addr])
	if s.cfg.Adaptive {
		s.hs.kaSentAt[h.addr] = s.nowAt(h.addr)
	}
	s.hs.kaToken[h.addr]++
	s.hs.kaTimeout[h.addr].Cancel()
	s.hs.kaTimeout[h.addr] = s.hostKernel(h.addr).AfterArg(s.exchangeTimeout(h.addr, d.Addr),
		s.kaTimeoutFn, packAddrTok(h.addr, s.hs.kaToken[h.addr]))
}

func (s *System) handleKeepalive(h *host, m keepaliveMsg) {
	if h.dir == nil {
		return // not a directory (any more): silence triggers replacement
	}
	h.dir.Keepalive(m.From)
	if s.hs.kaAckPayload[h.addr] == nil {
		s.hs.kaAckPayload[h.addr] = keepaliveAckMsg{From: h.addr}
	}
	s.net.Send(h.addr, m.From, simnet.CatKeepalive, bytesKeepalive, s.hs.kaAckPayload[h.addr])
}

func (s *System) handleKeepaliveAck(h *host, m keepaliveAckMsg) {
	s.hs.kaToken[h.addr]++
	s.hs.kaTimeout[h.addr].Cancel()
	if s.cfg.Adaptive && s.hs.kaSentAt[h.addr] > 0 {
		// Keepalive round trips are the steady drip that keeps every member's
		// estimator warm even when it issues no queries.
		s.observeRTT(h.addr, s.nowAt(h.addr)-s.hs.kaSentAt[h.addr])
		s.hs.kaSentAt[h.addr] = 0
	}
	if h.cp != nil {
		h.cp.RefreshDir()
	}
}

// dirTick is the directory's periodic behaviour: age the index (Algorithm
// 6), evict the dead (§5.1), and propagate a refreshed directory summary
// when enough new content accumulated (§4.2.1). The age+evict half is a
// linear sweep over the directory's entry slab and allocates nothing
// (EvictOlderThan returns directory-owned scratch, discarded here) — at
// the 100k preset this tick fires on every directory every T_gossip, so
// it is the steady-state floor of the control plane.
func (s *System) dirTick(h *host) {
	if h.dir == nil || !s.net.Alive(h.addr) {
		return
	}
	h.dir.TickAges()
	h.dir.EvictOlderThan(s.cfg.TDead)
	if !h.dir.ShouldPublishSummary() {
		return
	}
	f := h.dir.BuildSummary()
	sent := false
	if h.dirNode != nil && h.dirNode.Up() {
		for _, p := range h.dirNode.KnownPeers() {
			if !s.ks.SameWebsite(p.ID(), h.dir.Key()) || p.ID() == h.dir.Key() {
				continue
			}
			s.net.Send(h.addr, p.Addr(), simnet.CatDirSummary, 20+f.SizeBytes(),
				dirSummaryMsg{FromKey: h.dir.Key(), Loc: h.dir.Locality(), Filter: f})
			sent = true
		}
	}
	if sent {
		h.dir.MarkSummaryPublished()
	}
}

func (s *System) handleDirSummary(h *host, m dirSummaryMsg) {
	if h.dir == nil {
		return
	}
	h.dir.UpdateNeighborSummary(m.FromKey, m.Loc, m.Filter)
}
