package core

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// This file implements the warm-standby directory failover extension
// (Config.StandbyFailover). Every directory designates the most stable
// member of its overlay (the §5.2 candidate-scoring order: earliest
// JoinedAt, then address) as a warm standby, seeds it with a full index
// snapshot and keeps the standby's replica fresh with dirty-shard deltas
// from the dring delta seam. The standby probes its primary far tighter
// than the overlay keepalive; on silence it asks the coordination kernel
// — where D-ring state is authoritative — to promote it. A promoted
// standby takes over the D-ring position *with* its replica (bounded
// staleness; stale holders wash out through the §5.1 redirection-failure
// path), instead of the cold §5.2 rebuild from an empty index.
//
// Everything here is gated off by default: with StandbyFailover false no
// ticker is armed, no RNG is drawn, no message is sent, and the pinned
// clean-network goldens stay byte-identical.

// startStandbyTicker arms the designation/anti-entropy maintenance loop
// on a directory host. Offsets are randomised like every other periodic
// behaviour so directories do not synchronise.
func (s *System) startStandbyTicker(h *host) {
	if !s.cfg.StandbyFailover || h.standbyTicker.Active() {
		return
	}
	offset := simkernel.Time(s.prand(h.addr).Int63n(int64(s.cfg.StandbySyncEvery)))
	h.standbyTicker = s.hostKernel(h.addr).EveryArg(offset, s.cfg.StandbySyncEvery, s.standbyMaintFn, uint64(h.addr))
}

// standbyMaintTick is the directory-side loop: validate or (re)designate
// the standby, then ship up to StandbySyncShards dirty shards. The
// directory and every member of its overlay share a locality — and
// therefore a cell — so all reads and sends here stay cell-local.
func (s *System) standbyMaintTick(h *host) {
	if h.dir == nil || !s.net.Alive(h.addr) {
		return
	}
	if h.standby != 0 && !s.standbyStillFit(h) {
		if sb := s.hosts[h.standby]; sb != nil && s.net.Alive(h.standby) && sb.standbyFor == h.addr {
			s.net.Send(h.addr, h.standby, simnet.CatKeepalive, bytesKeepalive, standbyRevokeMsg{FromDir: h.addr})
		}
		h.standby = 0
		h.dir.DisableDeltaTracking()
	}
	if h.standby == 0 {
		s.designateStandby(h)
		return // the full snapshot covers everything; deltas start next tick
	}
	if h.dir.DirtyShardCount() == 0 {
		return
	}
	h.deltaShards = h.dir.TakeDirtyShards(h.deltaShards[:0], s.cfg.StandbySyncShards)
	for _, sh := range h.deltaShards {
		// The wire rows are owned by the message (applied after latency),
		// so each delta exports into a fresh slice.
		m := standbyDeltaMsg{FromDir: h.addr, Shard: sh, Entries: h.dir.ExportShard(int(sh), nil)}
		s.net.Send(h.addr, h.standby, simnet.CatMaintenance, m.wireBytes(), m)
		s.statsAt(h.addr).StandbyDeltas++
	}
}

// standbyStillFit re-validates the current designation: the standby must
// be alive, still a plain content peer, and still watching us.
func (s *System) standbyStillFit(h *host) bool {
	sb := s.hosts[h.standby]
	return sb != nil && s.net.Alive(h.standby) && sb.cp != nil && sb.dir == nil && sb.standbyFor == h.addr
}

// designateStandby picks the directory's most stable member (§5.2
// ordering: earliest join, address as the deterministic tie-break) and
// seeds it with a full index snapshot.
func (s *System) designateStandby(h *host) {
	var best *host
	for _, mAddr := range h.dir.Members() {
		mh := s.hosts[mAddr]
		if mh == nil || mh.cp == nil || mh.dir != nil || !s.net.Alive(mAddr) {
			continue
		}
		if mh.standbyFor != 0 && mh.standbyFor != h.addr {
			continue // already carries a replica for another directory
		}
		if best == nil || mh.cp.JoinedAt() < best.cp.JoinedAt() ||
			(mh.cp.JoinedAt() == best.cp.JoinedAt() && mAddr < best.addr) {
			best = mh
		}
	}
	if best == nil {
		return // empty or dead overlay: no standby, no probe traffic
	}
	h.standby = best.addr
	h.dir.EnableDeltaTracking()
	m := standbyAssignMsg{
		FromDir: h.addr,
		Key:     h.dir.Key(),
		Site:    h.dir.Site(),
		Loc:     h.dir.Locality(),
		Entries: h.dir.ExportEntries(),
	}
	s.net.Send(h.addr, best.addr, simnet.CatMaintenance, m.wireBytes(), m)
	s.statsAt(h.addr).StandbyAssigns++
}

// handleStandbyAssign runs at the designated standby: build (or rebuild)
// the replica from the snapshot and start probing the primary.
func (s *System) handleStandbyAssign(h *host, m standbyAssignMsg) {
	if h.cp == nil || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	if h.replica == nil || h.standbyFor != m.FromDir || h.standbyKey != m.Key {
		h.replica = dring.NewDirectory(m.Site, s.widBySite[m.Site], m.Loc, m.Key,
			s.cfg.MaxOverlaySize, s.cfg.ObjectsPerSite, s.cfg.DirSummaryThreshold, s.in)
	}
	h.standbyFor = m.FromDir
	h.standbyKey = m.Key
	h.standbySite = m.Site
	h.standbyLoc = m.Loc
	h.replica.ImportEntries(m.Entries)
	s.startStandbyProbes(h)
}

// handleStandbyDelta applies one dirty shard to the replica.
func (s *System) handleStandbyDelta(h *host, m standbyDeltaMsg) {
	if h.replica == nil || h.standbyFor != m.FromDir {
		return
	}
	h.replica.ApplyShardDelta(int(m.Shard), m.Entries)
}

// handleStandbyRevoke stands a former standby down.
func (s *System) handleStandbyRevoke(h *host, m standbyRevokeMsg) {
	if h.standbyFor != m.FromDir {
		return
	}
	s.stopStandbyWatch(h)
}

// stopStandbyWatch clears all standby-side state: watchdog, replica and
// designation memory.
func (s *System) stopStandbyWatch(h *host) {
	h.probeTicker.Cancel()
	h.probeTicker = simkernel.TimerHandle{}
	h.probeTimeout.Cancel()
	h.probeTimeout = simkernel.TimerHandle{}
	h.probeToken++
	h.replica = nil
	h.standbyFor = 0
	h.standbyKey = 0
	h.standbySite = ""
	h.standbyLoc = 0
}

// startStandbyProbes arms the standby→primary liveness watchdog.
func (s *System) startStandbyProbes(h *host) {
	if h.probeTicker.Active() {
		return
	}
	offset := simkernel.Time(s.prand(h.addr).Int63n(int64(s.cfg.StandbyProbe)))
	h.probeTicker = s.hostKernel(h.addr).EveryArg(offset, s.cfg.StandbyProbe, s.standbyProbeFn, uint64(h.addr))
}

// standbyProbeTick sends one liveness probe and arms its deadline. A
// single missed probe already requests promotion: the coordination-kernel
// arbiter re-checks ring liveness, so a false alarm is a no-op while a
// real crash is detected within ~one probe period — which is what lets
// warm detection beat the cold keepalive-offset race.
func (s *System) standbyProbeTick(h *host) {
	if h.standbyFor == 0 || h.cp == nil || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	s.net.Send(h.addr, h.standbyFor, simnet.CatKeepalive, bytesKeepalive, standbyProbeMsg{From: h.addr})
	h.probeToken++
	tok := h.probeToken
	h.probeTimeout.Cancel()
	h.probeTimeout = s.hostKernel(h.addr).After(s.exchangeTimeout(h.addr, h.standbyFor), func() {
		if h.probeToken == tok {
			s.requestPromotion(h)
		}
	})
}

// handleStandbyProbe runs at the primary: ack if the designation still
// stands, revoke a stray prober otherwise.
func (s *System) handleStandbyProbe(h *host, m standbyProbeMsg) {
	if h.dir == nil {
		return // demoted or departed: silence is the correct answer
	}
	if h.standby != m.From {
		s.net.Send(h.addr, m.From, simnet.CatKeepalive, bytesKeepalive, standbyRevokeMsg{FromDir: h.addr})
		return
	}
	s.net.Send(h.addr, m.From, simnet.CatKeepalive, bytesKeepalive, standbyProbeAckMsg{From: h.addr})
}

func (s *System) handleStandbyProbeAck(h *host, m standbyProbeAckMsg) {
	if h.standbyFor != m.From {
		return
	}
	h.probeToken++
	h.probeTimeout.Cancel()
}

// requestPromotion sends the standby's self-addressed takeover decision
// to the global venue: ring mutations happen on the coordination kernel,
// where liveness can be judged against authoritative state.
func (s *System) requestPromotion(h *host) {
	if h.standbyFor == 0 || h.replica == nil || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	s.net.Send(h.addr, h.addr, simnet.CatMaintenance, bytesJoinCtl,
		standbyPromoteMsg{Key: h.standbyKey, Site: h.standbySite, Loc: h.standbyLoc})
}

// handleStandbyPromote is the promotion arbiter. It executes on the
// coordination kernel (standbyPromoteMsg is a global payload): if the
// watched position is actually held by a live node the alarm was false
// and nothing happens; otherwise the standby joins D-ring under the
// common key and becomes the directory with its replica as the index.
func (s *System) handleStandbyPromote(h *host, m standbyPromoteMsg) {
	if h.cp == nil || h.dir != nil || h.replica == nil || !s.net.Alive(h.addr) {
		return
	}
	if n := s.ring.Lookup(m.Key); n != nil {
		if n.Up() {
			return // false alarm (or a raced replacement): keep watching
		}
		s.ring.RemoveNode(m.Key)
	}
	node, err := s.ring.AddNode(m.Key, h.addr)
	if err != nil {
		return
	}
	if boot := s.liveBootstrapNode(h.addr); boot != nil {
		if err := s.ring.Join(node, boot); err != nil {
			s.ring.RemoveNode(m.Key)
			return
		}
		node.Stabilize()
		node.FixAllFingers()
	}
	// Staleness at takeover: shards the dead primary dirtied but never
	// shipped (readable in simulation; a real standby would bound this by
	// its sync cadence).
	if prim := s.hosts[h.standbyFor]; prim != nil && prim.dir != nil {
		s.statsAt(h.addr).StandbyStaleShards += prim.dir.DirtyShardCount()
	}
	replica := h.replica
	site, loc := m.Site, m.Loc
	s.stopStandbyWatch(h)
	s.installDirectory(h, node, site, loc)
	// Promote with the replica, then index our own holdings; the overlay
	// re-registers via keepalives and pushes, and stale holders wash out
	// through redirection failures (§5.1).
	h.dir.ImportEntries(replica.ExportEntries())
	h.dir.ApplyPush(h.addr, h.cp.Objects(), nil)
	h.cp.SetDir(h.addr)
	// Announce the takeover to the overlay using the replica's member
	// list — the one thing a cold §5.2 rebuild cannot do, because its
	// index starts empty. Members re-point immediately (and re-push their
	// content) instead of waiting out a keepalive timeout each; the
	// existing dirJoinTakenMsg already encodes exactly this transition.
	for _, mAddr := range h.dir.Members() {
		if mAddr == h.addr || !s.net.Alive(mAddr) {
			continue
		}
		s.net.Send(h.addr, mAddr, simnet.CatMaintenance, bytesJoinCtl,
			dirJoinTakenMsg{Key: m.Key, NewDir: h.addr})
	}
	s.statsAt(h.addr).StandbyPromotions++
	s.traceStandbyPromoted(h)
}

// liveBootstrapNode finds a live D-ring member to join through.
func (s *System) liveBootstrapNode(exclude simnet.NodeID) *chord.Node {
	for _, da := range s.dirAddrs {
		if da == exclude {
			continue
		}
		bh := s.hosts[da]
		if bh != nil && bh.dirNode != nil && bh.dirNode.Up() && s.net.Alive(da) {
			return bh.dirNode
		}
	}
	return nil
}
