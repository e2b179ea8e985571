package core

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// host is one simulated process. A host can play several roles over its
// lifetime: origin server, directory peer, content peer — and, after a
// §5.2 replacement, directory and content peer at once.
//
// Only the cold, pointer-shaped protocol state lives here; the hot
// per-host control fields (tickers, await tokens, timeout handles, role
// bits, locality, stash) live in System.hs, a struct-of-arrays indexed by
// addr — see hoststate.go.
type host struct {
	sys  *System
	addr simnet.NodeID

	// Roles.
	serverSite model.SiteID
	cp         *overlay.ContentPeer
	dir        *dring.Directory
	dirNode    *chord.Node

	// Warm-standby failover state (nil/zero unless Config.StandbyFailover
	// engaged it; rare enough that pointer-shaped host fields beat SoA
	// slots). A directory remembers its designated standby; a standby
	// carries the replica index, the primary it watches and the probe
	// watchdog machinery.
	standby       simnet.NodeID         // directory side: designated standby (0 = none)
	standbyTicker simkernel.TimerHandle // directory side: designation + anti-entropy loop
	deltaShards   []int32               // directory side: TakeDirtyShards scratch
	replica       *dring.Directory      // standby side: warm copy of the primary's index
	standbyFor    simnet.NodeID         // standby side: the watched primary (0 = not a standby)
	standbyKey    chord.ID              // standby side: the D-ring position to take over
	standbySite   model.SiteID
	standbyLoc    int
	probeTicker   simkernel.TimerHandle
	probeToken    uint32
	probeTimeout  simkernel.TimerHandle
}

func (h *host) isServer() bool { return h.sys.hs.has(h.addr, hfServer) }

func (h *host) overlayLocality() int { return h.sys.hs.overlayLocality(h.addr) }

// HandleMessage dispatches simulated datagrams to the protocol engines.
func (h *host) HandleMessage(msg simnet.Message) {
	s := h.sys
	switch m := msg.Payload.(type) {
	case routedMsg:
		s.handleRouted(h, m)
	case redirectMsg:
		s.handleRedirect(h, m)
	case redirectAckMsg:
		s.settle(m.Q)
	case redirectFailMsg:
		s.handleRedirectFail(h, m)
	case peerQueryMsg:
		s.handlePeerQuery(h, m)
	case nackMsg:
		s.handleNack(h, m, msg.From)
	case fetchMsg:
		s.handleFetch(h, m)
	case dirQueryMsg:
		s.handleDirQuery(h, m)
	case forwardedQueryMsg:
		s.handleForwardedQuery(h, m)
	case forwardFailMsg:
		s.handleForwardFail(h, m)
	case serveMsg:
		s.handleServe(h, m)
	case *gossipMsg:
		s.handleGossip(h, m)
	case gossipRejectMsg:
		s.handleGossipReject(h, m)
	case pushMsg:
		s.handlePush(h, m)
	case keepaliveMsg:
		s.handleKeepalive(h, m)
	case keepaliveAckMsg:
		s.handleKeepaliveAck(h, m)
	case dirSummaryMsg:
		s.handleDirSummary(h, m)
	case dirJoinTakenMsg:
		s.handleDirJoinTaken(h, m)
	case dirJoinAcceptMsg:
		s.handleDirJoinAccept(h, m)
	case replicaOfferMsg:
		s.handleReplicaOffer(h, m)
	case prefetchMsg:
		s.handlePrefetch(h, m)
	case prefetchFetchMsg:
		s.handlePrefetchFetch(h, m)
	case prefetchServeMsg:
		s.handlePrefetchServe(h, m)
	case standbyAssignMsg:
		s.handleStandbyAssign(h, m)
	case standbyDeltaMsg:
		s.handleStandbyDelta(h, m)
	case standbyRevokeMsg:
		s.handleStandbyRevoke(h, m)
	case standbyProbeMsg:
		s.handleStandbyProbe(h, m)
	case standbyProbeAckMsg:
		s.handleStandbyProbeAck(h, m)
	case standbyPromoteMsg:
		s.handleStandbyPromote(h, m)
	default:
		// Unknown payloads are dropped (future-proofing).
	}
}

// timeout estimates a failure-detection deadline for an exchange with the
// given peer: a round trip plus slack. Simulated processes know their
// measured RTTs (as real peers would from ping history).
func (s *System) timeout(a, b simnet.NodeID) simkernel.Time {
	return 2*s.net.Latency(a, b) + 50*simkernel.Millisecond
}

// await arms a cancellable timeout for q; any settle (on response) or a
// newer await revokes it. At most one timeout per query is armed at a
// time, so completion leaves no dead events behind. The timer lives on
// the kernel of the executing context: the origin's cell during parallel
// phases (handlers touching q always run there, per payloadForeign), the
// coordination kernel in barrier context.
func (s *System) await(q *Query, d simkernel.Time, onTimeout func()) {
	s.settle(q)
	tok := q.token
	q.pending = s.execKernel(q.Origin).After(d, func() {
		if q.token == tok && !q.finished {
			onTimeout()
		}
	})
}
