package core

import (
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// This file holds the per-host hot control-plane state as struct-of-arrays
// owned by System, indexed by simnet.NodeID — the same dense-index layout
// the content plane uses for interned objects. The dispatch loop and the
// keepalive/gossip scans touch these flat slices instead of chasing a
// pointer into a fat per-host struct: the fields a tick actually reads
// (token, timeout handle, flags) sit contiguously across hosts, and the
// cold protocol state (*overlay.ContentPeer, *dring.Directory) stays
// behind the host pointer where only role transitions need it.

// hostFlag packs the per-host role and latch bits.
type hostFlag uint8

const (
	// hfServer marks an origin-server host (never fails, never joins).
	hfServer hostFlag = 1 << iota
	// hfLocOverride marks a §5.4 locality change: assignedLoc replaces the
	// measured locality.
	hfLocOverride
	// hfAccounted marks a participant of the per-peer traffic average.
	hfAccounted
	// hfJoinInFlight latches an outstanding §5.2 directory-join request.
	hfJoinInFlight
)

// hostSoA carries one entry per underlay node in every slice; a host's
// state lives at index host.addr across all of them.
type hostSoA struct {
	flags       []hostFlag
	loc         []int32 // measured (landmark) locality
	assignedLoc []int32 // §5.4 override, valid when hfLocOverride is set
	dirInstance []int32 // §5.3 directory instance this content peer belongs to

	// Await tokens, their armed failure-detection timers, and the pending
	// gossip partner. The handles let replies revoke the timeout outright;
	// the tokens stay as a guard against replies racing a new round at the
	// same instant. Storing the gossip target here lets the timeout fire
	// through a long-lived bound callback (no per-tick closure).
	gossipToken   []uint32
	gossipTarget  []simnet.NodeID
	gossipTimeout []simkernel.TimerHandle
	kaToken       []uint32
	kaTimeout     []simkernel.TimerHandle
	joinTimer     []simkernel.TimerHandle

	// joinAttempts counts consecutive unanswered §5.2 dir-join requests,
	// driving the hardened retry backoff; any answer (taken/accept) or a
	// revival resets it.
	joinAttempts []uint8

	// Periodic behaviours, armed per role: kernel-owned periodic timers
	// (EveryArg with a callback bound once on System, the host address as
	// argument), so a behaviour costs one arena slot and nothing else.
	dirTicker    []simkernel.TimerHandle
	gossipTicker []simkernel.TimerHandle
	kaTicker     []simkernel.TimerHandle
	stabTicker   []simkernel.TimerHandle
	replTicker   []simkernel.TimerHandle

	// Pre-boxed keepalive payloads: boxing a keepaliveMsg value into the
	// network's `any` payload heap-allocates, so each host boxes its two
	// constant probe messages once (lazily) and resends the same interface
	// value every period.
	kaPayload    []any
	kaAckPayload []any

	// Content stashed across a locality change (§5.4): the peer keeps its
	// objects and re-pushes them after rejoining.
	stash [][]model.ObjectRef

	// Optimistic admissions whose serve has not landed yet (hardened runs
	// only). The directory indexes a new client at admission time, before
	// the object reaches it; under loss or a partition that gap is open for
	// seconds to minutes, and abandoned queries leave it open for good. The
	// auditor consults this set so only entries with no admission behind
	// them count as index corruption.
	admitPending [][]model.ObjectRef

	// Adaptive gray-failure state (nil unless Config.Adaptive; see
	// adaptive.go). rttEwma/rttVar is each host's Jacobson estimator over
	// its own observed exchange round trips (keepalive acks, query
	// completions) — observer-indexed, so every write happens in the
	// owning host's execution context. kaSentAt stamps the outstanding
	// keepalive probe. holderStrikes/breakerUntil is the per-holder health
	// score: consecutive redirect/peer-query timeouts trip a cooldown
	// circuit breaker that demotes the holder from candidate lists.
	rttEwma       []simkernel.Time
	rttVar        []simkernel.Time
	rttSamples    []uint32
	kaSentAt      []simkernel.Time
	holderStrikes []uint8
	breakerUntil  []simkernel.Time
}

func newHostSoA(n int) hostSoA {
	return hostSoA{
		flags:         make([]hostFlag, n),
		loc:           make([]int32, n),
		assignedLoc:   make([]int32, n),
		dirInstance:   make([]int32, n),
		gossipToken:   make([]uint32, n),
		gossipTarget:  make([]simnet.NodeID, n),
		gossipTimeout: make([]simkernel.TimerHandle, n),
		kaToken:       make([]uint32, n),
		kaTimeout:     make([]simkernel.TimerHandle, n),
		joinTimer:     make([]simkernel.TimerHandle, n),
		joinAttempts:  make([]uint8, n),
		dirTicker:     make([]simkernel.TimerHandle, n),
		gossipTicker:  make([]simkernel.TimerHandle, n),
		kaTicker:      make([]simkernel.TimerHandle, n),
		stabTicker:    make([]simkernel.TimerHandle, n),
		replTicker:    make([]simkernel.TimerHandle, n),
		kaPayload:     make([]any, n),
		kaAckPayload:  make([]any, n),
		stash:         make([][]model.ObjectRef, n),
		admitPending:  make([][]model.ObjectRef, n),
	}
}

// maxAdmitPending bounds the per-host pending-admission record: a client
// stuck behind a permanent partition abandons one query after another, and
// without a cap its record would grow with every attempt.
const maxAdmitPending = 32

func (hs *hostSoA) noteAdmit(a simnet.NodeID, ref model.ObjectRef) {
	p := hs.admitPending[a]
	for _, r := range p {
		if r == ref {
			return
		}
	}
	if len(p) >= maxAdmitPending {
		copy(p, p[1:])
		p[len(p)-1] = ref
		return
	}
	hs.admitPending[a] = append(p, ref)
}

func (hs *hostSoA) clearAdmit(a simnet.NodeID, ref model.ObjectRef) {
	p := hs.admitPending[a]
	for i, r := range p {
		if r == ref {
			hs.admitPending[a] = append(p[:i], p[i+1:]...)
			return
		}
	}
}

func (hs *hostSoA) admitPendingFor(a simnet.NodeID, ref model.ObjectRef) bool {
	for _, r := range hs.admitPending[a] {
		if r == ref {
			return true
		}
	}
	return false
}

func (hs *hostSoA) has(a simnet.NodeID, f hostFlag) bool { return hs.flags[a]&f != 0 }
func (hs *hostSoA) set(a simnet.NodeID, f hostFlag)      { hs.flags[a] |= f }
func (hs *hostSoA) clearFlag(a simnet.NodeID, f hostFlag) {
	hs.flags[a] &^= f
}

// overlayLocality resolves the effective locality of a host: the measured
// one, unless a §5.4 change overrode it.
func (hs *hostSoA) overlayLocality(a simnet.NodeID) int {
	if hs.has(a, hfLocOverride) {
		return int(hs.assignedLoc[a])
	}
	return int(hs.loc[a])
}

// stopTimers cancels every periodic behaviour and armed one-shot timer of
// a host (on failure/leave), so a dead host leaves nothing in the event
// queue.
func (hs *hostSoA) stopTimers(a simnet.NodeID) {
	hs.dirTicker[a].Cancel()
	hs.gossipTicker[a].Cancel()
	hs.kaTicker[a].Cancel()
	hs.stabTicker[a].Cancel()
	hs.replTicker[a].Cancel()
	hs.gossipTimeout[a].Cancel()
	hs.kaTimeout[a].Cancel()
	hs.joinTimer[a].Cancel()
}

// packAddrTok encodes (host address, await token) into the uint64 argument
// of an AfterArg-scheduled failure-detection timeout: low 32 bits the
// address, high 32 the token the timeout was armed with.
func packAddrTok(a simnet.NodeID, tok uint32) uint64 {
	return uint64(uint32(a)) | uint64(tok)<<32
}

func unpackAddrTok(arg uint64) (simnet.NodeID, uint32) {
	return simnet.NodeID(uint32(arg)), uint32(arg >> 32)
}

// onGossipTimeout fires when a gossip partner stayed silent past the
// failure-detection deadline: drop the contact (§5.1). A reply or reject
// cancels the armed timer; the token comparison is the second line of
// defence for same-instant races.
func (s *System) onGossipTimeout(arg uint64) {
	addr, tok := unpackAddrTok(arg)
	if s.hs.gossipToken[addr] != tok {
		return
	}
	if h := s.hosts[addr]; h != nil && h.cp != nil {
		h.cp.RemoveContact(s.hs.gossipTarget[addr])
	}
}

// onKaTimeout fires when the directory ignored a keepalive probe: start
// the §5.2 replacement protocol.
func (s *System) onKaTimeout(arg uint64) {
	addr, tok := unpackAddrTok(arg)
	if s.hs.kaToken[addr] != tok {
		return
	}
	if h := s.hosts[addr]; h != nil && h.cp != nil {
		s.onDirectoryUnreachable(h)
	}
}

// Hardened dir-join retry: how many unanswered requests before giving up,
// and the backoff shape. The latch expiry already means ~15 s of silence,
// so retries start around the partition-scale timescale.
const maxJoinAttempts = 6

// onJoinLatchExpired clears the in-flight directory-join latch when the
// request was lost in a broken ring; an answer cancels this timer. Under
// the hardened config the expiry additionally schedules a backed-off
// retry, so a locality whose join request died inside a partition
// re-volunteers after the heal instead of staying directory-less forever.
func (s *System) onJoinLatchExpired(arg uint64) {
	addr := simnet.NodeID(uint32(arg))
	s.hs.clearFlag(addr, hfJoinInFlight)
	if !s.cfg.Hardened {
		return
	}
	h := s.hosts[addr]
	if h == nil || h.cp == nil || h.dir != nil || !s.net.Alive(addr) {
		return
	}
	if h.cp.Dir().Known {
		return // a directory answered through another channel meanwhile
	}
	a := s.hs.joinAttempts[addr]
	if a >= maxJoinAttempts {
		return
	}
	s.hs.joinAttempts[addr] = a + 1
	d := backoffDelay(5*simkernel.Second, int(a), 2*simkernel.Minute)
	d += simkernel.Time(s.prand(addr).Int63n(int64(simkernel.Second)))
	// The latch flag stays cleared while the retry timer is pending: the
	// auditor's invariant is one-directional (latched ⇒ timer armed).
	s.hs.joinTimer[addr].Cancel()
	s.hs.joinTimer[addr] = s.hostKernel(addr).AfterArg(d, s.joinRetryFn, arg)
}

// onJoinRetry re-issues the §5.2 directory-join request after a backoff,
// re-checking every guard — the position may have been filled, the peer
// may have died or joined a directory itself in the meantime.
func (s *System) onJoinRetry(arg uint64) {
	addr := simnet.NodeID(uint32(arg))
	h := s.hosts[addr]
	if h == nil || h.cp == nil || h.dir != nil || !s.net.Alive(addr) {
		return
	}
	if h.cp.Dir().Known || s.hs.has(addr, hfJoinInFlight) {
		return
	}
	s.attemptDirJoin(h, h.cp.Site(), h.cp.Locality())
}
