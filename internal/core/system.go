package core

import (
	"fmt"
	"math/rand"

	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/gossip"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// Stats are system-level protocol counters (not paper metrics; used by
// tests, examples and the CLI's diagnostics section).
type Stats struct {
	Joins           int // clients that became content peers
	DirReplacements int // successful §5.2 replacements
	DirBootstraps   int // directories re-created for orphaned localities
	GossipRejects   int // gossip to peers that left the overlay (§5.4)
	QueriesRetried  int // new-client queries re-submitted after entry loss
	Prefetches      int // objects replicated proactively (§8 extension)

	// Warm-standby failover counters (zero unless Config.StandbyFailover).
	StandbyAssigns     int // full-snapshot standby designations
	StandbyDeltas      int // dirty-shard delta messages shipped
	StandbyPromotions  int // standbys that took over a dead position
	StandbyStaleShards int // dirty shards unsynced at promotion (staleness)
}

// System is one running Flower-CDN instance over a simulated network.
type System struct {
	cfg  Config
	k    *simkernel.Kernel
	net  *simnet.Network
	topo *topology.Topology

	// in is the dense object interner shared by every layer touching
	// content identity (overlay bitsets, directory indexes, Bloom probes).
	in *model.Interner

	ks   dring.KeySpec
	ring *chord.Ring

	hosts []*host // indexed by simnet.NodeID; nil = not part of the system
	// hs is the per-host hot control-plane state, struct-of-arrays indexed
	// by simnet.NodeID (see hoststate.go): the dispatch loop and the
	// keepalive/gossip scans walk these flat slices instead of chasing
	// per-host pointers.
	hs        hostSoA
	dirAddrs  []simnet.NodeID
	dirByKey  map[chord.ID]simnet.NodeID
	widBySite map[model.SiteID]uint64

	servers map[model.SiteID]simnet.NodeID
	pools   [][][]simnet.NodeID // [activeSiteIdx][loc][member]

	// Cell state: one kernel, RNG and collector — and optionally one
	// tracer — per cell. A classic run is the one-cell case, whose cell is
	// s.k itself. On a sharded run (Deps.Cells) the cells' clocks advance
	// in lock-step epochs under simkernel.Engine; all cross-cell work
	// executes on s.k (the coordination kernel) at epoch barriers.
	// cellTracers is nil when tracing is off.
	cells       []*simkernel.Kernel
	cellRng     []*rand.Rand
	cellMets    []*metrics.Collector
	cellTracers []trace.Tracer

	// splitBase[loc] is the first cell index of locality loc under hot-cell
	// splitting (nil unless Config.CellSplit is set on a sharded run); see
	// cellsplit.go.
	splitBase []int

	// mpools recycles gossip envelopes and the view-subset slices
	// travelling inside them, one pool per cell so parallel phases never
	// share a free list. Envelopes lost to dead receivers simply never come
	// back — a pool refills on the next allocation.
	mpools []msgPool

	// Long-lived bound callbacks for the AfterArg-scheduled
	// failure-detection timeouts (see hoststate.go): bound once here so
	// arming a timeout never builds a closure.
	gossipTimeoutFn func(uint64)
	kaTimeoutFn     func(uint64)
	joinLatchFn     func(uint64)
	joinRetryFn     func(uint64)

	// The same for the periodic behaviours, armed with EveryArg and the
	// host address as argument: one function value per System instead of
	// a closure per host and behaviour.
	gossipTickFn, kaTickFn, dirTickFn, replTickFn, stabTickFn func(uint64)
	standbyMaintFn, standbyProbeFn                            func(uint64)

	// Partition-recovery accounting (nil unless InstallFaults saw partition
	// windows): healAt[loc] is when locality loc's last partition window
	// ends (-1 = never partitioned), recovery[loc] the smallest observed
	// heal→first-directory-hit delay (-1 = not yet recovered). Each cell
	// only writes its own locality's slot, so parallel phases never race.
	healAt   []simkernel.Time
	recovery []simkernel.Time

	// Directory-crash recovery accounting (nil until CrashDirectory runs):
	// crashAt[loc] is when locality loc's directory was crashed, crashRec
	// the smallest crash→first-LOCAL-directory-mediated-hit delay. Unlike
	// the partition probe this one requires handlerIsLocal — a remote
	// same-site directory mediating a misrouted query proves nothing about
	// the crashed locality's own directory plane. Same per-cell write
	// discipline as recovery above.
	crashAt  []simkernel.Time
	crashRec []simkernel.Time

	// shedInFlight gauges per-locality in-flight new-client queries that
	// entered the lookup path while the locality's own directory position
	// was down (nil unless Config.ShedBudget > 0). Written only from the
	// owning locality's cell.
	shedInFlight []int32

	stats []Stats // per cell
}

// msgPool is one cell's recycled gossip machinery.
type msgPool struct {
	gossip []*gossipMsg
	subset [][]gossip.Entry
}

// newGossipMsg takes an envelope from a cell's pool (or allocates one)
// and fills it.
func (s *System) newGossipMsg(cell int, site model.SiteID, loc int, m overlay.GossipMsg) *gossipMsg {
	p := &s.mpools[cell]
	var g *gossipMsg
	if n := len(p.gossip); n > 0 {
		g = p.gossip[n-1]
		p.gossip = p.gossip[:n-1]
	} else {
		g = new(gossipMsg)
	}
	g.Site, g.Loc, g.M = site, loc, m
	return g
}

// putGossipMsg returns a fully-handled envelope — and the view-subset
// buffer travelling inside it — to their cell's pools. The handler must
// not retain any reference to the envelope or its M field afterwards.
func (s *System) putGossipMsg(cell int, g *gossipMsg) {
	p := &s.mpools[cell]
	if sub := g.M.ViewSubset; cap(sub) > 0 {
		for i := range sub {
			sub[i] = gossip.Entry{} // do not pin summaries while pooled
		}
		p.subset = append(p.subset, sub[:0])
	}
	*g = gossipMsg{} // release the view-subset slice and summary pointers
	p.gossip = append(p.gossip, g)
}

// takeSubsetBuf takes an empty view-subset buffer from a cell's pool (nil
// when the pool is dry: the subset builder then allocates one that will
// join the pool once its exchange completes).
func (s *System) takeSubsetBuf(cell int) []gossip.Entry {
	p := &s.mpools[cell]
	if n := len(p.subset); n > 0 {
		b := p.subset[n-1]
		p.subset = p.subset[:n-1]
		return b
	}
	return nil
}

// --- Execution-context helpers ---------------------------------------------
//
// Every helper takes the address of the host whose state is involved and
// resolves to that host's cell. The non-foreign delivery invariant (see
// payloadForeign and simnet's venue rules) guarantees that during a
// parallel phase the executing kernel IS the addressed host's cell, so
// these helpers never read another running kernel's state.

// cellIdx returns the cell a node's state lives in.
func (s *System) cellIdx(addr simnet.NodeID) int { return s.net.CellOf(addr) }

// prand is the RNG for draws involving a host's state: the host's cell
// RNG. Venue staticness makes each stream's draw order independent of
// worker count.
func (s *System) prand(addr simnet.NodeID) *rand.Rand { return s.cellRng[s.cellIdx(addr)] }

// metsAt is the collector accounting a host's events.
func (s *System) metsAt(addr simnet.NodeID) *metrics.Collector {
	return s.cellMets[s.cellIdx(addr)]
}

// statsAt is the protocol-counter bank for a host's cell.
func (s *System) statsAt(addr simnet.NodeID) *Stats {
	return &s.stats[s.cellIdx(addr)]
}

// nowAt is the current simulated time in the execution context that owns
// addr: the owning cell's clock during parallel phases, the coordination
// kernel's clock during barriers (which is all of a one-cell run).
func (s *System) nowAt(addr simnet.NodeID) simkernel.Time {
	if s.net.InBarrier() {
		return s.k.Now()
	}
	return s.cells[s.cellIdx(addr)].Now()
}

// hostKernel is the kernel a host's private timers (tickers, failure
// timeouts) live on: the host's cell kernel.
func (s *System) hostKernel(addr simnet.NodeID) *simkernel.Kernel {
	return s.cells[s.cellIdx(addr)]
}

// execKernel is the kernel of the executing context for work on behalf of
// addr's cell: that cell's kernel during parallel phases, the
// coordination kernel in barrier context.
func (s *System) execKernel(addr simnet.NodeID) *simkernel.Kernel {
	if s.net.InBarrier() {
		return s.k
	}
	return s.hostKernel(addr)
}

// tracing reports whether tracers are installed (guard for the
// formatting wrappers in tracefmt.go, which pay fmt.Sprintf when true).
func (s *System) tracing() bool { return s.cellTracers != nil }

// settle invalidates a query's pending retry/redirect timeout. Cancelling
// mutates the owning kernel's slot arena, so a parallel phase may only
// cancel a timer owned by the executing cell's kernel; a timer armed
// elsewhere (on the coordination kernel, by a barrier-context handler) is
// abandoned instead — the token bump makes it fire as a no-op, which is
// deterministic because the venue of every delivery is static.
func (s *System) settle(q *Query) {
	q.token++
	if !s.net.InBarrier() && !q.pending.OwnedBy(s.hostKernel(q.Origin)) {
		q.pending = simkernel.TimerHandle{}
		return
	}
	q.pending.Cancel()
	q.pending = simkernel.TimerHandle{}
}

// trace emits a protocol event when tracing is enabled. node must be the
// host whose execution context the caller runs in (or a host of the same
// cell): sharded runs route the event to that cell's tracer.
func (s *System) trace(kind trace.Kind, qid uint64, node, peer simnet.NodeID, detail string) {
	s.traceAt(node, kind, qid, node, peer, detail)
}

// traceAt is trace with the execution context named explicitly: ctx must
// be a host of the cell the caller runs in, while node/peer are free to
// point anywhere. Owner-claimed handlers run on the query origin's cell
// but trace events about foreign hosts (a routed hop at a remote
// directory, a serve at the origin server), so they pass the origin as
// ctx — reading a foreign cell's clock or tracer mid-phase would race.
func (s *System) traceAt(ctx simnet.NodeID, kind trace.Kind, qid uint64, node, peer simnet.NodeID, detail string) {
	if s.cellTracers == nil {
		return
	}
	s.cellTracers[s.cellIdx(ctx)].Record(trace.Event{
		At: s.nowAt(ctx), Kind: kind, QueryID: qid, Node: node, Peer: peer, Detail: detail,
	})
}

// New builds and wires a Flower-CDN system. The D-ring starts converged
// with one directory peer per (website, locality), as in §6.1
// ("experiments start with a stable D-ring ... with an empty directory").
func New(cfg Config, deps Deps) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if deps.Kernel == nil || deps.Topo == nil {
		return nil, fmt.Errorf("core: missing dependencies")
	}
	if deps.Topo.Localities() != cfg.Localities {
		return nil, fmt.Errorf("core: topology has %d localities, config %d", deps.Topo.Localities(), cfg.Localities)
	}
	ks, err := dring.NewKeySpec(cfg.DRingBits, cfg.Localities, cfg.InstanceBits)
	if err != nil {
		return nil, err
	}
	var net *simnet.Network
	var splitBase []int
	var cellRng []*rand.Rand
	if deps.Cells == nil {
		// A classic run is the one-cell case: its cell is the coordination
		// kernel and draws from the system streams.
		if deps.Metrics == nil {
			return nil, fmt.Errorf("core: missing dependencies")
		}
		deps.Cells = []*simkernel.Kernel{deps.Kernel}
		deps.CellMetrics = []*metrics.Collector{deps.Metrics}
		if deps.Tracer != nil {
			deps.CellTracers = []trace.Tracer{deps.Tracer}
		}
		net = simnet.New(deps.Kernel, deps.Topo)
		cellRng = []*rand.Rand{deps.Kernel.DeriveRNG("flower-core")}
	} else {
		if len(deps.Cells) != cfg.TotalCells() {
			return nil, fmt.Errorf("core: %d cell kernels for %d cells (%d localities)",
				len(deps.Cells), cfg.TotalCells(), cfg.Localities)
		}
		if len(deps.CellMetrics) != len(deps.Cells) {
			return nil, fmt.Errorf("core: %d cell collectors for %d cells", len(deps.CellMetrics), len(deps.Cells))
		}
		if deps.CellTracers != nil && len(deps.CellTracers) != len(deps.Cells) {
			return nil, fmt.Errorf("core: %d cell tracers for %d cells", len(deps.CellTracers), len(deps.Cells))
		}
		if len(cfg.CellSplit) > 0 {
			// The node→cell map must exist before placement (construction
			// itself accounts per cell), so it replays the placement
			// cursor walk; placeDirectoriesAndPools cross-checks it.
			net = simnet.NewShardedMapped(deps.Kernel, deps.Cells, deps.Topo, splitCellMap(&cfg, ks, deps.Topo))
			splitBase = splitBases(&cfg)
		} else {
			net = simnet.NewSharded(deps.Kernel, deps.Cells, deps.Topo)
		}
		cellRng = make([]*rand.Rand, len(deps.Cells))
		for i := range deps.Cells {
			cellRng[i] = deps.Kernel.DeriveRNG(fmt.Sprintf("flower-core-cell-%d", i))
		}
	}
	in := deps.Interner
	if in == nil {
		in = model.NewInterner(cfg.Sites, cfg.ObjectsPerSite)
	} else {
		if in.ObjectsPerSite() != cfg.ObjectsPerSite {
			return nil, fmt.Errorf("core: interner has %d objects per site, config %d",
				in.ObjectsPerSite(), cfg.ObjectsPerSite)
		}
		for si, site := range cfg.Sites {
			if in.SiteIndex(site) != si {
				return nil, fmt.Errorf("core: interner does not place site %q at index %d", site, si)
			}
		}
	}
	s := &System{
		cfg:         cfg,
		k:           deps.Kernel,
		net:         net,
		topo:        deps.Topo,
		in:          in,
		ks:          ks,
		ring:        chord.NewRing(chord.Config{Bits: cfg.DRingBits, SuccessorList: 8}),
		hosts:       make([]*host, deps.Topo.NumNodes()),
		hs:          newHostSoA(deps.Topo.NumNodes()),
		dirByKey:    make(map[chord.ID]simnet.NodeID),
		widBySite:   make(map[model.SiteID]uint64),
		servers:     make(map[model.SiteID]simnet.NodeID),
		cells:       deps.Cells,
		cellRng:     cellRng,
		cellMets:    deps.CellMetrics,
		cellTracers: deps.CellTracers,
		splitBase:   splitBase,
		stats:       make([]Stats, len(deps.Cells)),
		mpools:      make([]msgPool, len(deps.Cells)),
	}
	sinks := make([]simnet.TrafficSink, len(deps.CellMetrics))
	for i, c := range deps.CellMetrics {
		sinks[i] = c
	}
	s.net.SetCellSinks(sinks)
	s.net.SetForeign(s.payloadForeign)
	s.net.SetGlobalPayload(payloadGlobal)
	s.net.SetOwner(s.payloadOwner)
	s.net.SetVenue(s.payloadVenue)
	s.gossipTimeoutFn = s.onGossipTimeout
	s.kaTimeoutFn = s.onKaTimeout
	s.joinLatchFn = s.onJoinLatchExpired
	s.joinRetryFn = s.onJoinRetry
	s.gossipTickFn = func(a uint64) { s.gossipTick(s.hosts[a]) }
	s.kaTickFn = func(a uint64) { s.keepaliveTick(s.hosts[a]) }
	s.dirTickFn = func(a uint64) { s.dirTick(s.hosts[a]) }
	s.replTickFn = func(a uint64) { s.replicationTick(s.hosts[a]) }
	s.stabTickFn = func(a uint64) { s.maintainNode(s.hosts[a]) }
	s.standbyMaintFn = func(a uint64) { s.standbyMaintTick(s.hosts[a]) }
	s.standbyProbeFn = func(a uint64) { s.standbyProbeTick(s.hosts[a]) }
	if cfg.ShedBudget > 0 {
		s.shedInFlight = make([]int32, cfg.Localities)
	}
	if cfg.Adaptive {
		s.hs.enableAdaptive(deps.Topo.NumNodes())
	}

	if err := s.assignWebsiteIDs(); err != nil {
		return nil, err
	}
	if err := s.placeServers(); err != nil {
		return nil, err
	}
	if err := s.placeDirectoriesAndPools(); err != nil {
		return nil, err
	}
	s.ring.BuildConverged()
	s.startDirectoryTickers()
	if cfg.MaintenancePeriod > 0 {
		s.startMaintenance(cfg.MaintenancePeriod)
	}
	return s, nil
}

// assignWebsiteIDs hashes every site into the website-ID subspace,
// linearly probing past the rare collisions so each website owns a
// distinct consecutive block of directory keys.
func (s *System) assignWebsiteIDs() error {
	used := map[uint64]bool{}
	max := uint64(1)<<s.ks.WebsiteBits() - 1
	if uint64(s.cfg.Websites) > max {
		return fmt.Errorf("core: %d websites exceed website-ID space", s.cfg.Websites)
	}
	for _, site := range s.cfg.Sites {
		wid := s.ks.WebsiteID(site)
		for used[wid] {
			wid = (wid + 1) & max
		}
		used[wid] = true
		s.widBySite[site] = wid
	}
	return nil
}

func (s *System) placeServers() error {
	uniform := s.topo.UniformNodes()
	if len(uniform) < s.cfg.Websites {
		return fmt.Errorf("core: %d uniform nodes cannot host %d origin servers", len(uniform), s.cfg.Websites)
	}
	for i, site := range s.cfg.Sites {
		addr := uniform[i]
		s.servers[site] = addr
		h := &host{sys: s, addr: addr, serverSite: site}
		s.hs.loc[addr] = int32(s.topo.LocalityOf(addr))
		s.hs.set(addr, hfServer)
		s.hosts[addr] = h
		s.net.Register(addr, h)
	}
	return nil
}

func (s *System) placeDirectoriesAndPools() error {
	// Per-locality node cursors, skipping nodes already used as servers.
	cursors := make([][]simnet.NodeID, s.cfg.Localities)
	for loc := 0; loc < s.cfg.Localities; loc++ {
		for _, n := range s.topo.NodesInLocality(loc) {
			if s.hosts[n] == nil {
				cursors[loc] = append(cursors[loc], n)
			}
		}
	}
	next := func(loc int) (simnet.NodeID, error) {
		if len(cursors[loc]) == 0 {
			return 0, fmt.Errorf("core: locality %d exhausted; enlarge topology MinCount", loc)
		}
		n := cursors[loc][0]
		cursors[loc] = cursors[loc][1:]
		return n, nil
	}

	// One directory peer per (website, locality), in every locality.
	active := map[model.SiteID]bool{}
	for _, site := range s.cfg.ActiveSiteIDs() {
		active[site] = true
	}
	// With InstanceBits > 0 (§5.3 scale-up), several directory peers per
	// (website, locality) join D-ring consecutively, each managing its own
	// content overlay.
	for siteIdx, site := range s.cfg.Sites {
		wid := s.widBySite[site]
		for loc := 0; loc < s.cfg.Localities; loc++ {
			for inst := 0; inst < s.ks.Instances(); inst++ {
				addr, err := next(loc)
				if err != nil {
					return err
				}
				if err := s.checkSubcell(addr, loc, siteIdx); err != nil {
					return err
				}
				key := s.ks.KeyForWebsiteID(wid, loc, inst)
				node, err := s.ring.AddNode(key, addr)
				if err != nil {
					return fmt.Errorf("core: directory key collision for %s/%d: %w", site, loc, err)
				}
				h := &host{sys: s, addr: addr, dirNode: node}
				s.hs.loc[addr] = int32(loc)
				h.dir = dring.NewDirectory(site, wid, loc, key,
					s.cfg.MaxOverlaySize, s.cfg.ObjectsPerSite, s.cfg.DirSummaryThreshold, s.in)
				if active[site] {
					// Active-site directories are accounted participants from t=0.
					s.hs.set(addr, hfAccounted)
					s.metsAt(addr).PeerJoined(s.k.Now())
				}
				s.hosts[addr] = h
				s.net.Register(addr, h)
				s.dirAddrs = append(s.dirAddrs, addr)
				s.dirByKey[key] = addr
			}
		}
	}
	// Per-(active site, locality) client pools.
	actives := s.cfg.ActiveSiteIDs()
	s.pools = make([][][]simnet.NodeID, len(actives))
	for si := range actives {
		s.pools[si] = make([][]simnet.NodeID, s.cfg.Localities)
		for loc := 0; loc < s.cfg.Localities; loc++ {
			for m := 0; m < s.cfg.PoolSizes[si][loc]; m++ {
				addr, err := next(loc)
				if err != nil {
					return err
				}
				if err := s.checkSubcell(addr, loc, si); err != nil {
					return err
				}
				h := &host{sys: s, addr: addr}
				s.hs.loc[addr] = int32(loc)
				s.hosts[addr] = h
				s.net.Register(addr, h)
				s.pools[si][loc] = append(s.pools[si][loc], addr)
			}
		}
	}
	return nil
}

func (s *System) startDirectoryTickers() {
	for _, addr := range s.dirAddrs {
		h := s.hosts[addr]
		offset := simkernel.Time(s.prand(addr).Int63n(int64(s.cfg.TGossip)))
		s.hs.dirTicker[addr] = s.hostKernel(addr).EveryArg(offset, s.cfg.TGossip, s.dirTickFn, uint64(addr))
		s.startReplicationTicker(h)
		s.startStandbyTicker(h)
	}
}

// startMaintenance launches Chord stabilization across D-ring members
// (needed only under churn; a static ring stays converged). Stabilization
// mutates the shared ring, so the tickers always live on the coordination
// kernel: sharded runs stabilize at epoch barriers.
func (s *System) startMaintenance(period simkernel.Time) {
	for _, addr := range s.dirAddrs {
		offset := simkernel.Time(s.prand(addr).Int63n(int64(period)))
		s.hs.stabTicker[addr] = s.k.EveryArg(offset, period, s.stabTickFn, uint64(addr))
	}
}

func (s *System) maintainNode(h *host) {
	if h.dirNode == nil || !h.dirNode.Up() || !s.net.Alive(h.addr) {
		return
	}
	h.dirNode.CheckPredecessor()
	h.dirNode.Stabilize()
	for i := 0; i < 3; i++ {
		h.dirNode.FixNextFinger()
	}
	if s.cfg.Hardened && h.dirNode.Successor() == nil {
		// Whole successor list dead (a partition took out a locality's
		// directories at once): run an immediate second repair round so the
		// ring re-converges within one maintenance period after the heal
		// instead of limping one repaired entry at a time.
		h.dirNode.Stabilize()
	}
	// Nominal control traffic for the round (stabilize + notify + finger
	// lookups); not part of the paper's background metric.
	if succ := h.dirNode.Successor(); succ != nil && succ != h.dirNode {
		s.metsAt(h.addr).RecordMessage(s.k.Now(), h.addr, succ.Addr(), simnet.CatMaintenance, 120)
	}
}

// InstallFaults enables the fault-injection plane on the system's network
// and, when the schedule contains partition windows, arms the per-locality
// partition-recovery probes (time from heal to the first successful
// directory-mediated P2P hit). Call before Run; a nil or zero config is a
// no-op.
func (s *System) InstallFaults(fc *simnet.FaultConfig) {
	s.net.InstallFaults(fc)
	if !fc.Enabled() || len(fc.Partitions) == 0 {
		return
	}
	s.healAt = make([]simkernel.Time, s.cfg.Localities)
	s.recovery = make([]simkernel.Time, s.cfg.Localities)
	for loc := 0; loc < s.cfg.Localities; loc++ {
		s.healAt[loc] = fc.HealTime(loc)
		s.recovery[loc] = -1
	}
}

// noteRecovery records a successful directory-mediated P2P hit in loc at
// now, keeping the smallest heal→hit delay. Monotone-min is commutative,
// so the observation order across a cell's queries cannot skew it.
func (s *System) noteRecovery(loc int, now simkernel.Time) {
	if loc < 0 || loc >= len(s.healAt) {
		return
	}
	heal := s.healAt[loc]
	if heal < 0 || now < heal {
		return
	}
	if d := now - heal; s.recovery[loc] < 0 || d < s.recovery[loc] {
		s.recovery[loc] = d
	}
}

// RecoveryTimes returns, per locality, the heal time of its last partition
// window and the observed heal→first-directory-hit delay (-1 where not
// partitioned / not yet recovered). Nil when no partitions were installed.
func (s *System) RecoveryTimes() (healAt, recovery []simkernel.Time) {
	return s.healAt, s.recovery
}

// CrashDirectory crashes the current directory of (site, loc) and arms the
// crash-recovery probe for the locality: the time to the first P2P hit
// mediated by the locality's OWN (replacement or promoted) directory.
// Returns false when the position is already empty. Must run on the
// coordination kernel (the harness schedules crashes there).
func (s *System) CrashDirectory(site model.SiteID, loc int) bool {
	addr, ok := s.DirectoryAddr(site, loc)
	if !ok {
		return false
	}
	if s.crashAt == nil {
		s.crashAt = make([]simkernel.Time, s.cfg.Localities)
		s.crashRec = make([]simkernel.Time, s.cfg.Localities)
		for i := range s.crashAt {
			s.crashAt[i], s.crashRec[i] = -1, -1
		}
	}
	s.crashAt[loc] = s.k.Now()
	s.crashRec[loc] = -1
	s.FailPeer(addr)
	return true
}

// noteDirCrashRecovery records a local-directory-mediated P2P hit in loc,
// keeping the smallest crash→hit delay (monotone-min, like noteRecovery).
func (s *System) noteDirCrashRecovery(loc int, now simkernel.Time) {
	if loc < 0 || loc >= len(s.crashAt) {
		return
	}
	crash := s.crashAt[loc]
	if crash < 0 || now < crash {
		return
	}
	if d := now - crash; s.crashRec[loc] < 0 || d < s.crashRec[loc] {
		s.crashRec[loc] = d
	}
}

// DirCrashRecoveryTimes returns, per locality, when its directory was
// crashed and the observed crash→first-local-directory-hit delay (-1 where
// no crash / not yet recovered). Nil when CrashDirectory never ran.
func (s *System) DirCrashRecoveryTimes() (crashAt, recovery []simkernel.Time) {
	return s.crashAt, s.crashRec
}

// --- Accessors ------------------------------------------------------------

// Kernel returns the driving event kernel.
func (s *System) Kernel() *simkernel.Kernel { return s.k }

// Network returns the simulated network.
func (s *System) Network() *simnet.Network { return s.net }

// Ring returns the D-ring Chord instance.
func (s *System) Ring() *chord.Ring { return s.ring }

// KeySpec returns the D-ring key layout.
func (s *System) KeySpec() dring.KeySpec { return s.ks }

// Config returns the system configuration (value copy).
func (s *System) Config() Config { return s.cfg }

// Stats returns protocol counters, summed across cells on a sharded run.
func (s *System) Stats() Stats {
	tot := s.stats[0]
	for _, st := range s.stats[1:] {
		tot.Joins += st.Joins
		tot.DirReplacements += st.DirReplacements
		tot.DirBootstraps += st.DirBootstraps
		tot.GossipRejects += st.GossipRejects
		tot.QueriesRetried += st.QueriesRetried
		tot.Prefetches += st.Prefetches
		tot.StandbyAssigns += st.StandbyAssigns
		tot.StandbyDeltas += st.StandbyDeltas
		tot.StandbyPromotions += st.StandbyPromotions
		tot.StandbyStaleShards += st.StandbyStaleShards
	}
	return tot
}

// ServerOf returns the origin server node of a site.
func (s *System) ServerOf(site model.SiteID) simnet.NodeID { return s.servers[site] }

// PoolNode maps a workload (siteIdx, locality, member) triple to its node.
func (s *System) PoolNode(siteIdx, loc, member int) simnet.NodeID {
	return s.pools[siteIdx][loc][member]
}

// PoolSize returns the number of potential clients for (siteIdx, loc).
func (s *System) PoolSize(siteIdx, loc int) int { return len(s.pools[siteIdx][loc]) }

// DirectoryAddr returns the current address of d(site,loc), or false if the
// position is empty/dead.
func (s *System) DirectoryAddr(site model.SiteID, loc int) (simnet.NodeID, bool) {
	key := s.ks.KeyForWebsiteID(s.widBySite[site], loc, 0)
	n := s.ring.Lookup(key)
	if n == nil || !n.Up() {
		return 0, false
	}
	return n.Addr(), true
}

// DirectoryIndexSize returns the number of content peers indexed by
// d(site,loc); 0 if the directory is missing.
func (s *System) DirectoryIndexSize(site model.SiteID, loc int) int {
	addr, ok := s.DirectoryAddr(site, loc)
	if !ok {
		return 0
	}
	if h := s.hosts[addr]; h != nil && h.dir != nil {
		return h.dir.Size()
	}
	return 0
}

// OverlaySize counts live joined content peers of (siteIdx, loc).
func (s *System) OverlaySize(siteIdx, loc int) int {
	n := 0
	for _, addr := range s.pools[siteIdx][loc] {
		h := s.hosts[addr]
		if h != nil && h.cp != nil && s.net.Alive(addr) {
			n++
		}
	}
	return n
}

// Joined reports whether the node has become a content peer.
func (s *System) Joined(addr simnet.NodeID) bool {
	h := s.hosts[addr]
	return h != nil && h.cp != nil
}

// JoinedCount counts content peers across all overlays.
func (s *System) JoinedCount() int {
	n := 0
	for si := range s.pools {
		for loc := range s.pools[si] {
			n += s.OverlaySize(si, loc)
		}
	}
	return n
}

// host exposes internals to white-box tests within the package.
func (s *System) host(addr simnet.NodeID) *host { return s.hosts[addr] }

// SubmitWithID injects one workload query into the system at the current
// simulated time under the given identifier. The harness numbers queries
// by their position in the workload stream, so IDs do not depend on how
// queries partition across cells. Queries from dead clients are silently
// skipped.
func (s *System) SubmitWithID(id uint64, wq workload.Query) {
	origin := s.PoolNode(wq.SiteIdx, wq.Locality, wq.Member)
	h := s.hosts[origin]
	if h == nil || !s.net.Alive(origin) {
		return
	}
	if wq.Object.Num < 0 || wq.Object.Num >= s.cfg.ObjectsPerSite {
		return // outside the fixed object universe: nothing can hold it
	}
	s.submitQuery(id, origin, h, wq)
}

func (s *System) submitQuery(id uint64, origin simnet.NodeID, h *host, wq workload.Query) {
	// The workload's active-site index is the interner's site index (the
	// active sites lead cfg.Sites), so interning is pure arithmetic; it is
	// recomputed here rather than trusted from the stream so replayed or
	// hand-built queries can never smuggle a stale ref.
	ref := s.in.RefFor(wq.SiteIdx, wq.Object.Num)
	q := &Query{
		ID:        id,
		Origin:    origin,
		OriginLoc: h.overlayLocality(),
		SiteIdx:   wq.SiteIdx,
		Site:      wq.Site,
		Object:    wq.Object,
		Ref:       ref,
		Start:     s.nowAt(origin),
		NewClient: h.cp == nil,
	}
	if h.cp != nil {
		s.traceQuerySubmitted(q, true)
		s.startContentPeerQuery(h, q)
	} else {
		s.traceQuerySubmitted(q, false)
		s.startNewClientQuery(h, q)
	}
}
