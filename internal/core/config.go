// Package core assembles the complete Flower-CDN system (the paper's
// primary contribution): the D-ring directory overlay (internal/dring),
// the gossip-managed content overlays (internal/overlay), the query
// processing paths of §3.4/§4.1, and the dynamicity handling of §5
// (redirection failures, directory failure and replacement, voluntary
// directory leaves, locality changes).
//
// The package owns all wire messages and the per-node message dispatcher;
// the protocol state machines live in internal/dring and internal/overlay
// so they stay unit-testable in isolation.
package core

import (
	"fmt"

	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
)

// QueryPolicy selects how a content peer resolves a query for an object it
// does not hold (§4.1; see DESIGN.md "Query policy interpretation").
type QueryPolicy uint8

const (
	// PolicyViewOnly searches the summaries of the peer's partial view and
	// falls back to the origin server — the paper's behaviour (Table 2c's
	// hit-ratio sensitivity to V_gossip only arises under this policy).
	PolicyViewOnly QueryPolicy = iota
	// PolicyViewThenDirectory additionally consults the directory peer
	// (complete overlay view) before giving up — an ablation.
	PolicyViewThenDirectory
)

// String names the policy.
func (p QueryPolicy) String() string {
	if p == PolicyViewThenDirectory {
		return "view-then-directory"
	}
	return "view-only"
}

// Config collects every Flower-CDN parameter (Table 1 plus protocol
// details the paper fixes in prose).
type Config struct {
	Seed int64

	Localities     int            // k
	Websites       int            // |W|
	ActiveSites    int            // websites receiving queries (6 in §6.1)
	ObjectsPerSite int            // nb-ob
	MaxOverlaySize int            // S_co
	PoolSizes      [][]int        // [activeSiteIdx][locality] potential clients
	Sites          []model.SiteID // all |W| sites; first ActiveSites are the active ones

	DRingBits    uint // m (identifier width)
	InstanceBits uint // b, §5.3 scale-up (0 = basic scheme)

	Gossip     overlay.Config // V_gossip, L_gossip, push threshold, summary sizing
	TGossip    simkernel.Time // gossip period
	TKeepalive simkernel.Time // keepalive period (defaults to TGossip)
	TDead      int            // age limit in periods before an entry is dead

	DirSummaryThreshold float64 // §4.2.1 delayed summary propagation

	QueryPolicy       QueryPolicy
	RetryLimit        int            // candidate peers tried per query before fallback
	ObjectBytes       int            // modelled transfer payload (0 = not modelled, as in the paper)
	MaintenancePeriod simkernel.Time // chord stabilization period (0 = off; enabled under churn)

	// Hardened enables the degraded-network protocol behaviours that only
	// matter when the transport can lose or delay messages: exponential
	// backoff with jittered deadlines on query retries, dir-join retry
	// after latch expiry, and an extra stabilization round when a D-ring
	// successor is down. Off by default so the clean-network scenarios (and
	// their pinned goldens) are bit-for-bit unchanged; the harness turns it
	// on whenever fault injection is configured.
	Hardened bool

	// Adaptive layers the gray-failure response on top of Hardened (it
	// implies Hardened; Validate enforces this): per-host EWMA RTT +
	// variance estimators feed adaptive lookup/keepalive/probe deadlines
	// in place of the fixed forms, D-ring lookups hedge a second entry
	// point when the adaptive tail deadline passes, and holders that
	// repeatedly time out are demoted by a circuit breaker (adaptive.go).
	// Off by default: Hardened-only runs stay byte-identical, pinned by
	// TestAdaptiveDisabledIdentical and the golden fault sections.
	Adaptive bool

	// SparseSeeds samples the §4.2 directory view seed with O(L_gossip)
	// random draws against the directory's member list instead of
	// materialising and shuffling the whole index membership (O(S_co) per
	// admitted client). At 10^5-peer populations the dense path is a
	// per-join scan of thousand-member overlays; the sparse path is
	// constant work. The two draw different RNG sequences, so the knob is
	// off by default (the paper-scale presets and the pinned equivalence
	// scenarios use the dense path) and enabled by the 100k-scale presets.
	SparseSeeds bool

	// Active replication (§8 future work, implemented as an extension):
	// every ReplicationPeriod, each directory offers its ReplicationTopK
	// most-requested objects to same-website neighbour directories, which
	// prefetch the ones their overlay lacks. 0 disables the extension.
	ReplicationTopK   int
	ReplicationPeriod simkernel.Time // defaults to TGossip when TopK > 0

	// StandbyFailover arms the warm-standby directory extension: every
	// directory designates the §5.2-ranked best content peer of its overlay
	// as a standby, keeps the standby's replica index fresh with
	// dirty-shard deltas (dring delta seam), and on directory silence the
	// standby promotes with its replica instead of a fresh peer rebuilding
	// an empty index. Off by default: the disabled path costs one flag
	// check and the clean-network goldens stay byte-identical.
	StandbyFailover bool
	// StandbyProbe is the standby→primary liveness probe period. Defaults
	// to TKeepalive/64 (clamped to >= 1s): detection must beat the cold
	// path's keepalive-offset race or warm failover buys nothing.
	StandbyProbe simkernel.Time
	// StandbySyncEvery is the designation/anti-entropy maintenance period
	// on each directory. Defaults to TKeepalive/8.
	StandbySyncEvery simkernel.Time
	// StandbySyncShards bounds dirty shards shipped per anti-entropy round
	// (per-round sync traffic bound). Defaults to 16.
	StandbySyncShards int
	// ShedBudget bounds per-locality in-flight new-client queries while the
	// locality's directory position is down: beyond the budget, queries
	// short-circuit to the origin fallback instead of queueing into the
	// lookup-retry chain. 0 disables shedding.
	ShedBudget int

	// StaticRing declares that nothing in the run mutates the D-ring after
	// construction (no churn, no fault plane, no directory crashes, no
	// standby failover). On sharded runs this lets the delivery-venue
	// classifier predict Algorithm 2 forward hops from ring state during
	// parallel phases and keep them on the query owner's cell; the ring
	// mutators panic if a run breaks the declaration. The harness derives
	// it from the scenario parameters.
	StaticRing bool

	// CellSplit splits hot localities across several sharded-kernel cells:
	// entry i is the number of cells locality i's hosts spread over (>= 1;
	// nil/empty means one cell per locality). Splitting only affects how
	// parallel work partitions — latency, fault decisions and protocol
	// behaviour stay locality-keyed — but it changes which RNG stream a
	// host draws from, so split and unsplit runs are not byte-comparable
	// (any worker count within one split IS). Incompatible with the
	// features whose per-locality state is phase-written by the locality's
	// cell (ShedBudget, StandbyFailover): several subcells would share a
	// slot.
	CellSplit []int
}

// DefaultConfig returns the paper's simulation parameters (Table 1 with
// the §6.2 chosen gossip operating point).
func DefaultConfig(seed int64) Config {
	g := overlay.DefaultConfig()
	return Config{
		Seed:                seed,
		Localities:          6,
		Websites:            100,
		ActiveSites:         6,
		ObjectsPerSite:      500,
		MaxOverlaySize:      100,
		DRingBits:           30,
		InstanceBits:        0,
		Gossip:              g,
		TGossip:             30 * simkernel.Minute,
		TKeepalive:          0, // = TGossip
		TDead:               4,
		DirSummaryThreshold: 0.1,
		QueryPolicy:         PolicyViewOnly,
		RetryLimit:          3,
		ObjectBytes:         0,
	}
}

// Validate checks internal consistency and fills derived defaults.
func (c *Config) Validate() error {
	if c.Localities <= 0 || c.Websites <= 0 || c.ActiveSites <= 0 {
		return fmt.Errorf("core: localities, websites and active sites must be positive")
	}
	if c.ActiveSites > c.Websites {
		return fmt.Errorf("core: %d active sites exceed %d websites", c.ActiveSites, c.Websites)
	}
	if c.ObjectsPerSite <= 0 {
		return fmt.Errorf("core: objects per site must be positive")
	}
	if c.MaxOverlaySize <= 0 {
		return fmt.Errorf("core: max overlay size must be positive")
	}
	if c.TGossip <= 0 {
		return fmt.Errorf("core: gossip period must be positive")
	}
	if c.TKeepalive <= 0 {
		c.TKeepalive = c.TGossip
	}
	if c.Adaptive {
		// The adaptive gray-failure response presupposes the hardened
		// degraded-network behaviours (backed-off retries, delivery guards).
		c.Hardened = true
	}
	if c.TDead <= 0 {
		c.TDead = 4
	}
	if c.RetryLimit <= 0 {
		c.RetryLimit = 3
	}
	if len(c.Sites) == 0 {
		c.Sites = model.MakeSites(c.Websites)
	}
	if len(c.Sites) != c.Websites {
		return fmt.Errorf("core: %d site names for %d websites", len(c.Sites), c.Websites)
	}
	if c.Gossip.SummaryCapacity == 0 {
		c.Gossip.SummaryCapacity = c.ObjectsPerSite
	}
	if c.Gossip.ViewSize <= 0 || c.Gossip.GossipLen <= 0 {
		return fmt.Errorf("core: gossip view size and length must be positive")
	}
	if c.DirSummaryThreshold <= 0 {
		c.DirSummaryThreshold = 0.1
	}
	if c.ReplicationTopK > 0 && c.ReplicationPeriod <= 0 {
		c.ReplicationPeriod = c.TGossip
	}
	if c.StandbyProbe <= 0 {
		c.StandbyProbe = c.TKeepalive / 64
	}
	if c.StandbyProbe < simkernel.Second {
		c.StandbyProbe = simkernel.Second
	}
	if c.StandbySyncEvery <= 0 {
		c.StandbySyncEvery = c.TKeepalive / 8
	}
	if c.StandbySyncEvery < simkernel.Second {
		c.StandbySyncEvery = simkernel.Second
	}
	if c.StandbySyncShards <= 0 {
		c.StandbySyncShards = 16
	}
	if len(c.PoolSizes) == 0 {
		return fmt.Errorf("core: pool sizes not set (use harness.BuildPools)")
	}
	if len(c.PoolSizes) != c.ActiveSites {
		return fmt.Errorf("core: %d pool rows for %d active sites", len(c.PoolSizes), c.ActiveSites)
	}
	for i, row := range c.PoolSizes {
		if len(row) != c.Localities {
			return fmt.Errorf("core: pool row %d has %d localities, want %d", i, len(row), c.Localities)
		}
		for _, p := range row {
			// Pools may exceed S_co: clients beyond capacity are served but
			// never admitted (§6.1: "no new clients may join the overlay").
			if p < 0 {
				return fmt.Errorf("core: negative pool size %d", p)
			}
		}
	}
	if len(c.CellSplit) > 0 {
		if len(c.CellSplit) != c.Localities {
			return fmt.Errorf("core: %d cell-split factors for %d localities", len(c.CellSplit), c.Localities)
		}
		for loc, f := range c.CellSplit {
			if f < 1 {
				return fmt.Errorf("core: cell-split factor %d for locality %d (must be >= 1)", f, loc)
			}
		}
		if c.ShedBudget > 0 {
			return fmt.Errorf("core: cell splitting is incompatible with shedding (per-locality budget slots would be phase-written by several cells)")
		}
		if c.StandbyFailover {
			return fmt.Errorf("core: cell splitting is incompatible with standby failover (per-locality recovery slots would be phase-written by several cells)")
		}
	}
	return nil
}

// TotalCells returns the number of sharded-kernel cells the configuration
// asks for: the locality count, enlarged by any CellSplit factors.
func (c *Config) TotalCells() int {
	if len(c.CellSplit) == 0 {
		return c.Localities
	}
	n := 0
	for _, f := range c.CellSplit {
		n += f
	}
	return n
}

// ActiveSiteIDs returns the sites that receive queries.
func (c *Config) ActiveSiteIDs() []model.SiteID { return c.Sites[:c.ActiveSites] }

// Deps bundles the externally constructed substrates a System runs on.
type Deps struct {
	Kernel  *simkernel.Kernel
	Topo    *topology.Topology
	Metrics *metrics.Collector
	// Tracer receives structured protocol events when non-nil (see
	// internal/trace); nil disables tracing at zero cost.
	Tracer trace.Tracer
	// Interner is the shared dense object space. Optional: when nil the
	// system builds its own over cfg.Sites × cfg.ObjectsPerSite. Supply it
	// to share one instance (and its precomputed hash tables) with the
	// workload generator and across campaign points.
	Interner *model.Interner

	// Cells enables the locality-sharded kernel: one kernel per cell,
	// driven by simkernel.Engine between epoch barriers, with Kernel as
	// the serial coordination kernel. Must have exactly cfg.TotalCells()
	// entries — one per locality, or more when cfg.CellSplit spreads hot
	// localities over several cells. Nil selects the classic run, which
	// New builds as the one-cell case: Kernel is its only cell, Metrics its
	// collector and Tracer (when set) its tracer.
	Cells []*simkernel.Kernel
	// CellMetrics holds one collector per cell (required with Cells;
	// Metrics is ignored then). Each parallel phase writes only its own
	// cell's collector; the harness merges them after the run.
	CellMetrics []*metrics.Collector
	// CellTracers optionally holds one tracer per cell (with Cells). Nil
	// disables tracing; entries may not be nil when the slice is set.
	CellTracers []trace.Tracer
}
