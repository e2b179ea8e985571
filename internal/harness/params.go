// Package harness assembles full experiments: it builds the topology and
// client pools, wires a Flower-CDN or Squirrel system to the workload
// generator, injects churn when asked, runs the event kernel for the
// configured duration, and packages the metrics into the rows the paper's
// tables and figures report.
package harness

import (
	"fmt"

	"flowercdn/internal/core"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/squirrel"
	"flowercdn/internal/topology"
)

// Params is the experiment-level configuration: Table 1 of the paper plus
// harness knobs (duration, seeds, churn, scaling).
type Params struct {
	Seed     int64
	Duration simkernel.Time

	// Workload (§6.1).
	QueryRate float64 // aggregate queries/second
	ZipfAlpha float64
	Poisson   bool

	// Population.
	Localities      int
	Websites        int
	ActiveSites     int
	ObjectsPerSite  int
	MaxOverlaySize  int
	ClientsPerSite  int       // potential clients per active website (spread over localities)
	LocalityWeights []float64 // nil = topology default skew

	// Topology.
	TopoNodes    int
	UniformNodes int

	// Gossip (Table 2 sweeps).
	TGossip       simkernel.Time
	TKeepalive    simkernel.Time
	ViewSize      int
	GossipLen     int
	PushThreshold float64
	TDead         int

	// Protocol variants.
	QueryPolicy  core.QueryPolicy
	InstanceBits uint // §5.3 scale-up
	// SparseSeeds switches the directory view seed to O(L_gossip) sampling
	// (core.Config.SparseSeeds): constant per-join work instead of a scan
	// and shuffle of the whole overlay membership. Different RNG draws than
	// the dense path, so only the 100k-scale presets turn it on.
	SparseSeeds bool
	// Active replication (§8 extension): top-K popular objects offered to
	// sibling overlays each gossip period. 0 = off (the paper's tables).
	ReplicationTopK int

	// Squirrel baseline.
	SquirrelDirEntries int
	SquirrelHomeStore  bool

	// Churn: expected peer failures per hour (0 = stable network). When
	// positive, Chord maintenance runs at MaintenancePeriod.
	ChurnPerHour      float64
	ChurnIncludesDirs bool
	MaintenancePeriod simkernel.Time
	// ChurnRejoin revives each crashed client after an exponentially
	// distributed downtime with this mean (0 = failures are permanent).
	// Revived clients return stateless, as new clients.
	ChurnMeanDowntime simkernel.Time

	// Metrics resolution.
	BucketWidth simkernel.Time

	// Parallel sets the worker count used when this Params drives a
	// multi-point sweep (Table 2, ablations, scenario grids): 0 or 1 runs
	// points sequentially, n>1 uses n workers, negative uses one worker
	// per CPU. It is an execution knob only — every point owns its kernel,
	// topology and metrics stack, so results are independent of it.
	Parallel int

	// Shards switches a single run onto the locality-sharded event kernel:
	// one private kernel per cell advanced in epoch lockstep, with all
	// cross-cell work applied single-threaded at the barriers. The value is
	// the worker-goroutine count only (clamped to the cell count — the
	// locality count, or the CellSplit total when hot localities are
	// split); the decomposition and every rendezvous are fixed by the
	// scenario, so results are byte-identical for any Shards ≥ 1. 0 keeps
	// the classic single-kernel path.
	Shards int

	// CellSplit spreads hot localities over several cells on the sharded
	// path (core.Config.CellSplit): entry l is the number of cells locality
	// l's hosts partition into, keyed by active-site index so a site's
	// directory and client pool stay co-located. Nil = one cell per
	// locality. A split run is not byte-comparable with the unsplit run of
	// the same scenario, but stays byte-identical across worker counts.
	// Use HotCellSplit to derive a load-balanced split from the pool skew.
	// Incompatible with DirCrashes, partition faults, ShedBudget and
	// StandbyFailover (their per-locality accounting assumes one cell per
	// locality).
	CellSplit []int

	// MeasureMemory computes Result.BytesPerClient after the run (a forced
	// GC plus ReadMemStats). Off by default so timing benchmarks never pay
	// for the collection.
	MeasureMemory bool

	// Faults enables the deterministic fault-injection plane (message loss,
	// latency jitter/spikes, locality-scale partitions; see
	// simnet.FaultConfig). Nil or all-zero disables it — the network send
	// path then costs one nil check and runs byte-identically to a build
	// without the plane. When enabled, the derived core config is Hardened
	// (backed-off retries, dir-join retry, extra stabilization).
	Faults *simnet.FaultConfig

	// AuditEvery runs the core invariant auditor (ring successorship,
	// directory-index ↔ stash consistency, timer plane) at this period,
	// plus once at end of run; 0 disables it. On sharded runs the audit
	// ticks execute at epoch barriers, where the workers are parked.
	AuditEvery simkernel.Time

	// StandbyFailover arms the warm-standby directory extension
	// (core.Config.StandbyFailover): designated standbys with delta-synced
	// replica indexes that promote on directory silence.
	StandbyFailover bool
	// ShedBudget bounds per-locality in-flight new-client queries while the
	// locality's directory position is down (core.Config.ShedBudget);
	// 0 = no shedding.
	ShedBudget int
	// DirCrashes schedules deterministic directory crashes: at each entry's
	// time the current holder of d(active-site SiteIdx, Locality) is
	// crashed and the locality's crash-recovery probe armed. Crashes
	// execute on the coordination kernel in both the classic and the
	// sharded path, so worker count cannot reorder them.
	DirCrashes []DirCrash

	// Adaptive arms the gray-failure response (core.Config.Adaptive):
	// EWMA-driven exchange and lookup deadlines, hedged directory lookups
	// and the per-holder circuit breaker. Implies Hardened.
	Adaptive bool
	// DirDegrades schedules gray degradations of directory positions: at
	// run start each entry is resolved to the node currently holding
	// d(active-site SiteIdx, Locality) and a simnet.DegradeWindow with the
	// given span and factor is appended to the fault plane for that node.
	// Unlike DirCrashes the node stays alive — it answers, slowly.
	DirDegrades []DirDegrade
}

// DirCrash is one scheduled directory crash (see Params.DirCrashes).
type DirCrash struct {
	SiteIdx  int // active-site index
	Locality int
	At       simkernel.Time
}

// DirDegrade is one scheduled gray degradation of a directory position
// (see Params.DirDegrades): the holder of d(SiteIdx, Locality) has its
// outbound latency multiplied by Factor during [Start, End).
type DirDegrade struct {
	SiteIdx  int // active-site index
	Locality int
	Start    simkernel.Time
	End      simkernel.Time
	Factor   float64
}

// DefaultParams returns the paper's full-scale setup (Table 1, §6.1/§6.2):
// 5000-node topology, k=6, |W|=100 with 6 active, S_co=100, 6 queries/s,
// 24 hours, T_gossip=30 min, L_gossip=10, V_gossip=50.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:               seed,
		Duration:           24 * simkernel.Hour,
		QueryRate:          6,
		ZipfAlpha:          0.8,
		Localities:         6,
		Websites:           100,
		ActiveSites:        6,
		ObjectsPerSite:     500,
		MaxOverlaySize:     100,
		ClientsPerSite:     600,
		TopoNodes:          5000,
		UniformNodes:       200,
		TGossip:            30 * simkernel.Minute,
		TKeepalive:         30 * simkernel.Minute,
		ViewSize:           50,
		GossipLen:          10,
		PushThreshold:      0.1,
		TDead:              4,
		QueryPolicy:        core.PolicyViewOnly,
		SquirrelDirEntries: 4,
		MaintenancePeriod:  time30,
		BucketWidth:        30 * simkernel.Minute,
	}
}

const time30 = 30 * simkernel.Second

// ScaledParams returns a laptop-scale configuration with the same shape
// (used by unit tests, quick benchmark runs and examples): 3 localities,
// 12 websites (3 active), smaller overlays, 2 simulated hours.
func ScaledParams(seed int64) Params {
	p := DefaultParams(seed)
	p.Duration = 2 * simkernel.Hour
	p.QueryRate = 4
	p.Localities = 3
	p.Websites = 12
	p.ActiveSites = 3
	p.ObjectsPerSite = 60
	p.MaxOverlaySize = 20
	p.ClientsPerSite = 45
	p.TopoNodes = 800
	p.UniformNodes = 60
	p.TGossip = 5 * simkernel.Minute
	p.TKeepalive = 5 * simkernel.Minute
	p.ViewSize = 12
	p.GossipLen = 4
	p.BucketWidth = 15 * simkernel.Minute
	return p
}

// Massive100kParams returns the 100,000-client stress preset: an order of
// magnitude past the paper's §6 evaluation (5000 nodes), aimed at the
// control-plane scale wall rather than at reproducing a figure. The shape
// trades per-peer state for population: sparse gossip views (V_gossip=8,
// L_gossip=3), lazily rebuilt summaries over a compact object universe,
// S_co sized so whole pools can join, and O(L_gossip) directory view
// seeding (SparseSeeds) so admissions stay constant-work as overlays grow
// to thousands of members. Topology generation and system construction
// are O(population); nothing touches an all-pairs structure.
func Massive100kParams(seed int64) Params {
	p := DefaultParams(seed)
	p.Duration = 2 * simkernel.Hour
	p.QueryRate = 100
	p.Localities = 10
	p.Websites = 20
	p.ActiveSites = 10
	p.ObjectsPerSite = 100
	p.MaxOverlaySize = 2100 // above the largest per-(site,loc) pool: all may join
	p.ClientsPerSite = 10000
	p.TopoNodes = 102000
	p.UniformNodes = 500
	p.TGossip = 30 * simkernel.Minute
	p.TKeepalive = 30 * simkernel.Minute
	p.ViewSize = 8 // sparse views: per-peer gossip state stays tiny
	p.GossipLen = 3
	p.BucketWidth = 30 * simkernel.Minute
	p.SparseSeeds = true
	p.Shards = 4 // locality-sharded kernel: the preset exists to stress scale
	return p
}

// ShrunkMassiveParams is the CI-runnable shrunk variant of
// Massive100kParams: the same shape and knobs (sparse views, sparse
// seeding, compact object universe) at 5,000 clients and 30 simulated
// minutes, so the preset's code paths are exercised — and pinned by the
// equivalence fixture — in seconds.
func ShrunkMassiveParams(seed int64) Params {
	p := Massive100kParams(seed)
	p.Shards = 0 // classic kernel: the long-standing fixtures pin this path
	p.Duration = 30 * simkernel.Minute
	p.QueryRate = 30
	p.Localities = 5
	p.Websites = 10
	p.ActiveSites = 5
	p.ClientsPerSite = 1000
	p.MaxOverlaySize = 300
	p.TopoNodes = 5800
	p.UniformNodes = 200
	p.TGossip = 5 * simkernel.Minute
	p.TKeepalive = 5 * simkernel.Minute
	p.BucketWidth = 10 * simkernel.Minute
	return p
}

// BuildPools apportions each active website's potential clients over the
// localities by weight, capping each pool at S_co. This reproduces §6.1:
// "content overlays of a given website evolve at different rhythms and
// sizes", with the non-uniform locality population.
func (p Params) BuildPools() [][]int {
	weights := p.LocalityWeights
	if weights == nil {
		weights = topology.DefaultWeights(p.Localities)
	}
	// Under the §5.3 scale-up, each (website, locality) slot has 2^b
	// directory instances and can absorb that many overlays' worth of
	// clients.
	capacity := p.MaxOverlaySize << p.InstanceBits
	pools := make([][]int, p.ActiveSites)
	for si := range pools {
		pools[si] = make([]int, p.Localities)
		total := 0.0
		for _, w := range weights {
			total += w
		}
		for loc := 0; loc < p.Localities; loc++ {
			n := int(float64(p.ClientsPerSite)*weights[loc]/total + 0.5)
			if n > capacity {
				n = capacity
			}
			if n < 1 {
				n = 1
			}
			pools[si][loc] = n
		}
	}
	return pools
}

// TopologyConfig derives the underlay configuration, guaranteeing each
// locality holds enough nodes for its directories and pools.
func (p Params) TopologyConfig(pools [][]int) topology.Config {
	cfg := topology.DefaultConfig(p.Seed)
	cfg.Localities = p.Localities
	cfg.TotalNodes = p.TopoNodes
	cfg.UniformNodes = p.UniformNodes
	cfg.Weights = p.LocalityWeights
	minCount := make([]int, p.Localities)
	for loc := 0; loc < p.Localities; loc++ {
		need := p.Websites << p.InstanceBits // directories per website (×2^b under §5.3)
		for si := range pools {
			need += pools[si][loc]
		}
		// Slack for landmark-measurement spill between clusters.
		minCount[loc] = need + need/10 + 8
	}
	cfg.MinCount = minCount
	return cfg
}

// CoreConfig derives the Flower-CDN configuration.
func (p Params) CoreConfig(pools [][]int) core.Config {
	cfg := core.DefaultConfig(p.Seed)
	cfg.Localities = p.Localities
	cfg.Websites = p.Websites
	cfg.ActiveSites = p.ActiveSites
	cfg.ObjectsPerSite = p.ObjectsPerSite
	cfg.MaxOverlaySize = p.MaxOverlaySize
	cfg.PoolSizes = pools
	cfg.InstanceBits = p.InstanceBits
	cfg.Gossip.ViewSize = p.ViewSize
	cfg.Gossip.GossipLen = p.GossipLen
	cfg.Gossip.PushThreshold = p.PushThreshold
	cfg.Gossip.SummaryCapacity = p.ObjectsPerSite
	cfg.TGossip = p.TGossip
	cfg.TKeepalive = p.TKeepalive
	cfg.TDead = p.TDead
	cfg.QueryPolicy = p.QueryPolicy
	cfg.SparseSeeds = p.SparseSeeds
	cfg.ReplicationTopK = p.ReplicationTopK
	cfg.StandbyFailover = p.StandbyFailover
	cfg.ShedBudget = p.ShedBudget
	cfg.CellSplit = p.CellSplit
	// A scenario with no churn, no fault plane, no scheduled crashes and no
	// standby machinery can never mutate D-ring membership after
	// construction: declare the ring static so the sharded network may keep
	// routed query hops on their owner cell (core panics on any mutation if
	// this derivation ever drifts).
	cfg.StaticRing = p.ChurnPerHour == 0 && !p.Faults.Enabled() &&
		len(p.DirCrashes) == 0 && len(p.DirDegrades) == 0 && !p.StandbyFailover
	if p.ChurnPerHour > 0 {
		cfg.MaintenancePeriod = p.MaintenancePeriod
	}
	if p.Faults.Enabled() {
		// A lossy/partitioned transport needs the degraded-network protocol
		// behaviours, and ring maintenance so the hardened stabilization
		// retry has a vehicle.
		cfg.Hardened = true
		cfg.MaintenancePeriod = p.MaintenancePeriod
	}
	cfg.Adaptive = p.Adaptive
	return cfg
}

// SquirrelConfig derives the baseline configuration. The baseline gets the
// same client pools plus the same per-locality "infrastructure" budget
// Flower-CDN spends on directory peers, so both systems have comparable
// populations.
func (p Params) SquirrelConfig(pools [][]int) squirrel.Config {
	cfg := squirrel.DefaultConfig(p.Seed)
	cfg.Sites = model.MakeSites(p.Websites)[:p.ActiveSites]
	cfg.ObjectsPerSite = p.ObjectsPerSite
	cfg.PoolSizes = pools
	cfg.ExtraPerLocality = p.Websites
	cfg.MaxDirEntries = p.SquirrelDirEntries
	if p.SquirrelHomeStore {
		cfg.Strategy = squirrel.StrategyHomeStore
	}
	return cfg
}

// Validate sanity-checks the harness parameters.
func (p Params) Validate() error {
	if p.Duration <= 0 {
		return fmt.Errorf("harness: duration must be positive")
	}
	if p.QueryRate <= 0 {
		return fmt.Errorf("harness: query rate must be positive")
	}
	if p.ActiveSites > p.Websites {
		return fmt.Errorf("harness: active sites exceed websites")
	}
	if p.ClientsPerSite <= 0 {
		return fmt.Errorf("harness: clients per site must be positive")
	}
	for i, dc := range p.DirCrashes {
		if !p.validDirPosition(dc.SiteIdx, dc.Locality) {
			return fmt.Errorf("harness: DirCrashes[%d] names site %d, locality %d outside %d active sites × %d localities",
				i, dc.SiteIdx, dc.Locality, p.ActiveSites, p.Localities)
		}
	}
	for i, dd := range p.DirDegrades {
		if !p.validDirPosition(dd.SiteIdx, dd.Locality) {
			return fmt.Errorf("harness: DirDegrades[%d] names site %d, locality %d outside %d active sites × %d localities",
				i, dd.SiteIdx, dd.Locality, p.ActiveSites, p.Localities)
		}
	}
	if len(p.CellSplit) > 0 {
		if p.Shards <= 0 {
			return fmt.Errorf("harness: CellSplit requires the sharded path (Shards >= 1)")
		}
		// The per-locality recovery probes (partition heal, directory
		// crash) are written from "the locality's cell" during parallel
		// phases; under a split several cells share a locality and would
		// race on the slot.
		if len(p.DirCrashes) > 0 {
			return fmt.Errorf("harness: CellSplit is incompatible with DirCrashes")
		}
		if p.Faults.Enabled() && len(p.Faults.Partitions) > 0 {
			return fmt.Errorf("harness: CellSplit is incompatible with partition faults")
		}
	}
	return nil
}

// validDirPosition reports whether (active-site index, locality) names a
// directory position of the scenario.
func (p Params) validDirPosition(siteIdx, loc int) bool {
	return siteIdx >= 0 && siteIdx < p.ActiveSites && loc >= 0 && loc < p.Localities
}

// HotCellSplit derives a load-balanced Params.CellSplit: it grows the
// split factor of whichever locality has the most potential clients per
// cell until totalCells cells exist (ties break toward the lowest
// locality index, so the result is deterministic). totalCells at or below
// the locality count returns nil — no split. Use it to let Shards exceed
// the locality count when the pool skew leaves workers idle behind one
// hot cell.
func HotCellSplit(p Params, totalCells int) []int {
	if totalCells <= p.Localities {
		return nil
	}
	pools := p.BuildPools()
	clients := make([]int, p.Localities)
	for si := range pools {
		for loc, n := range pools[si] {
			clients[loc] += n
		}
	}
	split := make([]int, p.Localities)
	for loc := range split {
		split[loc] = 1
	}
	for cells := p.Localities; cells < totalCells; cells++ {
		best := 0
		for loc := 1; loc < p.Localities; loc++ {
			if float64(clients[loc])/float64(split[loc]) >
				float64(clients[best])/float64(split[best]) {
				best = loc
			}
		}
		split[best]++
	}
	return split
}
