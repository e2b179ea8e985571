// Package metrics collects the four evaluation metrics of the paper (§6):
//
//   - hit ratio: fraction of queries satisfied from the P2P system;
//   - lookup latency: time for a query to reach the node that will provide
//     the object (content peer or origin server);
//   - transfer distance: one-way latency from provider to requester;
//   - background traffic: average bps per participant due to gossip and
//     push exchanges.
//
// The collector keeps both run-level aggregates (Tables 2a–c) and a time
// series of fixed-width buckets (Figures 5–8a), plus the latency and
// distance distributions (Figures 7b and 8b). It also implements
// simnet.TrafficSink so every simulated message is accounted by category.
package metrics

import (
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// Source says who ultimately provided the object for a query.
type Source uint8

// Sources of query results.
const (
	SourceLocal         Source = iota // requester's own store
	SourcePeer                        // a content peer in the requester's locality overlay
	SourceRemoteOverlay               // a content peer found through another locality's directory
	SourceServer                      // the website's origin server (P2P miss)
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceLocal:
		return "local"
	case SourcePeer:
		return "peer"
	case SourceRemoteOverlay:
		return "remote-overlay"
	case SourceServer:
		return "server"
	default:
		return "unknown"
	}
}

// IsHit reports whether the source counts toward the hit ratio (anything
// but the origin server).
func (s Source) IsHit() bool { return s != SourceServer }

// Config sizes the collector.
type Config struct {
	BucketWidth simkernel.Time // time-series resolution (default 30 min)

	// Horizon is the expected simulated duration. When set, the collector
	// preallocates the full time-series bucket range up front, so the
	// per-message accounting path (RecordMessage) never appends in steady
	// state. Events beyond the horizon still work — the bucket slice grows
	// on demand as before. 0 means "unknown" (grow on demand only).
	Horizon simkernel.Time

	LatencyBinMs  float64 // histogram bin width for lookup latency (default 150, per Fig 7b)
	LatencyBins   int     // number of finite bins; one overflow bin is added (default 7 → ">1050ms")
	DistanceBinMs float64 // histogram bin width for transfer distance (default 100, per Fig 8b)
	DistanceBins  int     // finite bins before overflow (default 5 → ">500ms")
}

// DefaultConfig matches the paper's figures.
func DefaultConfig() Config {
	return Config{
		BucketWidth:   30 * simkernel.Minute,
		LatencyBinMs:  150,
		LatencyBins:   7,
		DistanceBinMs: 100,
		DistanceBins:  5,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BucketWidth <= 0 {
		c.BucketWidth = d.BucketWidth
	}
	if c.LatencyBinMs <= 0 {
		c.LatencyBinMs = d.LatencyBinMs
	}
	if c.LatencyBins <= 0 {
		c.LatencyBins = d.LatencyBins
	}
	if c.DistanceBinMs <= 0 {
		c.DistanceBinMs = d.DistanceBinMs
	}
	if c.DistanceBins <= 0 {
		c.DistanceBins = d.DistanceBins
	}
	return c
}

type bucket struct {
	queries    int64
	hits       int64
	lookupSum  float64
	distSum    float64
	distCount  int64 // queries with a meaningful transfer distance
	background int64 // gossip+push bytes
	peerMs     int64 // integrated peer-milliseconds within the bucket
}

// Collector accumulates metrics for one simulation run. Not safe for
// concurrent use; the simulation is single-threaded by design.
type Collector struct {
	cfg Config

	totalQueries   int64
	hits           int64
	bySource       [4]int64
	lookupBySource [4]float64
	lookupSum      float64
	distSum        float64
	distCount      int64
	p2pLookupSum   float64
	p2pDistSum     float64
	p2pDistCount   int64

	latencyHist  []int64 // LatencyBins + 1 (overflow)
	distanceHist []int64 // DistanceBins + 1

	// Raw samples for exact percentiles (a 24-hour paper-scale run holds
	// ~500k samples ≈ 4 MB per series — cheap for a simulator).
	lookupSamples []float64
	distSamples   []float64

	trafficBytes [simnet.NumCategories]int64
	trafficMsgs  [simnet.NumCategories]int64

	buckets []bucket

	// peer-time integration
	curPeers    int
	lastChange  simkernel.Time
	peerMsTotal int64

	// diagnostics
	redirectFailures int64
	routeTTLExpiry   int64

	// Fallback-chain accounting (holder → directory → origin): how many
	// times queries re-armed a retry, fell back from the view/holder tier
	// to a directory lookup, and degraded all the way to the origin server.
	retries         int64
	dirFallbacks    int64
	originFallbacks int64
	// shedQueries counts new-client queries short-circuited to the origin
	// tier by the takeover shed budget (Config.ShedBudget).
	shedQueries int64
	// Adaptive gray-failure accounting (Config.Adaptive): hedged lookups
	// sent, hedges that reached a directory before the primary, and holder
	// circuit breakers tripped open.
	hedges       int64
	hedgeWins    int64
	breakerTrips int64
}

// New creates a collector.
func New(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:          cfg,
		latencyHist:  make([]int64, cfg.LatencyBins+1),
		distanceHist: make([]int64, cfg.DistanceBins+1),
	}
	if cfg.Horizon > 0 {
		// One bucket per width across the horizon, plus one for events
		// landing exactly at the horizon boundary.
		c.buckets = make([]bucket, int(cfg.Horizon/cfg.BucketWidth)+1)
	}
	return c
}

func (c *Collector) bucketAt(at simkernel.Time) *bucket {
	i := int(at / c.cfg.BucketWidth)
	if i < len(c.buckets) { // preallocated (or already grown) — append-free
		return &c.buckets[i]
	}
	for len(c.buckets) <= i {
		c.buckets = append(c.buckets, bucket{})
	}
	return &c.buckets[i]
}

// advancePeerTime integrates curPeers over [lastChange, now) into the
// affected buckets.
func (c *Collector) advancePeerTime(now simkernel.Time) {
	if now <= c.lastChange {
		return
	}
	t := c.lastChange
	for t < now {
		end := (t/c.cfg.BucketWidth + 1) * c.cfg.BucketWidth
		if end > now {
			end = now
		}
		span := int64(end - t)
		c.bucketAt(t).peerMs += span * int64(c.curPeers)
		c.peerMsTotal += span * int64(c.curPeers)
		t = end
	}
	c.lastChange = now
}

// PeerJoined registers one more accounted participant from time at.
func (c *Collector) PeerJoined(at simkernel.Time) {
	c.advancePeerTime(at)
	c.curPeers++
}

// PeerLeft removes a participant from time at.
func (c *Collector) PeerLeft(at simkernel.Time) {
	c.advancePeerTime(at)
	if c.curPeers > 0 {
		c.curPeers--
	}
}

// Peers returns the current accounted participant count.
func (c *Collector) Peers() int { return c.curPeers }

// RecordMessage implements simnet.TrafficSink.
func (c *Collector) RecordMessage(at simkernel.Time, from, to simnet.NodeID, cat simnet.Category, bytes int) {
	c.trafficBytes[cat] += int64(bytes)
	c.trafficMsgs[cat]++
	if cat == simnet.CatGossip || cat == simnet.CatPush {
		// Sender and receiver both experience the bytes (§6's per-peer
		// traffic), so background volume counts each message twice.
		c.bucketAt(at).background += 2 * int64(bytes)
	}
}

// RecordQuery records a resolved query. distMs < 0 means "no transfer
// distance" (should not normally happen; local hits record 0).
func (c *Collector) RecordQuery(at simkernel.Time, src Source, lookupMs, distMs float64) {
	c.totalQueries++
	c.bySource[src]++
	hit := src.IsHit()
	if hit {
		c.hits++
	}
	c.lookupSum += lookupMs
	c.lookupBySource[src] += lookupMs
	c.lookupSamples = append(c.lookupSamples, lookupMs)
	bin := int(lookupMs / c.cfg.LatencyBinMs)
	if bin >= len(c.latencyHist) {
		bin = len(c.latencyHist) - 1
	}
	c.latencyHist[bin]++

	b := c.bucketAt(at)
	b.queries++
	if hit {
		b.hits++
	}
	b.lookupSum += lookupMs

	if distMs >= 0 {
		c.distSum += distMs
		c.distCount++
		c.distSamples = append(c.distSamples, distMs)
		dbin := int(distMs / c.cfg.DistanceBinMs)
		if dbin >= len(c.distanceHist) {
			dbin = len(c.distanceHist) - 1
		}
		c.distanceHist[dbin]++
		b.distSum += distMs
		b.distCount++
	}
	if hit {
		c.p2pLookupSum += lookupMs
		if distMs >= 0 {
			c.p2pDistSum += distMs
			c.p2pDistCount++
		}
	}
}

// MergeFrom folds other collectors into c: all are first advanced to end
// (so peer-time integration covers the full run), then every aggregate,
// histogram, sample series and time-series bucket is summed. The
// collectors must share the same Config shape. Percentiles stay exact
// because Snapshot sorts a copy of the merged samples, so the append
// order across merged collectors does not matter. c's sample series grow
// once, to the merged length, and each source gives its own up: a source
// holds no samples afterwards and must not be snapshotted, so a system
// that keeps its collectors reachable does not keep every sample twice.
// Used by the sharded harness to combine per-cell collectors after a run;
// single-threaded.
func (c *Collector) MergeFrom(end simkernel.Time, others ...*Collector) {
	c.advancePeerTime(end)
	nLookup, nDist := len(c.lookupSamples), len(c.distSamples)
	for _, o := range others {
		nLookup += len(o.lookupSamples)
		nDist += len(o.distSamples)
	}
	c.lookupSamples = growTo(c.lookupSamples, nLookup)
	c.distSamples = growTo(c.distSamples, nDist)
	for _, o := range others {
		c.absorb(o, end)
	}
}

// growTo returns s with capacity exactly n (when short), contents kept.
func growTo(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s
	}
	return append(make([]float64, 0, n), s...)
}

// absorb folds one source into c for MergeFrom.
func (c *Collector) absorb(o *Collector, end simkernel.Time) {
	o.advancePeerTime(end)
	c.totalQueries += o.totalQueries
	c.hits += o.hits
	for i := range c.bySource {
		c.bySource[i] += o.bySource[i]
		c.lookupBySource[i] += o.lookupBySource[i]
	}
	c.lookupSum += o.lookupSum
	c.distSum += o.distSum
	c.distCount += o.distCount
	c.p2pLookupSum += o.p2pLookupSum
	c.p2pDistSum += o.p2pDistSum
	c.p2pDistCount += o.p2pDistCount
	for i := range c.latencyHist {
		c.latencyHist[i] += o.latencyHist[i]
	}
	for i := range c.distanceHist {
		c.distanceHist[i] += o.distanceHist[i]
	}
	c.lookupSamples = append(c.lookupSamples, o.lookupSamples...)
	c.distSamples = append(c.distSamples, o.distSamples...)
	o.lookupSamples, o.distSamples = nil, nil
	for i := range c.trafficBytes {
		c.trafficBytes[i] += o.trafficBytes[i]
		c.trafficMsgs[i] += o.trafficMsgs[i]
	}
	for len(c.buckets) < len(o.buckets) {
		c.buckets = append(c.buckets, bucket{})
	}
	for i := range o.buckets {
		b, ob := &c.buckets[i], &o.buckets[i]
		b.queries += ob.queries
		b.hits += ob.hits
		b.lookupSum += ob.lookupSum
		b.distSum += ob.distSum
		b.distCount += ob.distCount
		b.background += ob.background
		b.peerMs += ob.peerMs
	}
	c.curPeers += o.curPeers
	c.peerMsTotal += o.peerMsTotal
	c.redirectFailures += o.redirectFailures
	c.routeTTLExpiry += o.routeTTLExpiry
	c.retries += o.retries
	c.dirFallbacks += o.dirFallbacks
	c.originFallbacks += o.originFallbacks
	c.shedQueries += o.shedQueries
	c.hedges += o.hedges
	c.hedgeWins += o.hedgeWins
	c.breakerTrips += o.breakerTrips
}

// RecordRedirectFailure counts a redirection to a dead peer (§5.1).
func (c *Collector) RecordRedirectFailure() { c.redirectFailures++ }

// RecordRouteTTLExpiry counts a routed message that hit its TTL guard; on
// a stable ring this must stay zero.
func (c *Collector) RecordRouteTTLExpiry() { c.routeTTLExpiry++ }

// RecordRetry counts one query retry (re-routed lookup or next-candidate
// advance after a timeout).
func (c *Collector) RecordRetry() { c.retries++ }

// RecordDirFallback counts a query falling back from the view/holder tier
// to a directory lookup.
func (c *Collector) RecordDirFallback() { c.dirFallbacks++ }

// RecordOriginFallback counts a query degrading to the origin server after
// the P2P tiers were exhausted or unreachable.
func (c *Collector) RecordOriginFallback() { c.originFallbacks++ }

// RecordHedge counts a hedged lookup sent after the adaptive tail deadline
// passed with no directory claiming the query.
func (c *Collector) RecordHedge() { c.hedges++ }

// RecordHedgeWin counts a hedged lookup that reached a directory before
// the primary lookup did.
func (c *Collector) RecordHedgeWin() { c.hedgeWins++ }

// RecordBreakerTrip counts a holder circuit breaker opening after
// repeated redirect/peer-query timeouts.
func (c *Collector) RecordBreakerTrip() { c.breakerTrips++ }

// RecordShed counts a query shed to the origin tier by the directory-
// takeover in-flight budget instead of entering the lookup-retry chain.
func (c *Collector) RecordShed() { c.shedQueries++ }
