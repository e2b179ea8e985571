// Deterministic fault-injection plane: seeded message loss, latency
// jitter/spikes, locality-scale partitions, and the gray-failure knobs —
// per-node slowdown windows, direction-dependent link loss, and periodic
// link flapping — layered under Send.
//
// Every fault decision is made at send time from a DeriveRNG-derived
// stream, so a faulted run is a pure function of (scenario, seed). On a
// sharded network each cell owns a private stream consumed only by sends
// executing on that cell's kernel (which the venue rules already
// serialise), and barrier-context sends draw from the coordination
// kernel's stream — so fault decisions, like everything else, are
// invariant under the worker count.
//
// Partitions, degrade windows and flap windows are static schedules, not
// random processes: each check is a pure function of (endpoint, now) — no
// RNG draw, no mutation — so cutting, slowing and healing are exactly
// reproducible and race-free. The probabilistic knobs (loss, asymmetric
// loss, jitter, spikes) consume the decision stream in a fixed order that
// depends only on which knobs are configured, never on prior outcomes:
// enabling a schedule-only gray knob leaves an existing scenario's draw
// sequence byte-identical (TestDecideDrawOrderStable pins this).
package simnet

import (
	"math/rand"
	"sort"

	"flowercdn/internal/simkernel"
)

// PartitionWindow isolates one locality from every other locality during
// [Start, End): cross-locality messages with either endpoint inside the
// partitioned locality are dropped. Intra-locality traffic is unaffected
// — the paper's localities are network-proximate clusters, and a WAN cut
// severs the cluster from the world, not from itself. Overlapping windows
// for the same locality are legal and merged at install time.
type PartitionWindow struct {
	Locality   int
	Start, End simkernel.Time
}

// DegradeWindow models a gray-degraded node: during [Start, End) every
// message Node sends has its entire outbound delivery latency — link
// latency plus any injected jitter/spike — multiplied by Factor (> 1).
// The node stays alive and keeps answering; it is just slow, which is the
// failure mode fixed timeouts handle worst. Decided from the schedule
// alone: no RNG draw.
type DegradeWindow struct {
	Node       NodeID
	Start, End simkernel.Time
	Factor     float64
}

// AsymLossRule adds direction-dependent loss: messages travelling from a
// node in FromLoc to a node in ToLoc accrue Prob extra drop probability,
// while the reverse direction is untouched — the classic gray link that
// receives fine but sends into a black hole.
type AsymLossRule struct {
	FromLoc, ToLoc int
	Prob           float64
}

// FlapWindow cycles a locality's WAN connectivity during [Start, End):
// the link to every other locality is down for the first DownFor of each
// Period, then up for the remainder, repeating until End. Intra-locality
// traffic always flows. Like partitions, the check is a pure function of
// (locality, now).
type FlapWindow struct {
	Locality   int
	Start, End simkernel.Time
	Period     simkernel.Time
	DownFor    simkernel.Time
}

// FaultConfig parameterises the fault plane. The zero value (and a nil
// pointer) disables every fault; Enabled reports whether any knob is set.
type FaultConfig struct {
	// LossProb is the base per-message drop probability on every link.
	LossProb float64
	// LocalityLoss adds extra drop probability per endpoint locality:
	// a message accrues the sender's entry plus (when different) the
	// receiver's. Missing entries read as 0.
	LocalityLoss []float64
	// JitterProb is the probability that a message's latency is inflated
	// by a uniform draw from [0, JitterMaxMs].
	JitterProb  float64
	JitterMaxMs float64
	// SpikeProb adds a fixed SpikeMs latency spike with this probability
	// (modelling transient congestion plateaus rather than uniform noise).
	SpikeProb float64
	SpikeMs   float64
	// Partitions is the static cut/heal schedule.
	Partitions []PartitionWindow
	// NodeDegrade schedules gray-degraded (slow-but-alive) nodes.
	NodeDegrade []DegradeWindow
	// AsymLoss lists direction-dependent loss rules.
	AsymLoss []AsymLossRule
	// Flap schedules periodic up/down link cycling per locality.
	Flap []FlapWindow
}

// Enabled reports whether the config injects any fault at all. Nil-safe.
func (f *FaultConfig) Enabled() bool {
	if f == nil {
		return false
	}
	if f.LossProb > 0 || f.JitterProb > 0 || f.SpikeProb > 0 || len(f.Partitions) > 0 ||
		len(f.NodeDegrade) > 0 || len(f.AsymLoss) > 0 || len(f.Flap) > 0 {
		return true
	}
	for _, l := range f.LocalityLoss {
		if l > 0 {
			return true
		}
	}
	return false
}

// Partitioned reports whether loc is cut off from other localities at now.
// This is the reference (linear) form used off the hot path; installed
// networks check the compiled plan's merged window index instead.
func (f *FaultConfig) Partitioned(loc int, now simkernel.Time) bool {
	for _, w := range f.Partitions {
		if w.Locality == loc && now >= w.Start && now < w.End {
			return true
		}
	}
	return false
}

// HealTime returns the end of the last partition window covering loc, or
// -1 if loc is never partitioned. Recovery metrics measure from this
// instant. Overlapping windows are fine: the heal instant is the maximum
// End over every window touching loc, which is the first moment the
// locality is guaranteed connected for good.
func (f *FaultConfig) HealTime(loc int) simkernel.Time {
	heal := simkernel.Time(-1)
	if f == nil {
		return heal
	}
	for _, w := range f.Partitions {
		if w.Locality == loc && w.Start < w.End && w.End > heal {
			heal = w.End
		}
	}
	return heal
}

// lossProb is the total drop probability for a (srcLoc, dstLoc) link.
func (f *FaultConfig) lossProb(srcLoc, dstLoc int) float64 {
	p := f.LossProb
	if srcLoc < len(f.LocalityLoss) {
		p += f.LocalityLoss[srcLoc]
	}
	if dstLoc != srcLoc && dstLoc < len(f.LocalityLoss) {
		p += f.LocalityLoss[dstLoc]
	}
	return p
}

// timeWindow is a normalized [Start, End) span.
type timeWindow struct {
	Start, End simkernel.Time
}

// faultPlan is the compiled, immutable form of a FaultConfig built once at
// InstallFaults time: per-locality merged+sorted partition windows (the
// hot-path check is O(log w) instead of a scan over every window), sorted
// per-locality flap schedules, a per-node degrade index, and a dense
// direction-keyed asymmetric-loss matrix. The user's FaultConfig is never
// mutated.
type faultPlan struct {
	cfg *FaultConfig
	// parts[loc] holds loc's partition windows, validated (empty windows
	// dropped), merged (overlaps and adjacency collapsed) and sorted.
	parts [][]timeWindow
	// flaps[loc] holds loc's flap windows sorted by Start (normalized:
	// Period > 0, DownFor clamped to (0, Period]).
	flaps [][]FlapWindow
	// degrade[node] holds the node's degrade windows sorted by Start; nil
	// slices for the (vast majority of) unscheduled nodes. Nil overall
	// when no degrade is configured.
	degrade [][]DegradeWindow
	// asym[srcLoc*nLoc+dstLoc] is the extra directional loss; nil when no
	// asymmetric rules are configured.
	asym []float64
	nLoc int
	// anyLoss is whether the per-send loss draw is consumed at all. It
	// depends only on the config, never on endpoints, so stream
	// consumption stays a pure function of the knobs.
	anyLoss bool
}

// compileFaults builds the plan. nLoc and nNodes size the locality and
// node indexes.
func compileFaults(cfg *FaultConfig, nLoc, nNodes int) *faultPlan {
	p := &faultPlan{cfg: cfg, nLoc: nLoc}
	p.anyLoss = cfg.LossProb > 0 || len(cfg.LocalityLoss) > 0 || len(cfg.AsymLoss) > 0

	if len(cfg.Partitions) > 0 {
		p.parts = make([][]timeWindow, nLoc)
		for _, w := range cfg.Partitions {
			if w.Locality < 0 || w.Locality >= nLoc || w.End <= w.Start {
				continue // invalid or empty window: normalized away
			}
			p.parts[w.Locality] = append(p.parts[w.Locality], timeWindow{w.Start, w.End})
		}
		for loc := range p.parts {
			p.parts[loc] = mergeWindows(p.parts[loc])
		}
	}
	if len(cfg.Flap) > 0 {
		p.flaps = make([][]FlapWindow, nLoc)
		for _, w := range cfg.Flap {
			if w.Locality < 0 || w.Locality >= nLoc || w.End <= w.Start || w.Period <= 0 || w.DownFor <= 0 {
				continue
			}
			if w.DownFor > w.Period {
				w.DownFor = w.Period
			}
			p.flaps[w.Locality] = append(p.flaps[w.Locality], w)
		}
		for loc := range p.flaps {
			ws := p.flaps[loc]
			sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		}
	}
	if len(cfg.NodeDegrade) > 0 {
		p.degrade = make([][]DegradeWindow, nNodes)
		for _, w := range cfg.NodeDegrade {
			if int(w.Node) < 0 || int(w.Node) >= nNodes || w.End <= w.Start || w.Factor <= 1 {
				continue
			}
			p.degrade[w.Node] = append(p.degrade[w.Node], w)
		}
		for node := range p.degrade {
			ws := p.degrade[node]
			sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		}
	}
	if len(cfg.AsymLoss) > 0 {
		p.asym = make([]float64, nLoc*nLoc)
		for _, r := range cfg.AsymLoss {
			if r.FromLoc < 0 || r.FromLoc >= nLoc || r.ToLoc < 0 || r.ToLoc >= nLoc || r.Prob <= 0 {
				continue
			}
			p.asym[r.FromLoc*nLoc+r.ToLoc] += r.Prob
		}
	}
	return p
}

// mergeWindows sorts windows by start and merges overlapping or adjacent
// spans into disjoint ones, so the binary-searched index gives the same
// answer as the reference linear scan for any overlap pattern.
func mergeWindows(ws []timeWindow) []timeWindow {
	if len(ws) < 2 {
		return ws
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	out := ws[:1]
	for _, w := range ws[1:] {
		if last := &out[len(out)-1]; w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
		} else {
			out = append(out, w)
		}
	}
	return out
}

// inWindows reports whether now falls inside one of the disjoint sorted
// spans, by binary search: O(log w) on the faulted hot path.
func inWindows(ws []timeWindow, now simkernel.Time) bool {
	lo, hi := 0, len(ws)
	for lo < hi {
		mid := (lo + hi) / 2
		if ws[mid].Start <= now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first window starting after now; the candidate is lo-1.
	return lo > 0 && now < ws[lo-1].End
}

// cut reports whether loc is severed from other localities at now, by a
// partition window or a flap down-phase.
func (p *faultPlan) cut(loc int, now simkernel.Time) bool {
	if p.parts != nil && inWindows(p.parts[loc], now) {
		return true
	}
	if p.flaps != nil {
		for _, w := range p.flaps[loc] {
			if now < w.Start {
				break // sorted by Start: nothing later covers now either
			}
			if now < w.End && (now-w.Start)%w.Period < w.DownFor {
				return true
			}
		}
	}
	return false
}

// slowdown returns the sender's active degrade factor at now (1 when none).
func (p *faultPlan) slowdown(from NodeID, now simkernel.Time) float64 {
	if p.degrade == nil {
		return 1
	}
	factor := 1.0
	for _, w := range p.degrade[from] {
		if now < w.Start {
			break
		}
		if now < w.End {
			factor *= w.Factor
		}
	}
	return factor
}

// decide makes the send-time fault decision for one message. The draw
// order is fixed — partition/flap check (no draw), loss (one draw when
// any loss knob, including asymmetric loss, is configured), jitter (one
// draw, plus a magnitude draw only when triggered), spike (one draw) —
// and the schedule-only gray knobs (degrade, flap) never draw, so the
// stream consumption per send is a pure function of the config, never of
// prior outcomes or of endpoints. It returns drop=true to lose the
// message, otherwise the extra latency to add on top of the link latency
// lat (a degraded sender's factor inflates lat plus any injected extra).
func (p *faultPlan) decide(rng *rand.Rand, from NodeID, srcLoc, dstLoc int, lat, now simkernel.Time) (drop bool, extra simkernel.Time) {
	f := p.cfg
	if srcLoc != dstLoc && (p.parts != nil || p.flaps != nil) &&
		(p.cut(srcLoc, now) || p.cut(dstLoc, now)) {
		return true, 0
	}
	if p.anyLoss {
		prob := f.lossProb(srcLoc, dstLoc)
		if p.asym != nil {
			prob += p.asym[srcLoc*p.nLoc+dstLoc]
		}
		if rng.Float64() < prob {
			return true, 0
		}
	}
	if f.JitterProb > 0 {
		if rng.Float64() < f.JitterProb {
			extra += simkernel.Time(rng.Float64() * f.JitterMaxMs * float64(simkernel.Millisecond))
		}
	}
	if f.SpikeProb > 0 {
		if rng.Float64() < f.SpikeProb {
			extra += simkernel.Time(f.SpikeMs * float64(simkernel.Millisecond))
		}
	}
	if factor := p.slowdown(from, now); factor > 1 {
		extra += simkernel.Time((factor - 1) * float64(lat+extra))
	}
	return false, extra
}

// InstallFaults activates the fault plane. A nil or all-zero config is a
// no-op, keeping the disabled send path a single pointer check (the
// TestFaultPlaneDisabledAllocs gate). Must be called before the run
// starts (single-threaded); on a sharded network each cell gets its own
// decision stream derived from that cell's kernel. The config is compiled
// into an immutable plan (merged partition windows, per-node degrade
// index) so the faulted hot path never rescans the raw schedule.
func (n *Network) InstallFaults(cfg *FaultConfig) {
	if !cfg.Enabled() {
		return
	}
	n.faults = cfg
	n.fplan = compileFaults(cfg, n.topo.Localities(), n.topo.NumNodes())
	n.faultRNG = n.kernel.DeriveRNG("simnet-faults")
	n.cellFaultRNG = make([]*rand.Rand, len(n.cells))
	for i, k := range n.cells {
		n.cellFaultRNG[i] = k.DeriveRNGAt("simnet-faults", i)
	}
}

// Faults returns the installed fault config (nil when disabled).
func (n *Network) Faults() *FaultConfig { return n.faults }

// FaultDropped reports how many messages the fault plane dropped (loss or
// partition), across all lanes. Distinct from Dropped, which counts losses
// to dead or handler-less endpoints. Same concurrency caveat as Sent.
func (n *Network) FaultDropped() uint64 {
	var total uint64
	for _, l := range n.lanes {
		total += l.faultDropped
	}
	return total
}
