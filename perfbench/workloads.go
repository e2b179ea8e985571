package main

import "flowercdn"

// Seeds. DefaultSeed is the one to quote; HeldOutSeed is kept aside so a
// later performance claim can be re-checked on a seed nobody tuned on.
const (
	DefaultSeed int64 = 1
	HeldOutSeed int64 = 20091
)

// subSeeds is how many simulations one invocation spreads over: the
// workload seed itself plus flowercdn.PointSeed(seed, i) for i ≥ 1. The
// simulated metrics are their mean, which keeps the seed-to-seed spread of
// tail statistics (p99 lookup, mean transfer distance) well inside the
// bounds without lengthening any single run.
const subSeeds = 5

// workload is one named input of the benchmark.
type workload struct {
	name string
	// why is the reason the workload exists: the layers it loads and the
	// end-to-end metrics it is the mechanism (or the control) for.
	why    string
	params func(seed int64) flowercdn.Params
}

var workloads = []workload{
	{
		name: "paper-24h",
		why: "the paper's Table 1 day; dense gossip views and warm caches put the " +
			"content-overlay plane (bloom, gossip, overlay) on top, faults and shards idle",
		params: flowercdn.DefaultParams,
	},
	{
		name: "pop20k-sharded",
		why: "20k sparse, bootstrap-heavy clients on the 2-worker epoch engine: " +
			"event heap, GC, memory per client, cross-cell mail and worker parking",
		params: func(seed int64) flowercdn.Params {
			p := pop20k(seed)
			p.Shards = 2
			return p
		},
	},
	{
		name: "pop20k-churn-gray",
		why: "20k clients under 2%/h churn and the gray storm with the adaptive plane: " +
			"D-ring repair, fault decisions on every send, retry/hedge/breaker timers",
		params: func(seed int64) flowercdn.Params {
			p := flowercdn.WithMassiveChurn(pop20k(seed))
			g := flowercdn.GrayStormParams(seed)
			p.Faults, p.DirDegrades, p.QueryPolicy = g.Faults, g.DirDegrades, g.QueryPolicy
			p.Adaptive = true
			return p
		},
	},
}

func pop20k(seed int64) flowercdn.Params {
	p := flowercdn.PopulationParams(seed, 20000)
	p.Duration = flowercdn.Hour
	return p
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed returns the i-th simulation seed of an invocation.
func subSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return flowercdn.PointSeed(seed, i)
}

// workers is the number of worker goroutines a run of p uses: the
// sharded engine clamps Shards to its cell count, one per locality for
// every workload here.
func workers(p flowercdn.Params) int {
	if p.Shards <= 0 {
		return 1
	}
	return min(p.Shards, p.Localities)
}
