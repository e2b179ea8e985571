package main

import (
	"fmt"
	"slices"

	"flowercdn"
)

// metricDef is one reported metric. The lists below are the ones
// BENCHMARK.json declares; TestMetricTablesMatchBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

var endToEndDefs = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_live_b_per_client", "B", "lower"},
	{"hit_ratio", "frac", "higher"},
	{"lookup_p50_ms", "ms", "lower"},
	{"lookup_p99_ms", "ms", "lower"},
	{"transfer_mean_ms", "ms", "lower"},
	{"background_bps", "bit/s", "lower"},
	{"served_frac", "frac", "higher"},
}

// trafficCats are the traffic categories reported per layer.
var trafficCats = []string{"gossip", "push", "dir-summary", "keepalive", "query", "maintenance", "replication"}

// serveSources are the tiers a query can be served from (Report.BySource).
var serveSources = []string{"local", "peer", "remote-overlay", "server"}

var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"simkernel.events", "count", "lower"},
		{"simkernel.ns_per_event", "ns", "lower"},
		{"simkernel.self_frac", "frac", "lower"},
		{"simkernel.every_cum_frac", "frac", "lower"},
		{"simkernel.epochs", "count", "lower"},
		{"simkernel.barriers_run", "count", "lower"},
		{"simkernel.barrier_event_frac", "frac", "lower"},
		{"simkernel.worker_stall_frac", "frac", "lower"},
		{"simkernel.cell_skew", "ratio", "lower"},
		{"simkernel.cpu_per_wall", "ratio", "higher"},
		{"simnet.messages", "count", "lower"},
		{"simnet.dead_drops", "count", "lower"},
		{"simnet.fault_drops", "count", "lower"},
		{"simnet.self_frac", "frac", "lower"},
		{"simnet.send_cum_frac", "frac", "lower"},
	}
	for _, c := range trafficCats {
		defs = append(defs, metricDef{"simnet.bytes." + c, "B", "lower"})
	}
	defs = append(defs,
		metricDef{"core.self_frac", "frac", "lower"},
		metricDef{"core.handle_cum_frac", "frac", "lower"},
		metricDef{"core.submit_cum_frac", "frac", "lower"},
		metricDef{"core.joins", "count", "higher"},
		metricDef{"core.retries", "count", "lower"},
		metricDef{"core.dir_fallbacks", "count", "lower"},
		metricDef{"core.origin_fallbacks", "count", "lower"},
		metricDef{"core.hedges", "count", "lower"},
		metricDef{"core.hedge_win_frac", "frac", "higher"},
		metricDef{"core.breaker_trips", "count", "lower"},
		metricDef{"core.redirect_failures", "count", "lower"},
		metricDef{"core.route_ttl_expiry", "count", "lower"},
	)
	for _, s := range serveSources {
		better := "higher"
		if s == "server" {
			better = "lower"
		}
		defs = append(defs, metricDef{"core.serve_frac." + s, "frac", better})
	}
	defs = append(defs,
		metricDef{"dring.self_frac", "frac", "lower"},
		metricDef{"chord.self_frac", "frac", "lower"},
		metricDef{"dring.replacements", "count", "lower"},
		metricDef{"dring.bootstraps", "count", "lower"},
		metricDef{"gossip.self_frac", "frac", "lower"},
		metricDef{"overlay.self_frac", "frac", "lower"},
		metricDef{"bloom.self_frac", "frac", "lower"},
		metricDef{"bitset.self_frac", "frac", "lower"},
		metricDef{"gossip.rejects", "count", "lower"},
		metricDef{"topology.self_frac", "frac", "lower"},
		metricDef{"workload.self_frac", "frac", "lower"},
		metricDef{"metrics.self_frac", "frac", "lower"},
		metricDef{"harness.self_frac", "frac", "lower"},
		metricDef{"other.self_frac", "frac", "lower"},
		metricDef{"setup.topology_s", "s", "lower"},
		metricDef{"setup.core_s", "s", "lower"},
		metricDef{"runtime.gc_cpu_frac", "frac", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.alloc_bytes_per_event", "B/event", "lower"},
		metricDef{"runtime.allocs_per_event", "count/event", "lower"},
		metricDef{"runtime.gc_frac", "frac", "lower"},
		metricDef{"runtime.alloc_frac", "frac", "lower"},
		metricDef{"runtime.sched_frac", "frac", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
	)
	return defs
}()

// selfFracMetric names the per-layer metric carrying a fold layer's self
// fraction.
func selfFracMetric(layer string) string {
	switch layer {
	case "runtime.gc", "runtime.alloc", "runtime.sched":
		return layer + "_frac"
	}
	return layer + ".self_frac"
}

// collect turns values into the metrics of defs, refusing a missing or
// extra name so the output always matches BENCHMARK.json.
func collect(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("perfbench: no value for metric " + d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		panic(fmt.Sprintf("perfbench: %d values for %d metrics", len(values), len(defs)))
	}
	return out
}

// perRun reads f from every timed run.
func perRun(runs []timedRun, f func(timedRun) float64) []float64 {
	xs := make([]float64, len(runs))
	for i, t := range runs {
		xs[i] = f(t)
	}
	return xs
}

// meanOver averages f over the one result per simulation seed.
func meanOver(bySub []flowercdn.Result, f func(flowercdn.Result) float64) float64 {
	xs := make([]float64, len(bySub))
	for i, r := range bySub {
		xs[i] = f(r)
	}
	return mean(xs)
}

// endToEnd reads the end-to-end metrics: host times as medians over the
// timed runs, simulated metrics as the mean over the simulation seeds.
func endToEnd(runs []timedRun, bySub []flowercdn.Result, memRes flowercdn.Result) map[string]metricValue {
	v := map[string]float64{
		"heap_live_b_per_client": memRes.BytesPerClient,
	}
	for _, h := range []struct {
		name string
		f    func(timedRun) float64
	}{
		{"wall_s", func(t timedRun) float64 { return t.wall }},
		{"setup_s", func(t timedRun) float64 { return t.setup }},
	} {
		xs := perRun(runs, h.f)
		q1, med, q3 := quartiles(xs)
		v[h.name] = med
		fmt.Printf("%s median %.4f s  q1 %.4f  q3 %.4f  n=%d\n", h.name, med, q1, q3, len(xs))
	}
	for name := range simMetrics(bySub[0]) {
		v[name] = meanOver(bySub, func(r flowercdn.Result) float64 { return simMetrics(r)[name] })
	}
	out := collect(endToEndDefs, v)
	for _, d := range endToEndDefs {
		fmt.Printf("metric %-24s %14.6g %s\n", d.name, out[d.name].Value, d.unit)
	}
	return out
}

// perLayer reads the per-layer metrics: counts as the mean over the
// simulation seeds, runtime deltas as medians over the timed runs, CPU
// shares from the traced run's fold.
func perLayer(runs []timedRun, bySub []flowercdn.Result, tr traceOut) map[string]metricValue {
	v := map[string]float64{}
	count := func(name string, f func(flowercdn.Result) float64) { v[name] = meanOver(bySub, f) }
	medRun := func(name string, f func(timedRun) float64) { v[name] = median(perRun(runs, f)) }

	count("simkernel.events", func(r flowercdn.Result) float64 { return float64(r.Events) })
	medRun("simkernel.ns_per_event", func(t timedRun) float64 { return t.res.WallSeconds * 1e9 / float64(t.res.Events) })
	count("simkernel.epochs", func(r flowercdn.Result) float64 { return float64(r.Epochs) })
	count("simkernel.barriers_run", func(r flowercdn.Result) float64 { return float64(r.BarriersRun) })
	count("simkernel.barrier_event_frac", func(r flowercdn.Result) float64 { return float64(r.BarrierEvents) / float64(r.Events) })
	medRun("simkernel.worker_stall_frac", func(t timedRun) float64 {
		var stall int64
		for _, ns := range t.res.WorkerStallNs {
			stall += ns
		}
		return float64(stall) / 1e9 / (float64(workers(t.res.Params)) * t.res.WallSeconds)
	})
	count("simkernel.cell_skew", func(r flowercdn.Result) float64 { return skew(r.ShardEvents) })
	medRun("simkernel.cpu_per_wall", func(t timedRun) float64 { return t.cpuPerWall })

	count("simnet.messages", func(r flowercdn.Result) float64 { return float64(r.MessagesSent) })
	count("simnet.dead_drops", func(r flowercdn.Result) float64 { return float64(r.MessagesDropped) })
	count("simnet.fault_drops", func(r flowercdn.Result) float64 { return float64(r.FaultDrops) })
	for _, c := range trafficCats {
		count("simnet.bytes."+c, func(r flowercdn.Result) float64 {
			for _, ts := range r.Report.Traffic {
				if ts.Category.String() == c {
					return float64(ts.Bytes)
				}
			}
			return 0
		})
	}

	count("core.joins", func(r flowercdn.Result) float64 { return float64(r.Stats.Joins) })
	count("core.retries", func(r flowercdn.Result) float64 { return float64(r.Report.Retries) })
	count("core.dir_fallbacks", func(r flowercdn.Result) float64 { return float64(r.Report.DirFallbacks) })
	count("core.origin_fallbacks", func(r flowercdn.Result) float64 { return float64(r.Report.OriginFallbacks) })
	count("core.hedges", func(r flowercdn.Result) float64 { return float64(r.Hedges) })
	count("core.hedge_win_frac", func(r flowercdn.Result) float64 {
		if r.Hedges == 0 {
			return 0
		}
		return float64(r.HedgeWins) / float64(r.Hedges)
	})
	count("core.breaker_trips", func(r flowercdn.Result) float64 { return float64(r.BreakerTrips) })
	count("core.redirect_failures", func(r flowercdn.Result) float64 { return float64(r.Report.RedirectFailures) })
	count("core.route_ttl_expiry", func(r flowercdn.Result) float64 { return float64(r.Report.RouteTTLExpiry) })
	for _, s := range serveSources {
		count("core.serve_frac."+s, func(r flowercdn.Result) float64 {
			return float64(r.Report.BySource[s]) / float64(r.Report.TotalQueries)
		})
	}
	count("dring.replacements", func(r flowercdn.Result) float64 { return float64(r.Stats.DirReplacements) })
	count("dring.bootstraps", func(r flowercdn.Result) float64 { return float64(r.Stats.DirBootstraps) })
	count("gossip.rejects", func(r flowercdn.Result) float64 { return float64(r.Stats.GossipRejects) })

	for _, l := range layers {
		v[selfFracMetric(l)] = tr.fold.selfFrac(l)
	}
	for _, e := range cumEntries {
		v[e.metric] = tr.fold.cumFrac(e.metric)
	}
	v["setup.topology_s"] = tr.topologyS
	v["setup.core_s"] = tr.coreS
	medRun("runtime.gc_cpu_frac", func(t timedRun) float64 { return t.gcCPUFrac })
	medRun("runtime.gc_cycles", func(t timedRun) float64 { return t.gcCycles })
	medRun("runtime.alloc_bytes_per_event", func(t timedRun) float64 { return t.allocBytes / float64(t.res.Events) })
	medRun("runtime.allocs_per_event", func(t timedRun) float64 { return t.allocObjects / float64(t.res.Events) })
	v["trace.overhead_frac"] = tr.overhead

	out := collect(perLayerDefs, v)
	for _, d := range perLayerDefs {
		fmt.Printf("metric %-32s %14.6g %s\n", d.name, out[d.name].Value, d.unit)
	}
	return out
}

// skew is the busiest cell's event count over the mean (0 on the classic
// path, which has no cells).
func skew(cells []uint64) float64 {
	if len(cells) == 0 {
		return 0
	}
	xs := make([]float64, len(cells))
	for i, n := range cells {
		xs[i] = float64(n)
	}
	if m := mean(xs); m > 0 {
		return slices.Max(xs) / m
	}
	return 0
}
