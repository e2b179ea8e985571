package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"flowercdn"
)

// offeredQueries is the number of queries the generator offers over the
// run: the non-Poisson generator emits one every 1/QueryRate seconds.
func offeredQueries(p flowercdn.Params) int64 {
	return int64(math.Floor(p.QueryRate * float64(p.Duration) / float64(flowercdn.Second)))
}

// servedFrac is the share of offered queries that completed: queries
// dropped from dead clients, abandoned at the retry cap or still in
// flight at the end are the rest.
func servedFrac(r flowercdn.Result) float64 {
	offered := offeredQueries(r.Params)
	if offered <= 0 {
		return 0
	}
	return float64(r.Report.TotalQueries) / float64(offered)
}

// fingerprint is what must repeat exactly for a workload and simulation
// seed, whatever the host, the run order or the worker count.
type fingerprint struct {
	Events       uint64
	TotalQueries int64
	Hits         int64
	MessagesSent uint64
	HitRatio     float64
	LookupP50Ms  float64
	LookupP99Ms  float64
	TransferMs   float64
	Background   float64
	ServedFrac   float64
}

func fingerprintOf(r flowercdn.Result) fingerprint {
	rep := r.Report
	return fingerprint{
		Events:       r.Events,
		TotalQueries: rep.TotalQueries,
		Hits:         rep.Hits,
		MessagesSent: r.MessagesSent,
		HitRatio:     rep.HitRatio,
		LookupP50Ms:  rep.LookupPercentiles.P50,
		LookupP99Ms:  rep.LookupPercentiles.P99,
		TransferMs:   rep.AvgTransferMs,
		Background:   rep.BackgroundBps,
		ServedFrac:   servedFrac(r),
	}
}

// checkSame returns an error showing both fingerprints when got differs
// from want; what names the comparison.
func checkSame(what string, want, got fingerprint) error {
	if want == got {
		return nil
	}
	return fmt.Errorf("%s: fingerprint differs: want %+v, got %+v", what, want, got)
}

// simMetrics are the simulated end-to-end metrics of one run.
func simMetrics(r flowercdn.Result) map[string]float64 {
	rep := r.Report
	return map[string]float64{
		"hit_ratio":        rep.HitRatio,
		"lookup_p50_ms":    rep.LookupPercentiles.P50,
		"lookup_p99_ms":    rep.LookupPercentiles.P99,
		"transfer_mean_ms": rep.AvgTransferMs,
		"background_bps":   rep.BackgroundBps,
		"served_frac":      servedFrac(r),
	}
}

// checkSane rejects a result the benchmark's metrics cannot be read from.
func checkSane(r flowercdn.Result) error {
	rep := r.Report
	offered := offeredQueries(r.Params)
	switch {
	case rep.TotalQueries <= 0 || rep.TotalQueries > offered:
		return fmt.Errorf("served %d of %d offered queries", rep.TotalQueries, offered)
	case rep.TotalQueries/100 < 1000:
		return fmt.Errorf("%d queries leave fewer than 1000 samples beyond p99", rep.TotalQueries)
	case rep.HitRatio <= 0 || rep.HitRatio > 1:
		return fmt.Errorf("hit ratio %v out of (0, 1]", rep.HitRatio)
	case rep.LookupPercentiles.P50 <= 0 || rep.LookupPercentiles.P99 < rep.LookupPercentiles.P50:
		return fmt.Errorf("lookup percentiles p50=%v p99=%v", rep.LookupPercentiles.P50, rep.LookupPercentiles.P99)
	case rep.AvgTransferMs <= 0 || rep.BackgroundBps <= 0:
		return fmt.Errorf("transfer %v ms, background %v bit/s", rep.AvgTransferMs, rep.BackgroundBps)
	case r.Events == 0 || r.WallSeconds <= 0:
		return fmt.Errorf("%d events in %v s", r.Events, r.WallSeconds)
	}
	return nil
}

// rtSample is a reading of the process counters a timed run is bracketed
// with.
type rtSample struct {
	gcCPU, totalCPU, idleCPU float64 // runtime/metrics estimates, CPU-seconds
	gcCycles                 uint64
	allocBytes, allocObjects uint64
	procCPU                  time.Duration // user+system, from getrusage
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRT() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSample{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		idleCPU:      s[2].Value.Float64(),
		gcCycles:     s[3].Value.Uint64(),
		allocBytes:   s[4].Value.Uint64(),
		allocObjects: s[5].Value.Uint64(),
		procCPU:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// timedRun is one untraced RunFlower call measured from outside.
type timedRun struct {
	sub   int
	wall  float64 // seconds, the whole call
	setup float64 // seconds, the call outside the event loop
	res   flowercdn.Result
	// Runtime deltas over the call.
	gcCPUFrac    float64
	gcCycles     float64
	allocBytes   float64
	allocObjects float64
	cpuPerWall   float64
}

// runTimed runs p once with a collected heap behind it, so garbage left
// by the previous run is not charged to this one.
func runTimed(sub int, p flowercdn.Params) (timedRun, error) {
	runtime.GC()
	before := readRT()
	start := time.Now()
	res, err := flowercdn.RunFlower(p)
	wall := time.Since(start).Seconds()
	after := readRT()
	if err != nil {
		return timedRun{}, err
	}
	busy := (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	t := timedRun{
		sub:          sub,
		wall:         wall,
		setup:        wall - res.WallSeconds,
		res:          res,
		gcCycles:     float64(after.gcCycles - before.gcCycles),
		allocBytes:   float64(after.allocBytes - before.allocBytes),
		allocObjects: float64(after.allocObjects - before.allocObjects),
		cpuPerWall:   (after.procCPU - before.procCPU).Seconds() / wall,
	}
	if busy > 0 {
		t.gcCPUFrac = (after.gcCPU - before.gcCPU) / busy
	}
	return t, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// (the same exclusive method as Python's statistics.quantiles(n=4)).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(num int) float64 { // position num/4 of the n+1 grid, 1-based
		pos := float64(num*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), median(s), at(3)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if len(xs) == 0 {
		return 0
	}
	return sum / float64(len(xs))
}
