package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

func TestSourceSemantics(t *testing.T) {
	if SourceServer.IsHit() {
		t.Fatal("server must not count as hit")
	}
	for _, s := range []Source{SourceLocal, SourcePeer, SourceRemoteOverlay} {
		if !s.IsHit() {
			t.Fatalf("%v must count as hit", s)
		}
	}
	names := map[string]bool{}
	for s := Source(0); s < 5; s++ {
		n := s.String()
		if n == "" {
			t.Fatal("empty source name")
		}
		names[n] = true
	}
	if len(names) != 5 {
		t.Fatalf("expected 5 distinct names incl. unknown, got %d", len(names))
	}
}

func TestHitRatioAndAverages(t *testing.T) {
	c := New(Config{})
	c.PeerJoined(0)
	c.RecordQuery(0, SourcePeer, 100, 50)
	c.RecordQuery(0, SourceServer, 400, 300)
	c.RecordQuery(0, SourceLocal, 0, 0)
	c.RecordQuery(0, SourceRemoteOverlay, 200, 150)
	r := c.Snapshot(simkernel.Hour)
	if r.TotalQueries != 4 || r.Hits != 3 {
		t.Fatalf("totals wrong: %+v", r)
	}
	if math.Abs(r.HitRatio-0.75) > 1e-9 {
		t.Fatalf("hit ratio = %v, want 0.75", r.HitRatio)
	}
	if math.Abs(r.AvgLookupMs-175) > 1e-9 {
		t.Fatalf("avg lookup = %v, want 175", r.AvgLookupMs)
	}
	if math.Abs(r.AvgTransferMs-125) > 1e-9 {
		t.Fatalf("avg transfer = %v, want 125", r.AvgTransferMs)
	}
	if math.Abs(r.P2PAvgLookupMs-100) > 1e-9 {
		t.Fatalf("p2p avg lookup = %v, want 100", r.P2PAvgLookupMs)
	}
	if r.BySource["server"] != 1 || r.BySource["local"] != 1 {
		t.Fatalf("by-source wrong: %v", r.BySource)
	}
}

func TestHistogramBinning(t *testing.T) {
	c := New(Config{})
	// 150ms bins, 7 finite + overflow. 1200ms goes to overflow.
	c.RecordQuery(0, SourcePeer, 10, 10)
	c.RecordQuery(0, SourcePeer, 149.9, 99.9)
	c.RecordQuery(0, SourcePeer, 150, 100)
	c.RecordQuery(0, SourcePeer, 1200, 600)
	r := c.Snapshot(simkernel.Hour)
	if r.LatencyHist[0].Count != 2 {
		t.Fatalf("first latency bin = %d, want 2", r.LatencyHist[0].Count)
	}
	if r.LatencyHist[1].Count != 1 {
		t.Fatalf("second latency bin = %d, want 1", r.LatencyHist[1].Count)
	}
	last := r.LatencyHist[len(r.LatencyHist)-1]
	if !last.Overflow || last.Count != 1 {
		t.Fatalf("overflow bin wrong: %+v", last)
	}
	if got := FracWithin(r.LatencyHist, 150); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("FracWithin(150) = %v, want 0.5", got)
	}
	if got := FracBeyond(r.LatencyHist, 1050); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("FracBeyond(1050) = %v, want 0.25", got)
	}
	if r.DistanceHist[0].Count != 2 || r.DistanceHist[1].Count != 1 {
		t.Fatalf("distance bins wrong: %+v", r.DistanceHist[:2])
	}
}

func TestBackgroundBpsAccounting(t *testing.T) {
	c := New(Config{BucketWidth: simkernel.Hour})
	// Two peers for exactly one hour.
	c.PeerJoined(0)
	c.PeerJoined(0)
	// One gossip message of 450 bytes: counted twice (both endpoints).
	c.RecordMessage(10*simkernel.Minute, 1, 2, simnet.CatGossip, 450)
	// Query traffic must NOT count toward background.
	c.RecordMessage(10*simkernel.Minute, 1, 2, simnet.CatQuery, 10000)
	c.RecordMessage(20*simkernel.Minute, 2, 3, simnet.CatPush, 50)
	r := c.Snapshot(simkernel.Hour)
	// background bytes = 2*(450+50) = 1000 → bits = 8000.
	// peer-seconds = 2 * 3600 = 7200 → 8000/7200 ≈ 1.111 bps.
	want := 8000.0 / 7200.0
	if math.Abs(r.BackgroundBps-want) > 1e-9 {
		t.Fatalf("background bps = %v, want %v", r.BackgroundBps, want)
	}
	if len(r.Series) != 1 {
		t.Fatalf("series buckets = %d, want 1", len(r.Series))
	}
	if math.Abs(r.Series[0].BackgroundBps-want) > 1e-9 {
		t.Fatalf("bucket bps = %v, want %v", r.Series[0].BackgroundBps, want)
	}
	if math.Abs(r.Series[0].Peers-2) > 1e-9 {
		t.Fatalf("bucket peers = %v, want 2", r.Series[0].Peers)
	}
}

func TestPeerTimeIntegrationAcrossBuckets(t *testing.T) {
	c := New(Config{BucketWidth: simkernel.Hour})
	c.PeerJoined(0)
	c.PeerJoined(30 * simkernel.Minute) // second peer joins mid-bucket
	c.PeerLeft(90 * simkernel.Minute)   // leaves mid-second-bucket
	r := c.Snapshot(2 * simkernel.Hour)
	// Bucket 0: 1 peer 30min + 2 peers 30min = 1.5 peer-hours.
	if math.Abs(r.Series[0].Peers-1.5) > 1e-9 {
		t.Fatalf("bucket0 peers = %v, want 1.5", r.Series[0].Peers)
	}
	// Bucket 1: 2 peers 30min + 1 peer 30min = 1.5 peer-hours.
	if math.Abs(r.Series[1].Peers-1.5) > 1e-9 {
		t.Fatalf("bucket1 peers = %v, want 1.5", r.Series[1].Peers)
	}
	if math.Abs(r.PeerSecondsTotal-3*3600) > 1e-6 {
		t.Fatalf("peer seconds = %v, want %v", r.PeerSecondsTotal, 3*3600)
	}
}

func TestCumulativeVsWindowedHitRatio(t *testing.T) {
	c := New(Config{BucketWidth: simkernel.Hour})
	c.PeerJoined(0)
	// Bucket 0: 0/2 hits. Bucket 1: 2/2 hits.
	c.RecordQuery(1*simkernel.Minute, SourceServer, 100, 100)
	c.RecordQuery(2*simkernel.Minute, SourceServer, 100, 100)
	c.RecordQuery(61*simkernel.Minute, SourcePeer, 10, 10)
	c.RecordQuery(62*simkernel.Minute, SourcePeer, 10, 10)
	r := c.Snapshot(2 * simkernel.Hour)
	if r.Series[0].HitRatio != 0 || r.Series[1].HitRatio != 1 {
		t.Fatalf("windowed hit ratios wrong: %+v", r.Series)
	}
	if math.Abs(r.Series[1].CumHitRatio-0.5) > 1e-9 {
		t.Fatalf("cumulative at bucket1 = %v, want 0.5", r.Series[1].CumHitRatio)
	}
}

func TestTrafficByCategory(t *testing.T) {
	c := New(Config{})
	c.RecordMessage(0, 1, 2, simnet.CatMaintenance, 100)
	c.RecordMessage(0, 1, 2, simnet.CatMaintenance, 100)
	c.RecordMessage(0, 1, 2, simnet.CatKeepalive, 20)
	r := c.Snapshot(simkernel.Hour)
	var maint, ka TrafficStat
	for _, ts := range r.Traffic {
		switch ts.Category {
		case simnet.CatMaintenance:
			maint = ts
		case simnet.CatKeepalive:
			ka = ts
		}
	}
	if maint.Bytes != 200 || maint.Messages != 2 {
		t.Fatalf("maintenance stat wrong: %+v", maint)
	}
	if ka.Bytes != 20 || ka.Messages != 1 {
		t.Fatalf("keepalive stat wrong: %+v", ka)
	}
}

func TestDiagnosticsCounters(t *testing.T) {
	c := New(Config{})
	c.RecordRedirectFailure()
	c.RecordRedirectFailure()
	c.RecordRouteTTLExpiry()
	r := c.Snapshot(simkernel.Hour)
	if r.RedirectFailures != 2 || r.RouteTTLExpiry != 1 {
		t.Fatalf("diag counters wrong: %+v", r)
	}
}

// Property: histogram fractions sum to 1 (when there are queries) and
// FracWithin is monotone in its threshold.
func TestQuickHistogramConsistency(t *testing.T) {
	prop := func(raw []uint16) bool {
		c := New(Config{})
		for _, v := range raw {
			c.RecordQuery(0, SourcePeer, float64(v), float64(v)/2)
		}
		r := c.Snapshot(simkernel.Hour)
		if len(raw) == 0 {
			return true
		}
		var sum float64
		for _, b := range r.LatencyHist {
			sum += b.Frac
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		prev := 0.0
		for ms := 150.0; ms <= 1050; ms += 150 {
			f := FracWithin(r.LatencyHist, ms)
			if f < prev-1e-12 {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentiles(t *testing.T) {
	c := New(Config{})
	// 100 lookups: 1..100 ms.
	for i := 1; i <= 100; i++ {
		c.RecordQuery(0, SourcePeer, float64(i), float64(i))
	}
	r := c.Snapshot(simkernel.Hour)
	p := r.LookupPercentiles
	if p.P50 != 50 {
		t.Fatalf("p50 = %v, want 50", p.P50)
	}
	if p.P95 != 95 {
		t.Fatalf("p95 = %v, want 95", p.P95)
	}
	if p.P99 != 99 {
		t.Fatalf("p99 = %v, want 99", p.P99)
	}
	if p.Max != 100 {
		t.Fatalf("max = %v, want 100", p.Max)
	}
	if r.TransferPercentiles.P50 != 50 {
		t.Fatalf("transfer p50 = %v", r.TransferPercentiles.P50)
	}
}

func TestPercentilesEmptyAndSingle(t *testing.T) {
	c := New(Config{})
	r := c.Snapshot(simkernel.Hour)
	if r.LookupPercentiles != (Percentiles{}) {
		t.Fatal("empty percentiles should be zero")
	}
	c.RecordQuery(0, SourcePeer, 42, 42)
	r = c.Snapshot(simkernel.Hour)
	p := r.LookupPercentiles
	if p.P50 != 42 || p.P99 != 42 || p.Max != 42 {
		t.Fatalf("single-sample percentiles wrong: %+v", p)
	}
}

// Property: percentiles are monotone and bounded by the maximum.
func TestQuickPercentilesMonotone(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		c := New(Config{})
		for _, v := range raw {
			c.RecordQuery(0, SourcePeer, float64(v), -1)
		}
		p := c.Snapshot(simkernel.Hour).LookupPercentiles
		return p.P50 <= p.P90 && p.P90 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.Max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatAndString(t *testing.T) {
	c := New(Config{})
	c.PeerJoined(0)
	c.RecordQuery(0, SourcePeer, 100, 80)
	r := c.Snapshot(simkernel.Hour)
	if s := FormatHist(r.LatencyHist); len(s) == 0 {
		t.Fatal("empty histogram rendering")
	}
	if s := r.String(); len(s) == 0 {
		t.Fatal("empty report string")
	}
}

func TestAvgLookupBySource(t *testing.T) {
	c := New(Config{})
	c.RecordQuery(0, SourceLocal, 0, 0)
	c.RecordQuery(0, SourcePeer, 100, 50)
	c.RecordQuery(0, SourcePeer, 200, 60)
	c.RecordQuery(0, SourceServer, 900, 300)
	r := c.Snapshot(simkernel.Hour)
	if got := r.AvgLookupBySource["peer"]; math.Abs(got-150) > 1e-9 {
		t.Fatalf("peer avg = %v, want 150", got)
	}
	if got := r.AvgLookupBySource["server"]; math.Abs(got-900) > 1e-9 {
		t.Fatalf("server avg = %v, want 900", got)
	}
	if got := r.AvgLookupBySource["local"]; got != 0 {
		t.Fatalf("local avg = %v, want 0", got)
	}
	if _, present := r.AvgLookupBySource["remote-overlay"]; present {
		t.Fatal("unused source should be absent from the map")
	}
}

func TestCSVExports(t *testing.T) {
	c := New(Config{BucketWidth: simkernel.Hour})
	c.PeerJoined(0)
	c.RecordQuery(10*simkernel.Minute, SourcePeer, 120, 80)
	c.RecordQuery(70*simkernel.Minute, SourceServer, 400, 250)
	r := c.Snapshot(2 * simkernel.Hour)
	csv := r.SeriesCSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 { // header + 2 buckets
		t.Fatalf("series csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "hour,queries,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.00,1,1.0000") {
		t.Fatalf("bad first bucket: %s", lines[1])
	}
	hcsv := HistCSV(r.LatencyHist)
	hlines := strings.Split(strings.TrimSpace(hcsv), "\n")
	if len(hlines) != len(r.LatencyHist)+1 {
		t.Fatalf("hist csv lines = %d", len(hlines))
	}
	if !strings.Contains(hcsv, "true") {
		t.Fatal("overflow bin not marked")
	}
}

func TestNegativeDistanceSkipped(t *testing.T) {
	c := New(Config{})
	c.RecordQuery(0, SourcePeer, 100, -1)
	r := c.Snapshot(simkernel.Hour)
	if r.AvgTransferMs != 0 {
		t.Fatalf("negative distance should be excluded, got %v", r.AvgTransferMs)
	}
	var total int64
	for _, b := range r.DistanceHist {
		total += b.Count
	}
	if total != 0 {
		t.Fatal("distance histogram should be empty")
	}
}

// MergeFrom over per-cell collectors must report exactly what one
// collector fed the whole stream reports, grow the merged sample series
// once, and leave the sources holding no second copy of their samples.
func TestMergeFromMatchesSingleCollector(t *testing.T) {
	cfg := Config{BucketWidth: 10 * simkernel.Minute}
	const end = simkernel.Hour
	whole := New(cfg)
	cells := []*Collector{New(cfg), New(cfg), New(cfg)}
	for i := 0; i < 300; i++ {
		at := simkernel.Time(i) * 11 * simkernel.Second
		c := cells[i*7%len(cells)]
		src := Source(i % 4)
		// Integer-valued latencies keep the merged float sums exact
		// whatever order the cells are summed in.
		lookup, dist := float64(i%97), float64(i%31)
		if i%5 == 0 {
			dist = -1
		}
		for _, col := range []*Collector{whole, c} {
			if i%40 == 0 {
				col.PeerJoined(at)
			}
			col.RecordQuery(at, src, lookup, dist)
			col.RecordMessage(at, 1, 2, simnet.CatGossip, 100+i)
		}
	}
	want := fmt.Sprintf("%+v", whole.Snapshot(end))
	cells[0].MergeFrom(end, cells[1:]...)
	if got := fmt.Sprintf("%+v", cells[0].Snapshot(end)); got != want {
		t.Fatalf("merged report differs\n got %s\nwant %s", got, want)
	}
	for i, o := range cells[1:] {
		if o.lookupSamples != nil || o.distSamples != nil {
			t.Fatalf("source %d still holds %d/%d samples", i+1, len(o.lookupSamples), len(o.distSamples))
		}
	}
	m := cells[0]
	if cap(m.lookupSamples) != len(m.lookupSamples) || cap(m.distSamples) != len(m.distSamples) {
		t.Fatalf("merged samples not grown once: lookup %d/%d dist %d/%d",
			len(m.lookupSamples), cap(m.lookupSamples), len(m.distSamples), cap(m.distSamples))
	}
}
