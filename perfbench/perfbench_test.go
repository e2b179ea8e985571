package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"flowercdn"
)

func TestClassify(t *testing.T) {
	const in = modulePrefix
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"module leaf", []string{in + "core.(*host).HandleMessage", in + "simkernel.(*Kernel).Run"}, "core"},
		{"closure in module", []string{in + "simkernel.(*Kernel).Every.func1", "main.main"}, "simkernel"},
		{"background mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{"mark assist under malloc", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", in + "core.f"}, "runtime.gc"},
		{"write barrier in module", []string{"runtime.wbBufFlush1", "runtime.wbBufFlush", "runtime.gcWriteBarrier2", in + "gossip.(*View).Merge"}, "runtime.gc"},
		{"sweeper", []string{"runtime.(*sweepLocked).sweep", "runtime.bgsweep"}, "runtime.gc"},
		{"allocation", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", in + "bloom.New"}, "runtime.alloc"},
		{"span refill", []string{"runtime.(*mcentral).cacheSpan", "runtime.(*mcache).refill", "runtime.newobject", in + "core.f"}, "runtime.alloc"},
		{"futex", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{"park under engine", []string{"runtime.gopark", "runtime.chanrecv1", in + "simkernel.(*Engine).worker"}, "runtime.sched"},
		{"runtime helper", []string{"internal/runtime/maps.h2", in + "dring.(*Directory).Lookup"}, "runtime.sched"},
		{"standard library", []string{"sort.insertionSort", in + "metrics.(*Collector).Snapshot"}, "other"},
		{"unlisted module", []string{in + "model.(*Interner).Ref", in + "core.f"}, "other"},
		{"facade", []string{"flowercdn.RunFlower", "main.main"}, "other"},
		{"benchmark itself", []string{"main.(*bench).run"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%s: classify(%q) = %s, want %s", c.name, c.stack[0], got, c.want)
		}
	}
}

func TestFoldSumsToOne(t *testing.T) {
	const in = modulePrefix
	samples := []profSample{
		{[]string{in + "bloom.(*Filter).TestHash", in + "core.(*host).HandleMessage", in + "simkernel.(*Ticker).fire"}, 30},
		{[]string{in + "simnet.(*Network).Send", in + "core.(*System).Submit"}, 20},
		{[]string{"runtime.futex"}, 10},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 25},
		{[]string{"strconv.Itoa"}, 15},
		{nil, 99}, // stackless samples carry no attribution
	}
	f := foldSamples(samples)
	if f.totalNs != 100 {
		t.Fatalf("total %d ns, want 100", f.totalNs)
	}
	var sum float64
	for _, l := range layers {
		sum += f.selfFrac(l)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("self fractions sum to %v", sum)
	}
	for layer, want := range map[string]float64{"bloom": .30, "simnet": .20, "runtime.sched": .10, "runtime.gc": .25, "other": .15} {
		if got := f.selfFrac(layer); math.Abs(got-want) > 1e-12 {
			t.Errorf("self %s = %v, want %v", layer, got, want)
		}
	}
	for metric, want := range map[string]float64{
		"core.handle_cum_frac": .30, "simkernel.every_cum_frac": .30,
		"simnet.send_cum_frac": .20, "core.submit_cum_frac": .20,
	} {
		if got := f.cumFrac(metric); math.Abs(got-want) > 1e-12 {
			t.Errorf("cum %s = %v, want %v", metric, got, want)
		}
	}
}

// protoMsg is a tiny profile.proto encoder for building test profiles.
type protoMsg []byte

func (m protoMsg) varint(num int, v uint64) protoMsg {
	m = binary.AppendUvarint(m, uint64(num)<<3)
	return binary.AppendUvarint(m, v)
}

func (m protoMsg) bytes(num int, b []byte) protoMsg {
	m = binary.AppendUvarint(m, uint64(num)<<3|2)
	m = binary.AppendUvarint(m, uint64(len(b)))
	return append(m, b...)
}

func (m protoMsg) packed(num int, vs ...uint64) protoMsg {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return m.bytes(num, b)
}

// TestParseInlinedFrames decodes a hand-built profile whose leaf location
// carries an inlined frame: the inlined callee is the leaf and the
// function it was inlined into is the next frame.
func TestParseInlinedFrames(t *testing.T) {
	const in = modulePrefix
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		in + "bitset.(*Set).Has", in + "overlay.(*Node).Probe", in + "core.(*host).HandleMessage"}
	var p protoMsg
	p = p.bytes(1, protoMsg{}.varint(1, 1).varint(2, 2))
	p = p.bytes(1, protoMsg{}.varint(1, 3).varint(2, 4))
	// Sample 1: packed ids and values. Sample 2: unpacked, as runtime/pprof
	// writes short lists.
	p = p.bytes(2, protoMsg{}.packed(1, 10, 11).packed(2, 3, 30_000_000))
	p = p.bytes(2, protoMsg{}.varint(1, 11).varint(2, 1).varint(2, 10_000_000))
	p = p.bytes(4, protoMsg{}.varint(1, 10).
		bytes(4, protoMsg{}.varint(1, 100).varint(2, 7)).
		bytes(4, protoMsg{}.varint(1, 101).varint(2, 9)))
	p = p.bytes(4, protoMsg{}.varint(1, 11).bytes(4, protoMsg{}.varint(1, 102)))
	for id, name := range []uint64{5, 6, 7} {
		p = p.bytes(5, protoMsg{}.varint(1, uint64(100+id)).varint(2, name))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	want := []string{strs[5], strs[6], strs[7]}
	if strings.Join(samples[0].stack, ",") != strings.Join(want, ",") || samples[0].ns != 30_000_000 {
		t.Fatalf("sample 0 = %q %d ns, want %q 30000000 ns", samples[0].stack, samples[0].ns, want)
	}
	if samples[1].stack[0] != strs[7] || samples[1].ns != 10_000_000 {
		t.Fatalf("sample 1 = %q %d ns", samples[1].stack, samples[1].ns)
	}
	f := foldSamples(samples)
	if f.selfFrac("bitset") != 0.75 || f.selfFrac("core") != 0.25 || f.cumFrac("core.handle_cum_frac") != 1 {
		t.Fatalf("fold self bitset=%v core=%v, cum handle=%v", f.selfFrac("bitset"), f.selfFrac("core"), f.cumFrac("core.handle_cum_frac"))
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

// TestParseRealProfile folds a profile written by runtime/pprof.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	sink = burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f := foldSamples(samples)
	if f.totalNs == 0 {
		t.Fatal("no samples")
	}
	var sum float64
	for _, l := range layers {
		sum += f.selfFrac(l)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("self fractions sum to %v", sum)
	}
	// The test binary's own package is no repository module: "other".
	var burnNs int64
	for _, s := range samples {
		if len(s.stack) > 0 && strings.HasSuffix(s.stack[0], ".burn") && classify(s.stack) == "other" {
			burnNs += s.ns
		}
	}
	if burnNs == 0 {
		t.Fatalf("no sample under burn folded to other; first stack %q", samples[0].stack)
	}
}

func TestOfferedAndServed(t *testing.T) {
	paper := flowercdn.DefaultParams(1)
	if got := offeredQueries(paper); got != 518400 {
		t.Errorf("paper-24h offers %d queries, want 6/s × 86400 s = 518400", got)
	}
	w, _ := findWorkload("pop20k-sharded")
	if got := offeredQueries(w.params(1)); got != 108000 {
		t.Errorf("pop20k offers %d queries, want 30/s × 3600 s = 108000", got)
	}
	odd := paper
	odd.QueryRate, odd.Duration = 2.5, 1500*flowercdn.Millisecond
	if got := offeredQueries(odd); got != 3 {
		t.Errorf("2.5/s over 1.5 s offers %d queries, want ⌊3.75⌋ = 3", got)
	}
	r := flowercdn.Result{Params: paper}
	r.Report.TotalQueries = 518400 - 1296
	if got := servedFrac(r); got != 0.9975 {
		t.Errorf("served_frac = %v, want 0.9975", got)
	}
}

func TestFingerprintComparison(t *testing.T) {
	p := flowercdn.ScaledParams(3)
	p.Duration = 20 * flowercdn.Minute
	a, err := flowercdn.RunFlower(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := flowercdn.RunFlower(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSame("repeat", fingerprintOf(a), fingerprintOf(b)); err != nil {
		t.Fatal(err)
	}
	p.Shards = 2
	c, err := flowercdn.RunFlower(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Shards = 1
	d, err := flowercdn.RunFlower(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSame("workers", fingerprintOf(c), fingerprintOf(d)); err != nil {
		t.Fatal(err)
	}
	bad := fingerprintOf(b)
	bad.Hits++
	if checkSame("mismatch", fingerprintOf(a), bad) == nil {
		t.Fatal("a fingerprint with one more hit was accepted")
	}
	bad = fingerprintOf(b)
	bad.LookupP99Ms = math.Nextafter(bad.LookupP99Ms, math.Inf(1))
	if checkSame("mismatch", fingerprintOf(a), bad) == nil {
		t.Fatal("a fingerprint one ulp off in p99 was accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metrics the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEndDefs) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from endToEndDefs\n%v", e2e, endToEndDefs)
	}
	if !slices.Equal(layer, perLayerDefs) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from perLayerDefs\n%v", layer, perLayerDefs)
	}
	for _, l := range layers {
		if !hasDef(perLayerDefs, selfFracMetric(l)) {
			t.Errorf("fold layer %s has no per-layer metric", l)
		}
	}
	for _, e := range cumEntries {
		if !hasDef(perLayerDefs, e.metric) {
			t.Errorf("cumulative entry %s has no per-layer metric", e.metric)
		}
	}
}

func hasDef(defs []metricDef, name string) bool {
	return slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name })
}
