// Command perfbench is the repository's benchmark: it runs one named
// workload through the public flowercdn.RunFlower entry point, checks the
// simulated outputs, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1) as the last line of standard output, a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload paper-24h --seed 1 --seconds 40 --trace 0
//
// Run it through run.sh from the repository root, which builds it with
// its caches inside the checkout. See README.md for the workloads, the
// metrics and the layer each one belongs to.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"flowercdn"
)

func main() {
	wname := flag.String("workload", "paper-24h", "workload name")
	seed := flag.Int64("seed", DefaultSeed, fmt.Sprintf("workload seed (%d is held out for re-checking claims)", HeldOutSeed))
	seconds := flag.Int("seconds", 40, "how long the timed runs measure, in seconds")
	traced := flag.Int("trace", 0, "1 = print per-layer metrics from an extra profiled run")
	outDir := flag.String("out", "", "directory for the traced run's spans and CPU profile (empty = keep in memory)")
	flag.Parse()

	w, ok := findWorkload(*wname)
	if !ok {
		fatalf("unknown workload %q", *wname)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	fmt.Println(machineLine())
	p0 := w.params(*seed)
	if n := workers(p0); n > runtime.NumCPU() || n > runtime.GOMAXPROCS(0) {
		fatalf("refusing %s: %d workers on nproc=%d GOMAXPROCS=%d", w.name, n, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	fmt.Printf("workload %s seed=%d sub-seeds=%d seconds=%d trace=%d workers=%d\n",
		w.name, *seed, subSeeds, *seconds, *traced, workers(p0))
	fmt.Println("why:", w.why)

	b := &bench{w: w, seed: *seed}
	out, err := b.run(time.Duration(*seconds)*time.Second, *traced == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		printResult(result{Correct: false, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}})
		os.Exit(1)
	}
	printResult(out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func machineLine() string {
	env := func(k string) string {
		if v, ok := os.LookupEnv(k); ok {
			return v
		}
		return "unset"
	}
	return fmt.Sprintf("machine nproc=%d gomaxprocs=%d cpu=%q go=%s GOGC=%s GOMEMLIMIT=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), env("GOGC"), env("GOMEMLIMIT"))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(r result) {
	line, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// bench is one invocation: a workload, a seed and the runs made for them.
type bench struct {
	w                 workload
	seed              int64
	attempted, failed int // RunFlower calls
	fps               [subSeeds]*fingerprint
}

func (b *bench) params(sub int) flowercdn.Params { return b.w.params(subSeed(b.seed, sub)) }

// call makes one RunFlower call (through run, so the caller picks how it
// is measured) and checks the result and its fingerprint against every
// earlier run of the same simulation seed. A call that errs or fails a
// check counts as failed.
func (b *bench) call(what string, sub int, run func() (flowercdn.Result, error)) (flowercdn.Result, error) {
	b.attempted++
	res, err := run()
	if err == nil {
		err = checkSane(res)
	}
	if err == nil {
		fp := fingerprintOf(res)
		if b.fps[sub] == nil {
			b.fps[sub] = &fp
		} else {
			err = checkSame(what, *b.fps[sub], fp)
		}
	}
	if err != nil {
		b.failed++
		return res, fmt.Errorf("%s: %w", what, err)
	}
	return res, nil
}

func (b *bench) run(budget time.Duration, traced bool, outDir string) (result, error) {
	// Untimed first run: it fills the lazily built shared state (the
	// object interner) and weighs the live heap, whose forced collection
	// must not land in a timed run.
	mem := b.params(0)
	mem.MeasureMemory = true
	memRes, err := b.call("memory run", 0, func() (flowercdn.Result, error) { return flowercdn.RunFlower(mem) })
	if err != nil {
		return result{}, err
	}

	// Every simulation seed runs at least once; further runs cycle over
	// them while the next one still fits the budget.
	var runs []timedRun
	start := time.Now()
	for i := 0; ; i++ {
		if i >= subSeeds && time.Since(start).Seconds()+runs[i-1].wall > budget.Seconds() {
			break
		}
		sub := i % subSeeds
		var t timedRun
		_, err := b.call(fmt.Sprintf("timed run %d", i), sub, func() (flowercdn.Result, error) {
			var err error
			t, err = runTimed(sub, b.params(sub))
			return t.res, err
		})
		if err != nil {
			return result{}, err
		}
		fmt.Printf("run %d sub-seed=%d wall_s=%.4f setup_s=%.4f events=%d\n", i, sub, t.wall, t.setup, t.res.Events)
		runs = append(runs, t)
	}

	// One result per simulation seed; the simulated metrics are their mean.
	bySub := make([]flowercdn.Result, subSeeds)
	for _, t := range runs[:subSeeds] {
		bySub[t.sub] = t.res
	}
	if b.w.name == "paper-24h" {
		printFidelity(bySub)
	}
	var metrics map[string]metricValue
	if traced {
		tr, err := b.tracedRun(runs)
		if err != nil {
			return result{}, err
		}
		if outDir != "" {
			if err := tr.write(outDir, fmt.Sprintf("%s-%d", b.w.name, b.seed)); err != nil {
				return result{}, err
			}
		}
		metrics = perLayer(runs, bySub, tr)
	} else {
		metrics = endToEnd(runs, bySub, memRes)
	}

	// The workload-specific checks run last, so a failing one still leaves
	// the metrics above on standard output.
	if p := b.params(0); p.Shards > 1 {
		p.Shards = 1
		if _, err := b.call("1-worker run", 0, func() (flowercdn.Result, error) { return flowercdn.RunFlower(p) }); err != nil {
			return result{}, err
		}
		fmt.Println("check worker invariance: 1 worker matches", workers(b.params(0)))
	}
	// A faulted workload is also run under the invariant auditor.
	if p := b.params(0); p.Faults != nil {
		p.AuditEvery = flowercdn.Minute
		b.attempted++
		res, err := flowercdn.RunFlower(p)
		if v := res.AuditViolations; err == nil && (res.AuditChecks == 0 || len(v) > 0) {
			err = fmt.Errorf("%d checks, %d violations, first %q", res.AuditChecks, len(v), v[:min(len(v), 3)])
		}
		if err != nil {
			b.failed++
			return result{}, fmt.Errorf("audit run: %w", err)
		}
		fmt.Printf("check audit: %d checks, 0 violations\n", res.AuditChecks)
	}

	return result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// traceOut is what the traced run leaves behind.
type traceOut struct {
	fold      fold
	wall      float64 // seconds of the profiled RunFlower call
	spans     *spanLog
	profile   []byte
	topologyS float64 // median span of topology.Generate
	coreS     float64 // median span of core.New
	untracedS float64 // median untraced wall of the same simulation seed
	overhead  float64
}

func (t traceOut) write(dir, stem string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := json.MarshalIndent(t.spans.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".spans.json"), spans, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".cpu.pprof"), t.profile, 0o644)
}

// tracedRun repeats simulation seed 0 under the CPU profiler, then times
// the set-up constructors from the benchmark's own spans.
func (b *bench) tracedRun(runs []timedRun) (traceOut, error) {
	var out traceOut
	out.spans = newSpanLog()
	root := out.spans.start("traced", -1)
	var prof bytes.Buffer
	runtime.GC()
	span := out.spans.start("harness.RunFlower", root)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return out, fmt.Errorf("start profile: %w", err)
	}
	start := time.Now()
	_, err := b.call("traced run", 0, func() (flowercdn.Result, error) { return flowercdn.RunFlower(b.params(0)) })
	out.wall = time.Since(start).Seconds()
	pprof.StopCPUProfile()
	out.spans.end(span)
	if err != nil {
		return out, err
	}
	out.profile = prof.Bytes()
	samples, err := parseProfile(out.profile)
	if err != nil {
		return out, err
	}
	out.fold = foldSamples(samples)
	if out.fold.totalNs == 0 {
		return out, errors.New("traced run: empty CPU profile")
	}
	var base []float64
	for _, t := range runs {
		if t.sub == 0 {
			base = append(base, t.wall)
		}
	}
	out.untracedS = median(base)
	out.overhead = out.wall/out.untracedS - 1

	topo, core, err := setupSpans(b.params(0), out.spans, root)
	if err != nil {
		return out, err
	}
	out.topologyS, out.coreS = median(topo), median(core)
	out.spans.end(root)
	fmt.Printf("traced run: wall_s=%.4f untraced_s=%.4f samples=%d profile_s=%.3f\n",
		out.wall, out.untracedS, len(samples), float64(out.fold.totalNs)/1e9)
	for _, l := range layers {
		fmt.Printf("  self %-14s %6.2f%%\n", l, 100*out.fold.selfFrac(l))
	}
	for _, e := range cumEntries {
		fmt.Printf("  cum  %-24s %6.2f%%\n", e.metric, 100*out.fold.cumFrac(e.metric))
	}
	return out, nil
}

// printFidelity sets the paper's reported values (Table 2a/b at
// T_gossip=30 min, L_gossip=10; Figs. 7 and 8) beside the simulated ones.
// It reports; it does not gate.
func printFidelity(bySub []flowercdn.Result) {
	rows := []struct {
		name  string
		paper float64
		sim   func(flowercdn.Result) float64
	}{
		{"hit ratio (Table 2a/b)", 0.86, func(r flowercdn.Result) float64 { return r.Report.HitRatio }},
		{"background bit/s per peer (Table 2b)", 74, func(r flowercdn.Result) float64 { return r.Report.BackgroundBps }},
		{"mean lookup ms (Fig. 7)", 120, func(r flowercdn.Result) float64 { return r.Report.AvgLookupMs }},
		{"lookups within 150 ms (Fig. 7)", 0.87, func(r flowercdn.Result) float64 { return flowercdn.FracWithin(r.Report.LatencyHist, 150) }},
		{"mean transfer ms (Fig. 8)", 80, func(r flowercdn.Result) float64 { return r.Report.AvgTransferMs }},
		{"transfers within 100 ms (Fig. 8)", 0.59, func(r flowercdn.Result) float64 { return flowercdn.FracWithin(r.Report.DistanceHist, 100) }},
	}
	fmt.Printf("paper fidelity (mean of %d sub-seeds)      paper  simulated   error\n", len(bySub))
	for _, r := range rows {
		sim := meanOver(bySub, r.sim)
		fmt.Printf("  %-38s %7.3f %9.3f %+7.1f%%\n", r.name, r.paper, sim, 100*(sim/r.paper-1))
	}
}
