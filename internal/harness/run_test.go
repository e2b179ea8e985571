package harness

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// transcript renders every deterministic output of a Flower run — report,
// protocol counters, delivery and fault tallies, audit, recovery rows,
// the sharded engine's event split and the trace — for byte comparisons.
// Wall-clock fields and BarriersRun (which elision changes) are left out.
func transcript(res Result, buf *trace.Buffer) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "report %+v\nstats %+v\n", res.Report, res.Stats)
	fmt.Fprintf(&sb, "net sent=%d dropped=%d fault_drops=%d\n",
		res.MessagesSent, res.MessagesDropped, res.FaultDrops)
	fmt.Fprintf(&sb, "audit checks=%d violations=%q\nrecovery %+v\n",
		res.AuditChecks, res.AuditViolations, res.Recovery)
	fmt.Fprintf(&sb, "events=%d shard_events=%v barrier_events=%d epochs=%d\n",
		res.Events, res.ShardEvents, res.BarrierEvents, res.Epochs)
	if buf != nil {
		sb.WriteString(trace.Format(buf.Events()))
	}
	return sb.String()
}

// sameTranscript fails the test at the first line where a and b differ.
func sameTranscript(t *testing.T, what string, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			t.Fatalf("%s diverged at line %d:\n%s\nvs\n%s", what, i+1, al[i], bl[i])
		}
	}
	t.Fatalf("%s diverged in length: %d vs %d lines", what, len(al), len(bl))
}

// withEagerBarriers runs fn with barrier elision switched off.
func withEagerBarriers(fn func()) {
	eagerBarriers = true
	defer func() { eagerBarriers = false }()
	fn()
}

// TestBarrierElisionEquivalence pins the elision contract at protocol
// scale: the fault-storm and dircrash-storm scenarios, run sharded with
// elision (the default) and with eager barriers, must produce
// byte-identical transcripts — a skipped barrier would have processed
// zero events, so only BarriersRun may differ, and the elided run must
// actually have skipped some boundaries.
func TestBarrierElisionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two storm scenarios twice")
	}
	storm := FaultStormParams(21)
	storm.Shards = 2
	crash := DirCrashStormParams(22)
	crash.Shards = 2
	for _, sc := range []struct {
		name string
		p    Params
	}{
		{"fault-storm", storm},
		{"dircrash-storm", crash},
	} {
		t.Run(sc.name, func(t *testing.T) {
			render := func() (string, Result) {
				res, buf, err := RunFlowerTraced(sc.p, 300)
				if err != nil {
					t.Fatal(err)
				}
				return transcript(res, buf), res
			}
			elided, eres := render()
			var eager string
			var gres Result
			withEagerBarriers(func() { eager, gres = render() })
			sameTranscript(t, "elided vs eager", elided, eager)
			if gres.BarriersRun != gres.Epochs {
				t.Fatalf("eager run elided barriers: %d run over %d epochs", gres.BarriersRun, gres.Epochs)
			}
			if eres.BarriersRun >= eres.Epochs {
				t.Fatalf("elision skipped nothing: %d run over %d epochs", eres.BarriersRun, eres.Epochs)
			}
		})
	}
}

// TestEagerBarriersWorkerInvariance is the eager-barrier scenario of the
// worker-invariance matrix: with elision off, the shrunk massive preset
// must still produce the same transcript on one worker and on four.
func TestEagerBarriersWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the shrunk massive preset twice")
	}
	render := func(shards int) string {
		p := ShrunkMassiveParams(14)
		p.Shards = shards
		res, buf, err := RunFlowerTraced(p, 300)
		if err != nil {
			t.Fatal(err)
		}
		return transcript(res, buf) + fmt.Sprintf("barriers_run=%d\n", res.BarriersRun)
	}
	var one, four string
	withEagerBarriers(func() { one, four = render(1), render(4) })
	sameTranscript(t, "1 vs 4 workers", one, four)
}

// streamOf collects the generator's own query stream for p, up to the run
// duration.
func streamOf(t *testing.T, p Params) []workload.Query {
	t.Helper()
	gen, err := newGenerator(p, p.BuildPools(), sharedInterner(p.Websites, p.ObjectsPerSite))
	if err != nil {
		t.Fatal(err)
	}
	var qs []workload.Query
	for q := gen.Next(); q.At <= p.Duration; q = gen.Next() {
		qs = append(qs, q)
	}
	return qs
}

// TestReplayMatchesGenerator replays the generator's own stream for the
// fault storm and requires the run to match the generated run byte for
// byte, classic and sharded: replay honours faults, the auditor, recovery
// probes and Shards exactly like RunFlower.
func TestReplayMatchesGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fault storm four times")
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p := FaultStormParams(23)
			p.Shards = shards
			gres, _, err := RunFlowerTraced(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			rres, err := RunFlowerReplay(p, streamOf(t, p))
			if err != nil {
				t.Fatal(err)
			}
			if rres.FaultDrops == 0 || rres.AuditChecks == 0 || len(rres.Recovery) == 0 {
				t.Fatalf("replay skipped the fault plane: drops=%d audits=%d recovery=%v",
					rres.FaultDrops, rres.AuditChecks, rres.Recovery)
			}
			sameTranscript(t, "generated vs replayed", transcript(gres, nil), transcript(rres, nil))
		})
	}
}

// TestValidateDirPositions rejects scheduled crashes and degradations of
// directory positions the scenario does not have.
func TestValidateDirPositions(t *testing.T) {
	base := fastParams(24) // 2 active sites × 3 localities
	cases := []struct {
		name    string
		crash   []DirCrash
		degrade []DirDegrade
		ok      bool
	}{
		{"valid", []DirCrash{{SiteIdx: 1, Locality: 2}}, []DirDegrade{{SiteIdx: 0, Locality: 0, Factor: 2}}, true},
		{"crash site negative", []DirCrash{{SiteIdx: -1}}, nil, false},
		{"crash site inactive", []DirCrash{{SiteIdx: 2}}, nil, false},
		{"crash locality negative", []DirCrash{{Locality: -1}}, nil, false},
		{"crash locality past end", []DirCrash{{Locality: 3}}, nil, false},
		{"degrade site negative", nil, []DirDegrade{{SiteIdx: -1}}, false},
		{"degrade site inactive", nil, []DirDegrade{{SiteIdx: 2}}, false},
		{"degrade locality negative", nil, []DirDegrade{{Locality: -1}}, false},
		{"degrade locality past end", nil, []DirDegrade{{Locality: 3}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := base
			p.DirCrashes, p.DirDegrades = c.crash, c.degrade
			if err := p.Validate(); (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

// countingSource counts the Next calls made on a stream.
type countingSource struct {
	src   workload.Source
	calls int
}

func (c *countingSource) Next() (workload.Query, bool) {
	c.calls++
	return c.src.Next()
}

// TestDealQueries pins the query dealer: every cell's pump submits exactly
// the queries whose origin lives in that cell, in stream order, numbered
// by their global stream position — and the stream is read once in
// total, not once per cell.
func TestDealQueries(t *testing.T) {
	const cells, n = 5, 200
	until := simkernel.Time(n)
	sites := model.MakeSites(1)
	var stream []workload.Query
	for i := 0; i < n+3; i++ { // the last three fall past until
		stream = append(stream, workload.Query{
			At: simkernel.Time(i), Site: sites[0], Locality: (i * 7 / 3) % cells, Member: i,
		})
	}
	rep, err := workload.NewReplayer(stream)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{src: rep}
	kernels := make([]*simkernel.Kernel, cells)
	for c := range kernels {
		kernels[c] = simkernel.New(int64(c))
	}
	type submission struct {
		id     uint64
		member int
	}
	got := make([][]submission, cells)
	cellOf := func(q workload.Query) int { return q.Locality }
	dealQueries(src, until, kernels, cellOf, func(id uint64, q workload.Query) {
		got[cellOf(q)] = append(got[cellOf(q)], submission{id, q.Member})
	})
	// The cells drain concurrently, as on the epoch engine's workers, and
	// whichever cell reads the stream deals for all: got[c] is written
	// only by cell c's own submissions.
	var wg sync.WaitGroup
	for _, k := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.Run(until)
		}()
	}
	wg.Wait()
	want := make([][]submission, cells)
	for i, q := range stream {
		if q.At > until {
			break
		}
		want[cellOf(q)] = append(want[cellOf(q)], submission{uint64(i + 1), q.Member})
	}
	for c := range want {
		if !reflect.DeepEqual(got[c], want[c]) {
			t.Fatalf("cell %d submitted %v, want %v", c, got[c], want[c])
		}
	}
	if reads := int(until) + 2; src.calls != reads {
		t.Fatalf("stream read %d times, want %d (one pass up to the first query past until)", src.calls, reads)
	}
}
