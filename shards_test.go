package flowercdn

import (
	"fmt"
	"strings"
	"testing"
)

// TestShardedWorkerInvariance pins the sharded kernel's rendezvous
// contract: a run's observable output is a pure function of (scenario,
// seed), independent of how many worker goroutines drain the locality
// cells. Every flower scenario of the equivalence fixture is run with one
// worker and with four, and the full transcripts — reports, protocol
// counters, per-shard event counts and merged traces — must match byte
// for byte.
func TestShardedWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fixture scenario twice")
	}
	churn := fixtureParams(3)
	churn.ChurnPerHour = 120
	churn.ChurnIncludesDirs = true
	churn.ChurnMeanDowntime = 10 * Minute
	churn.QueryPolicy = PolicyViewThenDirectory
	churn.ReplicationTopK = 5
	scaleUp := fixtureParams(4)
	scaleUp.MaxOverlaySize = 8
	scaleUp.ClientsPerSite = 60
	scaleUp.InstanceBits = 1
	// Fault scenarios: every fault decision must be worker-invariant too —
	// loss/jitter draws ride per-cell streams during parallel phases and the
	// coordination stream at barriers, and partitions are a static schedule.
	lossy := fixtureParams(9)
	lossy.Faults = &FaultConfig{LossProb: 0.08, JitterProb: 0.25, JitterMaxMs: 90, SpikeProb: 0.02, SpikeMs: 300}
	partitioned := FaultStormParams(10)
	// Hot-cell splits: 5 localities spread over 8 cells, so the high-worker
	// side can run more workers than localities exist.
	split := ShrunkMassiveParams(12)
	split.Shards = 1
	split.CellSplit = HotCellSplit(split, 8)
	splitLossy := ShrunkMassiveParams(13)
	splitLossy.Shards = 1
	splitLossy.CellSplit = HotCellSplit(splitLossy, 7)
	splitLossy.Faults = &FaultConfig{LossProb: 0.05, JitterProb: 0.2, JitterMaxMs: 90}
	splitLossy.MaintenancePeriod = 30 * Second
	// Gray storm with the adaptive plane armed: degrade factors, asymmetric
	// loss and flap gating must all be worker-invariant, and so must every
	// adaptive decision (estimator updates, hedge timing, breaker trips) —
	// they run in the owning host's cell context.
	gray := GrayStormParams(15)
	gray.Adaptive = true
	scenarios := []struct {
		name    string
		p       Params
		workers [2]int // 0,0 = the default 1-vs-4 comparison
	}{
		{"flower seed=1", fixtureParams(1), [2]int{}},
		{"flower seed=2", fixtureParams(2), [2]int{}},
		{"flower churn+replication seed=3", churn, [2]int{}},
		{"flower scale-up seed=4", scaleUp, [2]int{}},
		{"flower traced seed=5", fixtureParams(5), [2]int{}},
		{"flower shrunk-massive seed=6", ShrunkMassiveParams(6), [2]int{}},
		{"flower shrunk-massive-churn seed=7", WithMassiveChurn(ShrunkMassiveParams(7)), [2]int{}},
		{"flower sharded shrunk-massive seed=8", ShrunkMassiveParams(8), [2]int{}},
		{"flower loss+jitter seed=9", lossy, [2]int{}},
		{"flower partition-storm seed=10", partitioned, [2]int{}},
		{"flower dircrash seed=11", DirCrashStormParams(11), [2]int{}},
		{"flower hot-cell-split seed=12", split, [2]int{1, 8}},
		{"flower hot-cell-split lossy seed=13", splitLossy, [2]int{1, 7}},
		{"flower gray-storm adaptive seed=15", gray, [2]int{}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			render := func(shards int) string {
				p := sc.p
				p.Shards = shards
				res, buf, err := RunFlowerTraced(p, 300)
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				formatReport(&sb, sc.name, res.Report)
				formatStats(&sb, res)
				formatFaultSummary(&sb, res)
				formatGraySummary(&sb, res)
				formatStandbySummary(&sb, res)
				fmt.Fprintf(&sb, "shard_events=%v barrier_events=%d epochs=%d barriers_run=%d\n",
					res.ShardEvents, res.BarrierEvents, res.Epochs, res.BarriersRun)
				sb.WriteString("trace:\n")
				sb.WriteString(FormatTrace(buf.Events()))
				return sb.String()
			}
			lo, hi := sc.workers[0], sc.workers[1]
			if lo == 0 {
				lo, hi = 1, 4
			}
			one := render(lo)
			four := render(hi)
			if one == four {
				return
			}
			ol, fl := strings.Split(one, "\n"), strings.Split(four, "\n")
			n := len(ol)
			if len(fl) < n {
				n = len(fl)
			}
			for i := 0; i < n; i++ {
				if ol[i] != fl[i] {
					t.Fatalf("worker counts diverged at line %d:\n 1 worker: %s\n4 workers: %s", i+1, ol[i], fl[i])
				}
			}
			t.Fatalf("worker counts diverged in length: %d vs %d lines", len(ol), len(fl))
		})
	}
}
