package main

import (
	"fmt"
	"time"

	"flowercdn"
	"flowercdn/internal/core"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/topology"
)

// span is one timed call the benchmark made into a layer. Offsets are
// nanoseconds since the log was created; Parent is -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark writes them out.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) start(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name,
		StartNs: time.Since(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) { l.spans[id].EndNs = time.Since(l.t0).Nanoseconds() }

func (l *spanLog) seconds(id int) float64 {
	return float64(l.spans[id].EndNs-l.spans[id].StartNs) / 1e9
}

// setupReps is how many times the set-up constructors are timed.
const setupReps = 5

// setupSpans builds p's topology and system the way RunFlower does and
// times topology.Generate and core.New under spans, setupReps times.
func setupSpans(p flowercdn.Params, log *spanLog, parent int) (topo, sys []float64, err error) {
	in := model.NewInterner(model.MakeSites(p.Websites), p.ObjectsPerSite)
	for i := 0; i < setupReps; i++ {
		rep := log.start(fmt.Sprintf("setup#%d", i), parent)
		pools := p.BuildPools()
		id := log.start("topology.Generate", rep)
		tp, err := topology.Generate(p.TopologyConfig(pools))
		log.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("topology.Generate: %w", err)
		}
		topo = append(topo, log.seconds(id))

		ccfg := p.CoreConfig(pools)
		mcfg := metrics.Config{BucketWidth: p.BucketWidth, Horizon: p.Duration}
		deps := core.Deps{Kernel: simkernel.New(p.Seed), Topo: tp, Interner: in}
		if p.Shards > 0 {
			for c := 0; c < ccfg.TotalCells(); c++ {
				deps.Cells = append(deps.Cells, simkernel.New(p.Seed+int64(c)+1))
				deps.CellMetrics = append(deps.CellMetrics, metrics.New(mcfg))
			}
		} else {
			deps.Metrics = metrics.New(mcfg)
		}
		id = log.start("core.New", rep)
		_, err = core.New(ccfg, deps)
		log.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("core.New: %w", err)
		}
		sys = append(sys, log.seconds(id))
		log.end(rep)
	}
	return topo, sys, nil
}
