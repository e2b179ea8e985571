package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"flowercdn/internal/core"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/squirrel"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// SystemKind names which system a result came from.
type SystemKind string

// System kinds.
const (
	KindFlower   SystemKind = "flower-cdn"
	KindSquirrel SystemKind = "squirrel"
)

// Result is one finished run.
type Result struct {
	Kind   SystemKind
	Report metrics.Report
	Stats  core.Stats // zero for Squirrel
	Params Params

	// Events counts the kernel events processed by the run (deterministic
	// per seed); WallSeconds is the wall-clock time Kernel.Run took (not
	// deterministic — excluded from the equivalence fixture). Their ratio
	// is the simulator-throughput datapoint charted against population.
	Events      uint64
	WallSeconds float64

	// Sharded-run extras (zero on the classic path). ShardEvents counts
	// events per locality cell and BarrierEvents the single-threaded
	// coordination work; both are deterministic per seed. WorkerStallNs is
	// wall-clock time each worker spent waiting at epoch barriers — the
	// load-imbalance signal, not deterministic. Index 0 is the goroutine
	// that called Run waiting for the helpers; index w ≥ 1 is helper w
	// waiting for the next epoch, barrier included. Spin and park time
	// both count as stall.
	// BarriersRun counts the epoch boundaries that actually executed the
	// barrier rendezvous (< Epochs when elision skipped provable no-ops;
	// deterministic per seed).
	ShardEvents   []uint64
	BarrierEvents uint64
	Epochs        uint64
	BarriersRun   uint64
	WorkerStallNs []int64

	// BytesPerClient is the post-run heap footprint per potential client,
	// filled only when Params.MeasureMemory is set.
	BytesPerClient float64

	// Network delivery totals: messages sent, messages lost to dead
	// receivers, and messages dropped by the fault-injection plane
	// (loss/partition). Always filled for Flower runs; FaultDrops is zero
	// when Params.Faults is nil or disabled.
	MessagesSent    uint64
	MessagesDropped uint64
	FaultDrops      uint64

	// Recovery reports, per partitioned locality, the time from partition
	// heal to the first directory-mediated P2P hit. Nil unless
	// Params.Faults carried partition windows.
	Recovery []LocalityRecovery

	// Invariant-auditor tally (Params.AuditEvery > 0): checks performed
	// across all periodic passes plus the final one, and the violations
	// found (capped; empty means the run held every invariant).
	AuditChecks     int
	AuditViolations []string

	// Adaptive gray-failure tally (Params.Adaptive; copied from the report
	// for row-level access): hedged lookups sent, hedges that beat the
	// primary, holder circuit breakers tripped.
	Hedges       int64
	HedgeWins    int64
	BreakerTrips int64
}

// LocalityRecovery is one partitioned locality's heal/recovery datapoint.
type LocalityRecovery struct {
	Locality  int
	HealAt    simkernel.Time
	RecoverMs float64 // heal → first directory-mediated P2P hit; -1 = not observed
}

// EventsPerSecond returns the simulator throughput of the run (kernel
// events per wall-clock second); 0 when the run was too fast to time.
func (r Result) EventsPerSecond() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Events) / r.WallSeconds
}

// auditAccum accumulates the periodic and final invariant-audit passes.
type auditAccum struct {
	checks     int
	violations []string
}

func (a *auditAccum) absorb(r core.AuditReport) {
	a.checks += r.Checks
	for _, v := range r.Violations {
		if len(a.violations) >= 64 {
			break
		}
		a.violations = append(a.violations, v)
	}
}

// applyFaultPlane installs the fault-injection plane and arms the periodic
// invariant auditor on a freshly built system. k must be the kernel audit
// ticks should run on — the coordination kernel on sharded runs, so they
// execute at epoch barriers while the workers are parked. Returns nil when
// no audit was requested.
func applyFaultPlane(k *simkernel.Kernel, sys *core.System, p Params) *auditAccum {
	faults := p.Faults
	if len(p.DirDegrades) > 0 {
		// Resolve the scheduled directory degradations now that the system
		// exists: only it knows which node holds each d(site, loc). The
		// caller's FaultConfig is cloned, not mutated, so a Params value can
		// drive several runs.
		fc := simnet.FaultConfig{}
		if faults != nil {
			fc = *faults
		}
		fc.NodeDegrade = append(append([]simnet.DegradeWindow{}, fc.NodeDegrade...),
			resolveDirDegrades(sys, p)...)
		faults = &fc
	}
	if faults.Enabled() {
		sys.InstallFaults(faults)
	}
	if p.AuditEvery <= 0 {
		return nil
	}
	acc := &auditAccum{}
	k.Every(p.AuditEvery, p.AuditEvery, func() { acc.absorb(sys.Audit()) })
	return acc
}

// resolveDirDegrades maps Params.DirDegrades onto the nodes currently
// holding the named directory positions (run start, before any churn).
// Validate has checked every entry's coordinates.
func resolveDirDegrades(sys *core.System, p Params) []simnet.DegradeWindow {
	sites := model.MakeSites(p.Websites)[:p.ActiveSites]
	var wins []simnet.DegradeWindow
	for _, dd := range p.DirDegrades {
		addr, ok := sys.DirectoryAddr(sites[dd.SiteIdx], dd.Locality)
		if !ok {
			continue
		}
		wins = append(wins, simnet.DegradeWindow{
			Node: addr, Start: dd.Start, End: dd.End, Factor: dd.Factor,
		})
	}
	return wins
}

// finishFaultPlane runs the end-of-run audit pass and fills the network
// delivery totals, recovery datapoints and audit tally of res.
func finishFaultPlane(res *Result, sys *core.System, acc *auditAccum) {
	net := sys.Network()
	res.MessagesSent = net.Sent()
	res.MessagesDropped = net.Dropped()
	res.FaultDrops = net.FaultDropped()
	res.Hedges = res.Report.Hedges
	res.HedgeWins = res.Report.HedgeWins
	res.BreakerTrips = res.Report.BreakerTrips
	if acc != nil {
		acc.absorb(sys.Audit())
		res.AuditChecks = acc.checks
		res.AuditViolations = acc.violations
	}
	healAt, rec := sys.RecoveryTimes()
	for loc, h := range healAt {
		if h < 0 {
			continue
		}
		lr := LocalityRecovery{Locality: loc, HealAt: h, RecoverMs: -1}
		if rec[loc] >= 0 {
			lr.RecoverMs = float64(rec[loc])
		}
		res.Recovery = append(res.Recovery, lr)
	}
	// Directory-crash datapoints ride the same Recovery rows: HealAt is the
	// crash time, RecoverMs the crash→first-local-directory-hit delay.
	crashAt, crashRec := sys.DirCrashRecoveryTimes()
	for loc, c := range crashAt {
		if c < 0 {
			continue
		}
		lr := LocalityRecovery{Locality: loc, HealAt: c, RecoverMs: -1}
		if crashRec[loc] >= 0 {
			lr.RecoverMs = float64(crashRec[loc])
		}
		res.Recovery = append(res.Recovery, lr)
	}
}

// scheduleDirCrashes arms the Params.DirCrashes schedule on the
// coordination kernel: crashes mutate the ring, so on sharded runs they
// must land at epoch barriers, exactly like churn. Validate has checked
// every entry's coordinates.
func scheduleDirCrashes(k *simkernel.Kernel, sys *core.System, p Params) {
	sites := model.MakeSites(p.Websites)[:p.ActiveSites]
	for _, dc := range p.DirCrashes {
		site, loc := sites[dc.SiteIdx], dc.Locality
		k.At(dc.At, func() { sys.CrashDirectory(site, loc) })
	}
}

// RunFlower executes a full Flower-CDN experiment.
func RunFlower(p Params) (Result, error) {
	res, _, err := RunFlowerTraced(p, 0)
	return res, err
}

// RunFlowerTraced is RunFlower with protocol tracing: up to traceCapacity
// events are retained in the returned buffer (0 disables tracing).
func RunFlowerTraced(p Params, traceCapacity int) (Result, *trace.Buffer, error) {
	if err := p.Validate(); err != nil {
		return Result{}, nil, err
	}
	gen, err := newGenerator(p, p.BuildPools(), sharedInterner(p.Websites, p.ObjectsPerSite))
	if err != nil {
		return Result{}, nil, err
	}
	return runFlower(p, gen.AsSource(), traceCapacity)
}

// RunFlowerReplay runs Flower-CDN against a recorded query trace instead
// of the synthetic generator (see workload.ParseTrace for the format). The
// trace's (site, locality, member) coordinates must fit the pools implied
// by the parameters. Everything else about the run — faults, crashes,
// churn, auditing, sharding — follows the parameters as in RunFlower.
func RunFlowerReplay(p Params, queries []workload.Query) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	pools := p.BuildPools()
	for i, q := range queries {
		if q.SiteIdx < 0 || q.SiteIdx >= len(pools) {
			return Result{}, fmt.Errorf("harness: replay record %d: site %d out of range", i, q.SiteIdx)
		}
		if q.Locality < 0 || q.Locality >= p.Localities {
			return Result{}, fmt.Errorf("harness: replay record %d: locality %d out of range", i, q.Locality)
		}
		if q.Member < 0 || q.Member >= pools[q.SiteIdx][q.Locality] {
			return Result{}, fmt.Errorf("harness: replay record %d: member %d outside pool %d",
				i, q.Member, pools[q.SiteIdx][q.Locality])
		}
		// The interned object space is fixed at ObjectsPerSite; an
		// out-of-universe object number would alias into another site's
		// dense refs.
		if q.Object.Num < 0 || q.Object.Num >= p.ObjectsPerSite {
			return Result{}, fmt.Errorf("harness: replay record %d: object %d outside universe of %d",
				i, q.Object.Num, p.ObjectsPerSite)
		}
	}
	replayer, err := workload.NewReplayer(queries)
	if err != nil {
		return Result{}, err
	}
	res, _, err := runFlower(p, replayer, 0)
	return res, err
}

// eagerBarriers turns barrier elision off on the sharded path: every epoch
// boundary then runs the full rendezvous, even one that would provably
// process zero events. Elision never changes a run's output; the tests
// set this to prove it.
var eagerBarriers bool

// runFlower builds a Flower-CDN system from validated parameters, drives
// it with the query stream src and packages the result.
//
// A classic run (Shards = 0) is the one-cell case: its one cell is the
// coordination kernel, which Kernel.Run drives. A sharded run gives every
// cell — one per locality, more under CellSplit — a private kernel,
// collector, tracer and delivery lane, and the epoch engine advances the
// cells on Shards worker goroutines, applying all cross-cell work
// single-threaded at the barriers in (epoch, srcCell, seq) order. The
// decomposition and every rendezvous are fixed by the scenario, so the
// result is a pure function of (scenario, seed) at any worker count.
func runFlower(p Params, src workload.Source, traceCapacity int) (Result, *trace.Buffer, error) {
	pools := p.BuildPools()
	global := simkernel.New(p.Seed)
	tcfg := p.TopologyConfig(pools)
	topo, err := topology.Generate(tcfg)
	if err != nil {
		return Result{}, nil, err
	}
	mcfg := metrics.Config{BucketWidth: p.BucketWidth, Horizon: p.Duration}
	ccfg := p.CoreConfig(pools)
	cells := []*simkernel.Kernel{global}
	if p.Shards > 0 {
		cells = make([]*simkernel.Kernel, ccfg.TotalCells())
		for i := range cells {
			cells[i] = simkernel.New(int64(simkernel.Mix64(uint64(p.Seed) + uint64(i) + 1)))
		}
	}
	cellMets := make([]*metrics.Collector, len(cells))
	var bufs []*trace.Buffer
	var tracers []trace.Tracer
	for i := range cells {
		cellMets[i] = metrics.New(mcfg)
		if traceCapacity > 0 {
			bufs = append(bufs, trace.NewBuffer(traceCapacity))
			tracers = append(tracers, bufs[i])
		}
	}
	// One interner serves both the system and the workload generator, and
	// is shared across campaign points: the dense object space (and its
	// precomputed keys and Bloom hash streams) is a pure function of
	// (websites, objects-per-site) and read-only after construction.
	deps := core.Deps{Kernel: global, Topo: topo, Interner: sharedInterner(p.Websites, p.ObjectsPerSite)}
	if p.Shards > 0 {
		deps.Cells, deps.CellMetrics, deps.CellTracers = cells, cellMets, tracers
	} else {
		deps.Metrics = cellMets[0]
		if tracers != nil {
			deps.Tracer = tracers[0]
		}
	}
	sys, err := core.New(ccfg, deps)
	if err != nil {
		return Result{}, nil, err
	}
	net := sys.Network()
	// The fault plane draws on per-cell streams during parallel phases and
	// the coordination stream at barriers, so it is worker-invariant. The
	// auditor, the crash schedule and churn all live on the coordination
	// kernel: on sharded runs they execute at epoch barriers, workers
	// parked, since they read or rewire state across cells.
	acc := applyFaultPlane(global, sys, p)
	scheduleDirCrashes(global, sys, p)
	dealQueries(src, p.Duration, cells, func(q workload.Query) int {
		return net.CellOf(sys.PoolNode(q.SiteIdx, q.Locality, q.Member))
	}, sys.SubmitWithID)
	if p.ChurnPerHour > 0 {
		injectChurn(global, p, func(rng *rand.Rand) {
			failed := failRandomFlowerPeer(sys, p, rng)
			if failed >= 0 && p.ChurnMeanDowntime > 0 {
				down := simkernel.Time(rng.ExpFloat64() * float64(p.ChurnMeanDowntime))
				global.After(down, func() { sys.RevivePeer(failed) })
			}
		})
	}
	var drive interface {
		Run(until simkernel.Time) uint64
	} = global
	var eng *simkernel.Engine
	if p.Shards > 0 {
		// The epoch width is the topology's latency floor: no message can
		// cross cells faster, so every cross-cell arrival imported at a
		// barrier lands strictly after it.
		width := max(simkernel.Time(tcfg.MinLatencyMs*float64(simkernel.Millisecond)), simkernel.Millisecond)
		eng = simkernel.NewEngine(cells, width, p.Shards,
			net.ExitBarrier,
			func(boundary simkernel.Time) uint64 {
				net.EnterBarrier()
				n := global.Run(boundary)
				net.ImportMail()
				return n
			},
			global.NextEvent)
		if !eagerBarriers {
			// Elide boundaries where the barrier would provably process
			// zero events (no buffered mail, no coordination event due):
			// same output, far fewer single-threaded rendezvous.
			eng.EnableBarrierElision(func() bool { return net.MailPending() > 0 })
		}
		drive = eng
	}
	start := time.Now()
	events := drive.Run(p.Duration)
	res := Result{
		Kind:        KindFlower,
		Params:      p,
		Events:      events,
		WallSeconds: time.Since(start).Seconds(),
	}
	if eng != nil {
		// An elided final boundary leaves the network in parallel mode;
		// the post-run accounting below is single-threaded.
		net.EnterBarrier()
		res.ShardEvents = append([]uint64(nil), eng.CellEvents()...)
		res.BarrierEvents = eng.BarrierEvents()
		res.Epochs = eng.Epochs()
		res.BarriersRun = eng.BarriersRun()
		res.WorkerStallNs = append([]int64(nil), eng.WorkerStallNs()...)
	}
	// Cell 0's collector absorbs the others; a one-cell run has none.
	if len(cellMets) > 1 {
		cellMets[0].MergeFrom(p.Duration, cellMets[1:]...)
	}
	res.Report = cellMets[0].Snapshot(p.Duration)
	res.Stats = sys.Stats()
	finishFaultPlane(&res, sys, acc)
	if p.MeasureMemory {
		res.BytesPerClient = bytesPerClientOf(pools)
		// The system (and through it the cells, lanes and directories) must
		// stay reachable while the heap is measured, or the forced GC
		// collects the very state being weighed.
		runtime.KeepAlive(sys)
	}
	var buf *trace.Buffer
	if traceCapacity > 0 {
		buf = trace.MergeBuffers(traceCapacity, bufs...)
	}
	return res, buf, nil
}

// RunSquirrel executes the baseline with the identical topology seed,
// pools and workload stream.
func RunSquirrel(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	pools := p.BuildPools()
	kernel := simkernel.New(p.Seed)
	topo, err := topology.Generate(p.TopologyConfig(pools))
	if err != nil {
		return Result{}, err
	}
	mets := metrics.New(metrics.Config{BucketWidth: p.BucketWidth, Horizon: p.Duration})
	sys, err := squirrel.New(p.SquirrelConfig(pools), kernel, topo, mets)
	if err != nil {
		return Result{}, err
	}
	gen, err := newGenerator(p, pools, nil)
	if err != nil {
		return Result{}, err
	}
	dealQueries(gen.AsSource(), p.Duration, []*simkernel.Kernel{kernel},
		func(workload.Query) int { return 0 },
		func(_ uint64, q workload.Query) { sys.Submit(q) })
	if p.ChurnPerHour > 0 {
		injectChurn(kernel, p, func(rng *rand.Rand) {
			failRandomSquirrelPeer(sys, p, pools, rng)
		})
	}
	start := time.Now()
	events := kernel.Run(p.Duration)
	return Result{
		Kind:        KindSquirrel,
		Report:      mets.Snapshot(p.Duration),
		Params:      p,
		Events:      events,
		WallSeconds: time.Since(start).Seconds(),
	}, nil
}

// internerCache memoises interners per (websites, objectsPerSite) shape.
// Harness sites are always MakeSites(websites), so the shape fully
// determines the interner; campaign workers share instances concurrently,
// which is safe because interners are immutable after construction.
var internerCache sync.Map // internerShape → *model.Interner

type internerShape struct{ websites, objectsPerSite int }

func sharedInterner(websites, objectsPerSite int) *model.Interner {
	shape := internerShape{websites, objectsPerSite}
	if in, ok := internerCache.Load(shape); ok {
		return in.(*model.Interner)
	}
	in, _ := internerCache.LoadOrStore(shape, model.NewInterner(model.MakeSites(websites), objectsPerSite))
	return in.(*model.Interner)
}

func newGenerator(p Params, pools [][]int, in *model.Interner) (*workload.Generator, error) {
	return workload.New(workload.Config{
		Seed:           p.Seed + 1,
		Sites:          model.MakeSites(p.Websites)[:p.ActiveSites],
		ObjectsPerSite: p.ObjectsPerSite,
		ZipfAlpha:      p.ZipfAlpha,
		QueryRate:      p.QueryRate,
		Poisson:        p.Poisson,
		PoolSizes:      pools,
		Interner:       in,
	})
}

// dealQueries reads src once and deals each query, numbered by its
// position in the stream, to the queue of the cell its origin lives in
// (cellOf). Every cell pumps its own queue on its own kernel — firing a
// query schedules the cell's next one — so the event queues never hold
// the whole day. The stream ends at its first query past until.
func dealQueries(src workload.Source, until simkernel.Time, cells []*simkernel.Kernel,
	cellOf func(workload.Query) int, submit func(id uint64, q workload.Query)) {
	d := &dealer{src: src, until: until, cells: cells, cellOf: cellOf, submit: submit,
		queues: make([]queryQueue, len(cells))}
	d.fireFn = d.fire
	for c := range cells {
		d.scheduleNext(c)
	}
}

// dealer is the state behind dealQueries. The cells of a sharded run pump
// concurrently and whichever cell reads the stream deals for all, so mu
// guards the stream and the queues; a cell's queue still holds its
// queries in stream order, whoever dealt them. mu is held across
// src.Next and cellOf because the stream is what it guards; neither
// calls back into the dealer.
type dealer struct {
	mu     sync.Mutex
	src    workload.Source
	until  simkernel.Time
	read   uint64 // stream position of the last query read
	done   bool   // the stream is exhausted or past until
	queues []queryQueue
	cells  []*simkernel.Kernel
	cellOf func(workload.Query) int
	submit func(id uint64, q workload.Query)
	fireFn func(uint64) // d.fire, bound once: scheduling builds no closure
}

type dealtQuery struct {
	id uint64
	q  workload.Query
}

// scheduleNext deals from the stream until cell c has a query queued, and
// schedules that query on c's kernel.
func (d *dealer) scheduleNext(c int) {
	d.mu.Lock()
	for d.queues[c].empty() && !d.done {
		q, ok := d.src.Next()
		if !ok || q.At > d.until {
			d.done = true
			break
		}
		d.read++
		d.queues[d.cellOf(q)].push(dealtQuery{id: d.read, q: q})
	}
	queued := !d.queues[c].empty()
	var at simkernel.Time
	if queued {
		at = d.queues[c].items[d.queues[c].head].q.At
	}
	d.mu.Unlock()
	if queued {
		d.cells[c].AtArg(at, d.fireFn, uint64(c))
	}
}

// fire submits the head of cell arg's queue and schedules the cell's next
// query.
func (d *dealer) fire(arg uint64) {
	c := int(arg)
	d.mu.Lock()
	next := d.queues[c].pop()
	d.mu.Unlock()
	d.submit(next.id, next.q)
	d.scheduleNext(c)
}

// queryQueue is a FIFO that reuses its buffer: it rewinds when drained,
// and compacts instead of growing while a consumed prefix is still held.
type queryQueue struct {
	items []dealtQuery
	head  int
}

func (qq *queryQueue) empty() bool { return qq.head == len(qq.items) }

func (qq *queryQueue) push(d dealtQuery) {
	if qq.head > 0 && len(qq.items) == cap(qq.items) {
		n := copy(qq.items, qq.items[qq.head:])
		qq.items, qq.head = qq.items[:n], 0
	}
	qq.items = append(qq.items, d)
}

func (qq *queryQueue) pop() dealtQuery {
	d := qq.items[qq.head]
	qq.head++
	if qq.empty() {
		qq.items, qq.head = qq.items[:0], 0
	}
	return d
}

// injectChurn schedules peer failures as a Poisson process with rate
// ChurnPerHour.
func injectChurn(k *simkernel.Kernel, p Params, failOne func(*rand.Rand)) {
	rng := k.DeriveRNG("churn")
	meanGapMs := float64(simkernel.Hour) / p.ChurnPerHour
	var schedule func()
	schedule = func() {
		gap := simkernel.Time(rng.ExpFloat64() * meanGapMs)
		if gap < simkernel.Second {
			gap = simkernel.Second
		}
		k.After(gap, func() {
			failOne(rng)
			schedule()
		})
	}
	schedule()
}

// failRandomFlowerPeer crashes one peer and returns its address, or -1
// when a directory (not revivable) or nothing was failed.
func failRandomFlowerPeer(sys *core.System, p Params, rng *rand.Rand) simnet.NodeID {
	cfg := sys.Config()
	// Directory peers are a small fraction of the population; when churn
	// includes them, hit one occasionally (~10% of failures) so §5.2's
	// replacement path is actually exercised.
	if p.ChurnIncludesDirs && rng.Float64() < 0.10 {
		sites := model.MakeSites(p.Websites)[:p.ActiveSites]
		site := sites[rng.Intn(len(sites))]
		loc := rng.Intn(p.Localities)
		if sys.FailDirectory(site, loc) {
			return -1
		}
	}
	// Otherwise pick a joined content peer at random (bounded draws).
	for try := 0; try < 32; try++ {
		si := rng.Intn(cfg.ActiveSites)
		loc := rng.Intn(cfg.Localities)
		size := sys.PoolSize(si, loc)
		if size == 0 {
			continue
		}
		addr := sys.PoolNode(si, loc, rng.Intn(size))
		if !sys.Joined(addr) || !sys.Network().Alive(addr) {
			continue
		}
		sys.FailPeer(addr)
		return addr
	}
	return -1
}

func failRandomSquirrelPeer(sys *squirrel.System, p Params, pools [][]int, rng *rand.Rand) {
	for try := 0; try < 32; try++ {
		si := rng.Intn(len(pools))
		loc := rng.Intn(p.Localities)
		if pools[si][loc] == 0 {
			continue
		}
		addr := sys.PoolNode(si, loc, rng.Intn(pools[si][loc]))
		if !sys.Network().Alive(addr) {
			continue
		}
		sys.FailPeer(addr)
		return
	}
}

// TrafficBytes extracts one category's byte count from a report.
func TrafficBytes(r metrics.Report, cat simnet.Category) int64 {
	for _, ts := range r.Traffic {
		if ts.Category == cat {
			return ts.Bytes
		}
	}
	return 0
}

// Describe renders a one-line result summary.
func (r Result) Describe() string {
	return fmt.Sprintf("%s: %s", r.Kind, r.Report.String())
}

// bytesPerClientOf reports the post-run heap footprint per potential
// client. It forces a collection first, so it is only computed when
// Params.MeasureMemory asks for it — never on benchmark paths.
func bytesPerClientOf(pools [][]int) float64 {
	total := 0
	for _, row := range pools {
		for _, n := range row {
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(total)
}
