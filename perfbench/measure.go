package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/vswitch"
)

// measurement is one run's outcome.
type measurement struct {
	attempted, failed, refused, violations uint64
	endToEnd, perLayer                     map[string]metric
}

// A run drives the workload's trials on fresh deployments one after the
// other and sets up setupOnly more that carry no traffic. The program's
// throughput settles into a different level on each deployment (goroutine
// placement on the host's cores), so a run measures several deployments
// and reports the median over them of every metric.
const setupOnly = 6

// setupLog collects the set-up timings of every deployment of a run.
type setupLog struct{ total, start, deploy, populate []float64 }

func (l *setupLog) add(r *rig, d time.Duration) {
	l.total = append(l.total, d.Seconds())
	l.start = append(l.start, ms(r.startDur))
	l.deploy = append(l.deploy, ms(r.deployDur))
	l.populate = append(l.populate, ms(r.populateDur))
}

// measure runs the workload: set-ups, then trials each with warm-up,
// closed phase, open phase and final drain. Each trial's latency quantiles
// are exact over every frame it delivered. With trace the last trial also
// reads the layer counters around a traced closed window, and the workload
// is then replayed through each layer's public functions.
func measure(w *workload, seed uint64, closedDur, openDur time.Duration, trace bool) (*measurement, error) {
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }

	var setup setupLog
	for i := 0; i < setupOnly; i++ {
		r, _, d, err := setUp(w, seed, clock)
		if err != nil {
			return nil, err
		}
		setup.add(r, d)
		r.stop()
	}

	// Sample stores, refilled by each trial: the closed phase delivers at
	// most a few Mpps on the hosts this runs on; 16 M/s leaves an order of
	// magnitude of room.
	closedLat, err := newSamples(int(closedDur.Seconds()/float64(w.trials)*16e6) + 1<<20)
	if err != nil {
		return nil, err
	}
	defer closedLat.free()
	openLat, err := newSamples(int(openDur.Seconds()/float64(w.trials)*w.lightPps*2) + 1<<20)
	if err != nil {
		return nil, err
	}
	defer openLat.free()
	late, err := newSamples(int(openDur.Seconds()/float64(w.trials)*w.lightPps) + 1<<20)
	if err != nil {
		return nil, err
	}
	defer late.free()

	m := &measurement{}
	var mpps, p50, p99, light50, heapMB []float64
	var nClosed, nOpen, nLate int
	var last *trial
	n := time.Duration(w.trials)
	for i := 0; i < w.trials; i++ {
		r, e, d, err := setUp(w, seed, clock)
		if err != nil {
			return nil, err
		}
		setup.add(r, d)
		t := runTrial(w, r, e, closedDur/n, openDur/n, trace && i == w.trials-1, closedLat, openLat, late)
		r.stop()
		m.attempted += t.attempted
		m.failed += t.failed
		m.refused += t.refused
		m.violations += t.violations
		if closedLat.overflow+openLat.overflow > 0 {
			return nil, fmt.Errorf("sample store full: %d closed, %d open samples dropped", closedLat.overflow, openLat.overflow)
		}
		q, lq, gl := closedLat.quantiles(0.5, 0.99), openLat.quantiles(0.5, 0.99), late.quantiles(0.99)
		fmt.Printf("trial %d: %.4f Mpps; closed p50 %.2f us, p99 %.2f us over %d frames; open p50 %.2f us, light_p99_us %.2f over %d frames; gen.late_p99_us %.2f over %d batches\n",
			i, t.mpps, us(q[0]), us(q[1]), closedLat.count(), us(lq[0]), us(lq[1]), openLat.count(), us(gl[0]), late.count())
		mpps = append(mpps, t.mpps)
		p50, p99, light50 = append(p50, us(q[0])), append(p99, us(q[1])), append(light50, us(lq[0]))
		heapMB = append(heapMB, t.heapMB)
		nClosed, nOpen, nLate = nClosed+closedLat.count(), nOpen+openLat.count(), nLate+late.count()
		closedLat.reset()
		openLat.reset()
		late.reset()
		last = t
	}
	fmt.Printf("latency: median of %d trials, each an exact nearest-rank quantile over its frames; %d closed-phase and %d open-phase frames in all (%d generator batches)\n",
		w.trials, nClosed, nOpen, nLate)
	fmt.Printf("setup: %d set-ups, median %.4f s (start %.2f ms, deploy %.2f ms, populate %.2f ms)\n",
		len(setup.total), median(setup.total), median(setup.start), median(setup.deploy), median(setup.populate))

	// lat_p99_us is printed but not a bounded metric: from run to run on a
	// shared 2-core host it spread wider (0.28 of its median on
	// stateful-churn) than the largest bound a metric may have.
	fmt.Printf("lat_p99_us = %.6g us (diagnostic, median of %d trials)\n", median(p99), w.trials)
	m.endToEnd = map[string]metric{
		"mpps":         {median(mpps), "Mpps"},
		"lat_p50_us":   {median(p50), "us"},
		"light_p50_us": {median(light50), "us"},
		"setup_s":      {median(setup.total), "s"},
		"heap_mb":      {median(heapMB), "MB"},
	}
	if !trace {
		return m, nil
	}
	pl := layerMetrics(last.window, last.gauges)
	pl["core.bypass_setup_ms"] = metric{last.bypassMs, "ms"}
	pl["orchestrator.start_ms"] = metric{median(setup.start), "ms"}
	pl["orchestrator.deploy_ms"] = metric{median(setup.deploy), "ms"}
	pl["bench.populate_ms"] = metric{median(setup.populate), "ms"}
	pl["trace.overhead_frac"] = metric{1 - frac(last.mpps, last.mppsUntraced), "frac"}
	fmt.Printf("tracing overhead: traced half %.4f Mpps vs untraced half %.4f Mpps of the last trial\n", last.mpps, last.mppsUntraced)
	spans, err := replayLayers(w, seed, pl)
	if err != nil {
		return nil, err
	}
	path, err := spans.writeFile(w.name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans.spans), path)
	m.perLayer = pl
	return m, nil
}

// trial is the outcome of driving one deployment.
type trial struct {
	attempted, failed, refused, violations uint64

	mpps, heapMB float64

	// Traced trials only.
	mppsUntraced float64 // the untraced first half of the closed phase
	window       snapshot
	gauges       *gauges
	bypassMs     float64
}

// runTrial drives one ready deployment: warm-up, closed phase, open phase
// at the workload's light rate, final drain. Latencies go to closedLat and
// openLat, the generator's lateness to late. A traced trial splits its
// closed phase: the first half untraced, the second half with every gauge
// sampled and the counters read at its boundaries, so the two halves' Mpps
// give the tracing overhead.
func runTrial(w *workload, r *rig, e *engine, closedDur, openDur time.Duration, traced bool, closedLat, openLat, late *samples) *trial {
	g := newGauges(r)
	e.sample = g.sample
	res := &trial{gauges: g}

	e.closed(e.clock()+int64(w.warmUp), w.window)

	e.lat = closedLat
	t := e.clock()
	end := t + int64(closedDur)
	d0 := e.delivered
	var before snapshot
	if traced {
		e.closed(t+int64(closedDur/2), w.window)
		now := e.clock()
		res.mppsUntraced = float64(e.delivered-d0) / float64(now-t) * 1e3
		g.tracing = true
		t, d0 = now, e.delivered
		before = takeSnapshot(r, t)
	}
	e.closed(end, w.window)
	now := e.clock()
	res.mpps = float64(e.delivered-d0) / float64(now-t) * 1e3
	if traced {
		res.window = before.delta(takeSnapshot(r, now))
		g.tracing = false
	}
	e.settle(100 * time.Millisecond)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.heapMB = float64(mem.HeapInuse) / (1 << 20)

	e.lat, e.late = openLat, late
	t = e.clock()
	e.open(t, t+int64(openDur), w.lightPps, w.window)
	e.settle(time.Second)
	e.lat, e.late = nil, nil

	res.attempted, res.refused, res.violations = e.attempted, e.refused, e.violations
	// Stateful invariants that are not tied to one frame: every ACL admit
	// must have been tracked, and the NAT port block must never run dry.
	if r.acl != nil {
		if full := r.acl.TableFull.Load(); full > 0 {
			fmt.Printf("violation: ACL TableFull = %d\n", full)
			res.violations += full
		}
	}
	if r.nat != nil && g.portsMin == 0 {
		fmt.Println("violation: NAT PortsFree reached 0")
		res.violations++
	}
	res.failed = e.failed() + (res.violations - e.violations)
	res.bypassMs = r.bypassSetupMs()
	return res
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(ns uint32) float64 { return float64(ns) / 1e3 }

// gauges watches the levels that counters cannot show: the NAT's free
// ports always (an invariant of stateful-churn), and in a traced window
// the pools, trunk backlogs and connection tables.
type gauges struct {
	r       *rig
	tables  []*conntrack.Table
	tracing bool

	portsMin   int
	poolMin    int
	backlogMax int
	liveMax    int
}

func newGauges(r *rig) *gauges {
	g := &gauges{r: r, portsMin: math.MaxInt, poolMin: math.MaxInt}
	for _, sw := range r.switches {
		g.tables = append(g.tables, sw.ConntrackTables()...)
	}
	return g
}

func (g *gauges) sample() {
	if g.r.nat != nil {
		g.portsMin = min(g.portsMin, g.r.nat.PortsFree())
	}
	if !g.tracing {
		return
	}
	for _, p := range g.r.pools {
		g.poolMin = min(g.poolMin, p.Avail())
	}
	backlog := 0
	for _, t := range g.r.trunks {
		backlog += t.Backlog()
	}
	g.backlogMax = max(g.backlogMax, backlog)
	live := 0
	for _, t := range g.tables {
		live += t.Live()
	}
	g.liveMax = max(g.liveMax, live)
}

// snapshot is every layer counter the per-layer metrics read, summed over
// the deployment's nodes, at one instant.
type snapshot struct {
	at           int64
	dp           vswitch.DatapathStats // tier counters; PMD and queue loads summed into busy/total/frames/batches
	busy, total  uint64
	frames, bats uint64

	bypassTx      uint64 // frames VMs sent over bypass links
	normalFromVM  uint64 // frames VMs sent over the normal channel
	hostTxDropped uint64 // frames the switch could not hand to a VM ring
	appTxDrops    uint64 // frames VMs could not transmit
	nicTxDropped  uint64

	trunkCarried, trunkDropped, trunkUnrouted uint64

	aclWalked, aclEst, aclFull uint64
}

func takeSnapshot(r *rig, at int64) snapshot {
	s := snapshot{at: at}
	for _, sw := range r.switches {
		d := sw.DatapathStats()
		s.dp.EMC.Hits += d.EMC.Hits
		s.dp.EMC.Misses += d.EMC.Misses
		s.dp.SMC.Hits += d.SMC.Hits
		s.dp.SMC.Misses += d.SMC.Misses
		s.dp.ClassifierHits += d.ClassifierHits
		s.dp.ClassifierMisses += d.ClassifierMisses
		s.dp.DedupHits += d.DedupHits
		s.dp.ParseErrors += d.ParseErrors
		s.dp.Conntrack.Add(d.Conntrack)
		for _, p := range d.PMDs {
			s.busy += p.BusyNanos
			s.total += p.TotalNanos
		}
		for _, q := range d.Queues {
			s.frames += q.Frames
			s.bats += q.Batches
		}
		for _, l := range sw.BypassLinks() {
			s.bypassTx += l.Stats.TxPackets.Load()
		}
		for _, p := range sw.Ports() {
			if dp, ok := p.(*dpdkr.Port); ok {
				s.normalFromVM += dp.Counters.RxPackets.Load()
				s.hostTxDropped += dp.Counters.TxDropped.Load()
			}
		}
	}
	for _, a := range r.apps {
		s.appTxDrops += a.TxDrops.Load()
	}
	for _, n := range r.nics {
		s.nicTxDropped += n.PortCounters().TxDropped.Load()
	}
	for _, t := range r.trunks {
		ab, ba := t.Stats()
		s.trunkCarried += ab.Carried + ba.Carried
		s.trunkDropped += ab.Dropped + ba.Dropped
		s.trunkUnrouted += t.Unrouted()
	}
	if r.acl != nil {
		s.aclWalked = r.acl.Walked.Load()
		s.aclEst = r.acl.Established.Load()
		s.aclFull = r.acl.TableFull.Load()
	}
	return s
}

// delta is the counter movement from s to later; the conntrack Live gauge
// is taken from later.
func (s snapshot) delta(later snapshot) snapshot {
	d := later
	d.at = later.at - s.at
	d.dp.EMC = later.dp.EMC.Delta(s.dp.EMC)
	d.dp.SMC = later.dp.SMC.Delta(s.dp.SMC)
	d.dp.ClassifierHits -= s.dp.ClassifierHits
	d.dp.ClassifierMisses -= s.dp.ClassifierMisses
	d.dp.DedupHits -= s.dp.DedupHits
	d.dp.ParseErrors -= s.dp.ParseErrors
	d.dp.Conntrack = later.dp.Conntrack.Delta(s.dp.Conntrack)
	d.busy -= s.busy
	d.total -= s.total
	d.frames -= s.frames
	d.bats -= s.bats
	d.bypassTx -= s.bypassTx
	d.normalFromVM -= s.normalFromVM
	d.hostTxDropped -= s.hostTxDropped
	d.appTxDrops -= s.appTxDrops
	d.nicTxDropped -= s.nicTxDropped
	d.trunkCarried -= s.trunkCarried
	d.trunkDropped -= s.trunkDropped
	d.trunkUnrouted -= s.trunkUnrouted
	d.aclWalked -= s.aclWalked
	d.aclEst -= s.aclEst
	return d
}

// layerMetrics turns a traced window's counter movement and the gauges into
// the per-layer metrics read from live counters.
func layerMetrics(d snapshot, g *gauges) map[string]metric {
	secs := float64(d.at) / 1e9
	lookups := float64(d.dp.EMC.Hits + d.dp.EMC.Misses)
	ct := d.dp.Conntrack
	f := func(v uint64) float64 { return float64(v) }
	m := map[string]metric{
		"vswitch.busy_frac":       {frac(f(d.busy), f(d.total)), "frac"},
		"vswitch.busy_ns_per_pkt": {frac(f(d.busy), f(d.frames)), "ns"},
		"vswitch.pkts_per_batch":  {frac(f(d.frames), f(d.bats)), "count"},
		"vswitch.parse_errors":    {f(d.dp.ParseErrors), "count"},
		"flow.emc_hit_frac":       {frac(f(d.dp.EMC.Hits), lookups), "frac"},
		"flow.smc_hit_frac":       {frac(f(d.dp.SMC.Hits), lookups), "frac"},
		"flow.dedup_frac":         {frac(f(d.dp.DedupHits), lookups), "frac"},
		"flow.cls_frac":           {frac(f(d.dp.ClassifierHits+d.dp.ClassifierMisses), lookups), "frac"},
		"conntrack.hit_frac":      {frac(f(ct.Hits), f(ct.Hits+ct.Misses)), "frac"},
		"conntrack.inserts_per_s": {frac(f(ct.Inserts), secs), "1/s"},
		"conntrack.removes_per_s": {frac(f(ct.Removes), secs), "1/s"},
		"conntrack.expired_per_s": {frac(f(ct.Expired), secs), "1/s"},
		"conntrack.live_max":      {f(uint64(g.liveMax)), "count"},
		"vnf.acl_walked_frac":     {frac(f(d.aclWalked), f(d.aclWalked+d.aclEst)), "frac"},
		"vnf.acl_table_full":      {f(d.aclFull), "count"},
		"vnf.nat_ports_free_min":  {0, "count"},
		"dpdkr.bypass_frac":       {frac(f(d.bypassTx), f(d.bypassTx+d.normalFromVM)), "frac"},
		"dpdkr.rx_dropped":        {f(d.hostTxDropped), "count"},
		"dpdkr.tx_dropped":        {f(d.appTxDrops), "count"},
		"nic.tx_dropped":          {f(d.nicTxDropped), "count"},
		"mempool.avail_min":       {f(uint64(g.poolMin)), "count"},
		"trunk.carried_pps":       {frac(f(d.trunkCarried), secs), "1/s"},
		"trunk.dropped":           {f(d.trunkDropped), "count"},
		"trunk.unrouted":          {f(d.trunkUnrouted), "count"},
		"trunk.backlog_max":       {f(uint64(g.backlogMax)), "count"},
	}
	if g.r.nat != nil {
		m["vnf.nat_ports_free_min"] = metric{f(uint64(g.portsMin)), "count"}
	}
	return m
}
