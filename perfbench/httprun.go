package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cascade/internal/span"
)

// opsPerPhase is the length of each phase's generated request stream; a
// phase that outruns it wraps around.
const opsPerPhase = 1 << 18

// setupChain builds the workload's chain and warms its caches to steady
// state with the seed's warm-up stream. The warm-up is verified like any
// other phase and its counts go into rep.
func setupChain(w *workload, cfg config, tr *tracer, k int, rep *report) (*chain, error) {
	cat := newCatalog(w)
	dir := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), k))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	c, err := buildChain(w, cat, tr, dir)
	if err != nil {
		return nil, err
	}
	ops := genOps(cfg.seed, streamWarm, 0, w.warm, w.mix)
	st := closedLoop(workers(), 0, int64(len(ops)), ops, 0, c.do)
	rep.count(st.n, st.failed)
	return c, nil
}

// phaseDur is share of the run's measured seconds.
func phaseDur(cfg config, share float64) time.Duration {
	return time.Duration(cfg.seconds * share * float64(time.Second))
}

func runHTTP(w *workload, cfg config, rep *report) error {
	if cfg.trace {
		return runHTTPTraced(w, cfg, rep)
	}
	// Set-up runs three times; setup_s is the median and the last chain is
	// the one measured.
	var setups []float64
	var c *chain
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		cc, err := setupChain(w, cfg, nil, k, rep)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < 2 {
			cc.close()
			continue
		}
		c = cc
	}
	defer c.close()
	rep.set("setup_s", median(setups))

	// One stream: the open loop continues where the closed loop stopped.
	ops := genOps(cfg.seed, streamMeasure, w.warm, opsPerPhase, w.mix)

	// Each phase is measured in windows; a metric is the median over the
	// half of the windows in which the hypervisor stole the least CPU time,
	// so a neighbour's burst on the shared host does not move the run.
	k0, err := c.scrape()
	if err != nil {
		return err
	}
	var cl, ol loopStats
	var tput, good, alloc, p50s, p90s, cpu, closedSteal []float64
	var op50s, op90s, op99s, openSteal []float64
	nw := windows(phaseDur(cfg, 0.6), time.Second)
	for k := 0; k < nw; k++ {
		d0, p0 := c.delivered.Load(), takeSnap()
		st := closedLoop(workers(), phaseDur(cfg, 0.6)/time.Duration(nw), 0, ops, cl.n, c.do)
		d := deltaOf(p0, takeSnap())
		secs := st.elapsed.Seconds()
		tput = append(tput, float64(st.n)/secs)
		good = append(good, float64(c.delivered.Load()-d0)/mib/secs)
		alloc = append(alloc, float64(d.alloc)/float64(st.n))
		lat := sortedCopy(st.lat)
		p50, _ := quantile(lat, 0.50)
		p90, _ := quantile(lat, 0.90)
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		closedSteal = append(closedSteal, d.steal)
		cl.add(st)
	}
	// Open-loop windows hold at least 1200 requests: ten or more beyond
	// the p99 of each.
	nw = windows(phaseDur(cfg, 0.4), max(500*time.Millisecond, time.Duration(1200/w.rate*float64(time.Second))))
	for k := 0; k < nw; k++ {
		p0 := takeSnap()
		st := openLoop(workers(), w.rate, phaseDur(cfg, 0.4)/time.Duration(nw), ops, cl.n+ol.n, c.do)
		d := deltaOf(p0, takeSnap())
		lat := sortedCopy(st.lat)
		p50, _ := quantile(lat, 0.50)
		p90, _ := quantile(lat, 0.90)
		p99, _ := quantile(lat, 0.99)
		op50s, op90s, op99s = append(op50s, p50), append(op90s, p90), append(op99s, p99)
		cpu = append(cpu, float64(d.cpu.Microseconds())/float64(st.n))
		openSteal = append(openSteal, d.steal)
		ol.add(st)
	}
	k2, err := c.scrape()
	if err != nil {
		return err
	}
	rep.count(cl.n+ol.n, cl.failed+ol.failed)
	// Corrupt disk reads and malformed protocol headers are failures too.
	rep.count(0, int64(k2.badHeader)+k2.corrupt)

	secs := cl.elapsed.Seconds()
	fmt.Printf("   closed windows: throughput %.0f\n                   p50 %.0f\n                   p90 %.0f\n                   steal %.3f\n",
		tput, p50s, p90s, closedSteal)
	fmt.Printf("   open windows:   p50 %.0f\n                   p90 %.0f\n                   p99 %.0f\n                   steal %.3f\n",
		op50s, op90s, op99s, openSteal)
	qc, qo := quietHalf(closedSteal), quietHalf(openSteal)
	rep.set("throughput_rps", median(pick(tput, qc)))
	rep.set("goodput_mib_s", median(pick(good, qc)))
	rep.set("alloc_bytes_per_req", median(pick(alloc, qc)))
	lat := sortedCopy(ol.lat)
	_, beyond90 := quantile(lat, 0.90)
	p99, beyond99 := quantile(lat, 0.99)
	p999, beyond999 := quantile(lat, 0.999)
	rep.set("latency_p50_us", median(pick(p50s, qc)))
	rep.set("latency_p90_us", median(pick(p90s, qc)))
	rep.set("cpu_us_per_req", median(pick(cpu, qo)))
	rep.set("rss_peak_mib", peakRSSMiB())
	shares, fetches := served(k0, k2)
	rep.set("hit_ratio", 1-shares[chainLen])
	rep.set("byte_hit_ratio", 1-float64(k2.originBytes-k0.originBytes)/float64(k2.delivered-k0.delivered))
	cost := 0.0
	for h, s := range shares {
		cost += s * float64(h) * linkCost
	}
	rep.set("model_cost_per_req", cost)
	clat := sortedCopy(cl.lat)
	_, cbeyond90 := quantile(clat, 0.90)
	cp99, cbeyond99 := quantile(clat, 0.99)
	fmt.Printf("   closed loop: %d requests in %.2f s by %d callers; %d beyond p90; p99 %.1f us (%d beyond)\n",
		cl.n, secs, workers(), cbeyond90, cp99, cbeyond99)
	fmt.Printf("   open loop: offered %.0f req/s, %d samples in %d windows, from the intended send time: median-window p50 %.1f p90 %.1f us; over all samples %d beyond p90, p99 %.1f us (%d beyond), p999 %.1f us (%d beyond); late p50 %.1f p99 %.1f us\n",
		w.rate, ol.n, nw, median(op50s), median(op90s), beyond90, p99, beyond99, p999, beyond999, median(ol.late), q99(ol.late))
	return c.properties(k0, k2, fetches, ops[:min(cl.n+ol.n, opsPerPhase)])
}

func q99(xs []float64) float64 {
	v, _ := quantile(sortedCopy(xs), 0.99)
	return v
}

// properties prints what the workload exists for and fails the run when
// the defining property is lost.
func (c *chain) properties(a, b counters, fetches float64, ops []op) error {
	w := c.w
	shares, _ := served(a, b)
	var spillHits float64
	for h := 0; h < chainLen; h++ {
		spillHits += b.spillHits[h] - a.spillHits[h]
	}
	diskShare := 0.0
	if fetches > 0 {
		diskShare = spillHits / fetches
	}
	var sizes []float64
	seen := make(map[int32]bool)
	var reads, writes, wsBytes float64
	for _, o := range ops {
		if o.write {
			writes++
			continue
		}
		reads++
		sizes = append(sizes, float64(c.cat.sizes[o.obj]))
		if !seen[o.obj] {
			seen[o.obj] = true
			wsBytes += float64(c.cat.sizes[o.obj])
		}
	}
	sort.Float64s(sizes)
	sq := func(q float64) float64 { v, _ := quantile(sizes, q); return v / kib }
	pastEdge := 1 - shares[0]
	fmt.Printf("   served at: hop0 %.3f hop1 %.3f hop2 %.3f origin %.3f; past the edge %.3f (%.0f fetches)\n",
		shares[0], shares[1], shares[2], shares[3], pastEdge, fetches)
	fmt.Printf("   per fetch: inserts %.3f evictions %.3f spills %.3f\n",
		(b.inserts-a.inserts)/fetches, (b.evictions-a.evictions)/fetches, float64(b.spills-a.spills)/fetches)
	fmt.Printf("   disk-hit share %.3f; write share %.4f; object KiB p50 %.0f p90 %.0f p99 %.0f max %.0f\n",
		diskShare, writes/math.Max(reads+writes, 1), sq(0.5), sq(0.9), sq(0.99), sq(1))
	fmt.Printf("   working set / aggregate capacity %.2f (%d objects, %.1f MiB over %d x %.1f MiB)\n",
		wsBytes/float64(chainLen*w.capacity), len(seen), wsBytes/mib, chainLen, float64(w.capacity)/mib)
	if pastEdge < w.minPastEdge {
		return fmt.Errorf("%s lost its property: %.3f of fetches past the edge, want >= %.2f", w.name, pastEdge, w.minPastEdge)
	}
	if diskShare < w.minDiskShare {
		return fmt.Errorf("%s lost its property: disk-hit share %.3f, want >= %.2f", w.name, diskShare, w.minDiskShare)
	}
	if w.writeShare > 0 {
		if ws := writes / math.Max(reads+writes, 1); math.Abs(ws-w.writeShare) > w.writeShare/5 {
			return fmt.Errorf("%s lost its property: write share %.4f, want %.2f", w.name, ws, w.writeShare)
		}
	}
	return nil
}

// Traced-run rounds: each round runs this long, then the span rings are
// drained while no request is in flight.
const roundDur = 250 * time.Millisecond

func runHTTPTraced(w *workload, cfg config, rep *report) error {
	// Go runtime metrics come from an untraced copy of the chain.
	c0, err := setupChain(w, cfg, nil, 0, rep)
	if err != nil {
		return err
	}
	defer c0.close()
	ops := genOps(cfg.seed, streamTraced, w.warm, opsPerPhase, w.mix)
	p0 := takeSnap()
	ref := closedLoop(workers(), phaseDur(cfg, 0.15), 0, ops, 0, c0.do)
	gcd := deltaOf(p0, takeSnap())
	rep.count(ref.n, ref.failed)
	rep.set("go.gc_per_kreq", float64(gcd.gcs)/float64(ref.n)*1000)
	rep.set("go.gc_pause_p99_us", gcd.pauseP99us)
	rep.set("go.gc_cpu_share", gcd.gcCPUShare)

	refRate := float64(ref.n) / ref.elapsed.Seconds()
	maxRound := int(math.Max(refRate, w.rate)*roundDur.Seconds()*2) + 1000
	tr := newTracer(maxRound, 16*maxRound)
	c, err := setupChain(w, cfg, tr, 1, rep)
	if err != nil {
		return err
	}
	defer c.close()
	for _, n := range c.nodes {
		n.SpanRing().Reset() // the warm-up's spans are not measured
	}
	dials0 := c.dials.Load() + c.clientDials.Load()
	k0, err := c.scrape()
	if err != nil {
		return err
	}

	// Tracing overhead: untraced and traced closed-loop rounds alternate,
	// so both sides see the same host.
	base0, base := ref.n, int64(0)
	var plainN, tracedN int64
	var plainT, tracedT time.Duration
	for plainT+tracedT < phaseDur(cfg, 0.35) {
		st0 := closedLoop(workers(), roundDur, 0, ops, base0, c0.do)
		rep.count(st0.n, st0.failed)
		base0 += st0.n
		plainN, plainT = plainN+st0.n, plainT+st0.elapsed
		tr.beginRound(base)
		st := closedLoop(workers(), roundDur, 0, ops, base, c.do)
		rep.count(st.n, st.failed)
		tr.drain(c.nodes, st, false)
		base += st.n
		tracedN, tracedT = tracedN+st.n, tracedT+st.elapsed
	}
	c0.close()
	// Traced open loop at the workload's offered rate, for the budget.
	var late []float64
	var openT time.Duration
	for openT < phaseDur(cfg, 0.5) {
		tr.beginRound(base)
		st := openLoop(workers(), w.rate, roundDur, ops, base, c.do)
		rep.count(st.n, st.failed)
		tr.drain(c.nodes, st, true)
		late = append(late, st.late...)
		base += st.n
		openT += st.elapsed
	}
	k1, err := c.scrape()
	if err != nil {
		return err
	}
	rep.count(0, int64(k1.badHeader)+k1.corrupt)

	rep.set("loadgen.late_us_p99", q99(late))
	rep.set("loadgen.conns", float64(c.clientDials.Load()))
	rep.set("nethttp.conns_opened", float64(c.dials.Load()+c.clientDials.Load()-dials0))
	rep.set("span.overhead_share", 1-(float64(tracedN)/tracedT.Seconds())/(float64(plainN)/plainT.Seconds()))
	rep.set("span.dropped", float64(tr.dropped))
	tr.report(rep)
	c.reportCounters(k0, k1, (tracedT + openT).Seconds(), rep)
	return measureTiered(cfg, rep)
}

// report sets the traced rounds' per-layer metrics.
func (t *tracer) report(rep *report) {
	l := &t.layers
	p := func(xs []float64, q float64) float64 { v, _ := quantile(sortedCopy(xs), q); return v }
	rep.set("nethttp.rt_self_us_p50", p(l.rtSelf, 0.5))
	rep.set("nethttp.rt_self_us_p99", p(l.rtSelf, 0.99))
	for h := 0; h < chainLen; h++ {
		rep.set(fmt.Sprintf("httpgw.hop%d.self_us_p50", h), p(l.hopSelf[h], 0.5))
		rep.set(fmt.Sprintf("httpgw.hop%d.self_us_p99", h), p(l.hopSelf[h], 0.99))
	}
	if x := t.exchanges.Load(); x > 0 {
		rep.set("httpgw.hdr_bytes_per_hop", float64(t.hdrBytes.Load())/float64(x))
	}
	per := func(ph span.Phase) float64 {
		if l.phaseReqs == 0 {
			return 0
		}
		return l.phase[ph] / float64(l.phaseReqs)
	}
	rep.set("engine.lookup_us", per(span.PhaseLookup))
	rep.set("engine.up_us", per(span.PhaseUp))
	rep.set("engine.decide_us", per(span.PhaseDecide))
	rep.set("engine.down_us", per(span.PhaseDown))
	rep.set("store.body_us", per(span.PhaseBody))
	rep.set("store.promote_us", per(span.PhasePromote))
	rep.set("coherency.us", per(span.PhaseCoherency))

	p50, rows, un := latencyBudget(budgetNames, l.budgetParts, l.budgetLat, 0.05)
	rep.set("budget.p50_us", p50)
	fmt.Printf("   latency budget of the traced edge p50 (%d samples):\n", len(l.budgetLat))
	for _, r := range rows {
		rep.set("budget."+r.name+"_us", r.us)
		fmt.Printf("     %-14s %9.1f us  %5.1f%%\n", r.name, r.us, 100*r.us/p50)
	}
	rep.set("budget.unattributed_us", un)
	if p50 > 0 {
		rep.set("budget.unattributed_share", un/p50)
	}
	fmt.Printf("     %-14s %9.1f us  %5.1f%%\n     %-14s %9.1f us\n", "unattributed", un, 100*un/p50, "= p50", p50)
}

// reportCounters sets the per-layer metrics the gateways count themselves,
// between readings a and b over secs of measured time.
func (c *chain) reportCounters(a, b counters, secs float64, rep *report) {
	shares, fetches := served(a, b)
	for h := 0; h < chainLen; h++ {
		rep.set(fmt.Sprintf("httpgw.served_at.%d", h), shares[h])
	}
	rep.set("httpgw.served_at.origin", shares[chainLen])
	rep.set("httpgw.bad_header", b.badHeader-a.badHeader)
	reads := math.Max(float64(b.reads-a.reads), 1)
	rep.set("engine.shard_lock_waits_per_kreq", (b.lockWaits-a.lockWaits)/reads*1000)
	rep.set("cache.inserts_per_req", (b.inserts-a.inserts)/reads)
	rep.set("cache.evictions_per_req", (b.evictions-a.evictions)/reads)
	var spillHits float64
	for h := 0; h < chainLen; h++ {
		spillHits += b.spillHits[h] - a.spillHits[h]
	}
	if fetches > 0 {
		rep.set("store.disk_hit_share", spillHits/fetches)
	}
	rep.set("store.spills_per_req", float64(b.spills-a.spills)/reads)
	rep.set("store.spill_mib_s", float64(b.spillBytes-a.spillBytes)/mib/secs)
	rep.set("store.corrupt_reads", float64(b.corrupt-a.corrupt))
	rep.set("coherency.stale_selfheal_per_kreq", (b.staleHits-a.staleHits)/reads*1000)
	if wr := b.writes - a.writes; wr > 0 {
		rep.set("coherency.inval_applied_per_write", (b.invals-a.invals)/float64(wr))
	}
	rep.set("coherency.cas_conflicts", b.casConflicts-a.casConflicts)
}
