package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"cascade"
	"cascade/internal/engine"
)

// The replay workload: the paper's trace generator (θ = 0.8, log-normal
// sizes) over its 100-node en-route topology, caches at 1% of the catalog
// bytes, replayed through a runtime Cluster on the direct data plane.
//
// Topology, catalog and trace are fixed; the seed draws where each client
// and server attaches and where in the (cyclic) trace the replay starts.
// A seeded catalog would move the byte metrics by several percent from
// seed to seed (a few large objects among the most popular), more than a
// change worth detecting.
const (
	replayObjects    = 20000
	replayRequests   = 400000 // trace length; the replay wraps around it
	replayWarm       = 100000 // requests replayed during set-up
	replayCacheShare = 0.01
	replayTopoSeed   = 1
	replayTraceSeed  = 1
	// Property guard: at least this share of requests must travel past
	// the client's first cache, so the engine's passes do the work.
	replayMinPastFirst = 0.5
)

// logicalClock is the trace's time, shared by the callers: each request
// moves it forward to its own timestamp.
type logicalClock struct{ bits atomic.Uint64 }

func (c *logicalClock) now() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *logicalClock) advance(t float64) {
	for {
		cur := c.bits.Load()
		if t <= math.Float64frombits(cur) || c.bits.CompareAndSwap(cur, math.Float64bits(t)) {
			return
		}
	}
}

// replaySys is one built replay: trace, topology, attachment and cluster.
type replaySys struct {
	reqs       []cascade.Request
	span       float64 // trace duration: lap k replays at +k·span
	start      int64   // trace position of the replay's first request
	net        *cascade.EnRouteNetwork
	clientNode []cascade.NodeID
	serverNode []cascade.NodeID
	cacheBytes int64
	dEntries   int
	avgSize    float64
	catBytes   float64
	cluster    *cascade.Cluster
	clock      logicalClock

	acc    []replayAcc // per worker
	served []bool      // served by a cache, for the first len(served) measured requests
}

// replayAcc is one caller's tally (padded apart to avoid false sharing).
type replayAcc struct {
	gets, hits, pastFirst int64
	bytes, hitBytes       float64
	cost                  float64
	getLat                []float64 // µs per Get
	_                     [64]byte
}

func buildReplay(cfg config, spanCapacity int) (*replaySys, error) {
	gen := cascade.NewGenerator(cascade.TraceConfig{Objects: replayObjects, Requests: replayRequests, Seed: replayTraceSeed})
	cat := gen.Catalog()
	s := &replaySys{reqs: gen.All(), span: gen.Config().Duration}
	s.net = cascade.GenerateTiers(cascade.DefaultTiersConfig(), rand.New(rand.NewSource(replayTopoSeed)))
	r := rand.New(rand.NewSource(mixSeed(cfg.seed, streamWarm)))
	cps, sps := s.net.ClientAttachPoints(), s.net.ServerAttachPoints()
	s.clientNode = make([]cascade.NodeID, cat.NumClients)
	for i := range s.clientNode {
		s.clientNode[i] = cps[r.Intn(len(cps))]
	}
	s.serverNode = make([]cascade.NodeID, cat.NumServers)
	for i := range s.serverNode {
		s.serverNode[i] = sps[r.Intn(len(sps))]
	}
	s.start = r.Int63n(int64(len(s.reqs)))
	s.catBytes = float64(cat.TotalBytes)
	s.avgSize = cat.AvgSize()
	s.cacheBytes = int64(replayCacheShare * s.catBytes)
	s.dEntries = 3 * int(float64(s.cacheBytes)/s.avgSize+1)
	ccfg := cascade.ClusterConfig{
		Network:       s.net,
		CacheBytes:    s.cacheBytes,
		DCacheEntries: s.dEntries,
		AvgObjectSize: s.avgSize,
		Clock:         s.clock.now,
	}
	if spanCapacity > 0 {
		ccfg.SpanCapacity, ccfg.SpanSample = spanCapacity, 1
	}
	var err error
	if s.cluster, err = cascade.NewCluster(ccfg); err != nil {
		return nil, err
	}
	s.acc = make([]replayAcc, workers())
	return s, nil
}

// request returns measured request i (the warm-up precedes it) and its
// time, shifted by a trace duration per lap around the trace.
func (s *replaySys) request(i int64) (cascade.Request, float64) {
	return s.at(replayWarm + i)
}

// at returns the replay's request at position j.
func (s *replaySys) at(j int64) (cascade.Request, float64) {
	n := int64(len(s.reqs))
	g := s.start + j
	req := s.reqs[g%n]
	return req, req.Time + float64(g/n)*s.span
}

// get replays measured request i (or warm-up request -1-i when i < 0) and
// verifies the result: no error, not degraded, served on the route, and a
// cost equal to the route's links below the serving cache scaled by size.
func (s *replaySys) get(worker int, i int64) error {
	var req cascade.Request
	var t float64
	if i < 0 {
		req, t = s.at(-1 - i)
	} else {
		req, t = s.request(i)
	}
	s.clock.advance(t)
	cn, sn := s.clientNode[req.Client], s.serverNode[req.Server]
	t0 := time.Now()
	res, err := s.cluster.Get(context.Background(), cn, sn, req.Object, req.Size)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if res.Degraded {
		return fmt.Errorf("request %d: degraded", i)
	}
	rt := s.net.Route(cn, sn)
	h := len(rt.Caches)
	if res.ServedBy != cascade.NoNode {
		h = -1
		for k, id := range rt.Caches {
			if id == res.ServedBy {
				h = k
				break
			}
		}
		if h < 0 {
			return fmt.Errorf("request %d: served by node %d off its route", i, res.ServedBy)
		}
	}
	want := 0.0
	for k := 0; k < h; k++ {
		want += rt.UpCost[k]
	}
	want *= float64(req.Size) / s.avgSize
	if math.Abs(res.Cost-want) > 1e-9*math.Max(1, want) {
		return fmt.Errorf("request %d: cost %g, route gives %g", i, res.Cost, want)
	}
	if i < 0 {
		return nil
	}
	a := &s.acc[worker]
	a.gets++
	a.bytes += float64(req.Size)
	a.cost += res.Cost
	a.getLat = append(a.getLat, float64(d.Nanoseconds())/1e3)
	if h > 0 {
		a.pastFirst++
	}
	if res.ServedBy != cascade.NoNode {
		a.hits++
		a.hitBytes += float64(req.Size)
	}
	if i < int64(len(s.served)) {
		s.served[i] = res.ServedBy != cascade.NoNode
	}
	return nil
}

// takeTotals sums the callers' tallies and clears them.
func (s *replaySys) takeTotals() replayAcc {
	var t replayAcc
	for w := range s.acc {
		t.merge(s.acc[w])
		s.acc[w] = replayAcc{}
	}
	return t
}

func (t *replayAcc) merge(a replayAcc) {
	t.gets += a.gets
	t.hits += a.hits
	t.pastFirst += a.pastFirst
	t.bytes += a.bytes
	t.hitBytes += a.hitBytes
	t.cost += a.cost
	t.getLat = append(t.getLat, a.getLat...)
}

// setupReplay builds the replay and warms it with the trace's first
// replayWarm requests.
func setupReplay(cfg config, spanCapacity int, rep *report) (*replaySys, error) {
	s, err := buildReplay(cfg, spanCapacity)
	if err != nil {
		return nil, err
	}
	warm := make([]op, 1)
	st := closedLoop(workers(), 0, replayWarm, warm, 0, func(w int, i int64, _ op) error { return s.get(w, -1-i) })
	rep.count(st.n, st.failed)
	return s, nil
}

func (s *replaySys) do(w int, i int64, _ op) error { return s.get(w, i) }

func runReplay(w *workload, cfg config, rep *report) error {
	if cfg.trace {
		return runReplayTraced(cfg, rep)
	}
	var setups []float64
	var s *replaySys
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		ss, err := setupReplay(cfg, 0, rep)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < 2 {
			ss.cluster.Close()
			continue
		}
		s = ss
	}
	defer s.cluster.Close()
	rep.set("setup_s", median(setups))

	// Measured in windows; each metric is the median over the half of the
	// windows with the least hypervisor steal (see runHTTP).
	var st loopStats
	var tput, good, p50s, p90s, p99s, cpu, alloc, steal []float64
	var all replayAcc
	beyond := 0
	nw := windows(phaseDur(cfg, 1), time.Second)
	for k := 0; k < nw; k++ {
		p0 := takeSnap()
		ws := closedLoop(workers(), phaseDur(cfg, 1)/time.Duration(nw), 0, []op{{}}, st.n, s.do)
		d := deltaOf(p0, takeSnap())
		t := s.takeTotals()
		secs := ws.elapsed.Seconds()
		lat := sortedCopy(t.getLat)
		p50, _ := quantile(lat, 0.5)
		p90, _ := quantile(lat, 0.90)
		p99, _ := quantile(lat, 0.99)
		p90s = append(p90s, p90)
		tput = append(tput, float64(ws.n)/secs)
		good = append(good, t.bytes/mib/secs)
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		cpu = append(cpu, float64(d.cpu.Microseconds())/float64(ws.n))
		alloc = append(alloc, float64(d.alloc)/float64(ws.n))
		steal = append(steal, d.steal)
		beyond += len(t.getLat) - 1 - rankIndex(len(t.getLat), 0.99)
		t.getLat = nil
		all.merge(t)
		st.addCounts(ws)
	}
	rep.count(st.n, st.failed)
	fmt.Printf("   windows: throughput %.0f\n            p50 %.2f\n            p90 %.2f\n            p99 %.1f\n            steal %.3f\n",
		tput, p50s, p90s, p99s, steal)
	q := quietHalf(steal)
	rep.set("throughput_rps", median(pick(tput, q)))
	rep.set("goodput_mib_s", median(pick(good, q)))
	rep.set("latency_p50_us", median(pick(p50s, q)))
	rep.set("latency_p90_us", median(pick(p90s, q)))
	rep.set("cpu_us_per_req", median(pick(cpu, q)))
	rep.set("alloc_bytes_per_req", median(pick(alloc, q)))
	rep.set("rss_peak_mib", peakRSSMiB())
	rep.set("hit_ratio", float64(all.hits)/float64(all.gets))
	rep.set("byte_hit_ratio", all.hitBytes/all.bytes)
	rep.set("model_cost_per_req", all.cost/float64(all.gets))
	fmt.Printf("   closed loop: %d Gets in %.2f s by %d callers in %d windows; median window p99 %.1f us, %d samples beyond the window p99s\n",
		st.n, st.elapsed.Seconds(), workers(), nw, median(p99s), beyond)
	t := all
	return s.properties(t)
}

// properties prints what replay exists for and fails when it is lost.
func (s *replaySys) properties(t replayAcc) error {
	past := float64(t.pastFirst) / float64(t.gets)
	fmt.Printf("   %d nodes; cache %.2f MiB per node = %.2f%% of %.0f MiB catalog; mean object %.0f B\n",
		s.net.NumCaches(), float64(s.cacheBytes)/mib, 100*float64(s.cacheBytes)/s.catBytes, s.catBytes/mib, s.avgSize)
	fmt.Printf("   served past the client's first cache %.3f; hit ratio %.3f\n", past, float64(t.hits)/float64(t.gets))
	if past < replayMinPastFirst {
		return fmt.Errorf("replay lost its property: %.3f of requests past the first cache, want >= %.2f", past, replayMinPastFirst)
	}
	return nil
}

func runReplayTraced(cfg config, rep *report) error {
	// Reference phase, untraced: runtime and go metrics, and the served
	// flags the standalone engine walk must reproduce.
	s, err := setupReplay(cfg, 0, rep)
	if err != nil {
		return err
	}
	s.served = make([]bool, 200000)
	m0, err := scrapeCluster(s.cluster)
	if err != nil {
		return err
	}
	p0 := takeSnap()
	ref := closedLoop(workers(), phaseDur(cfg, 0.3), 0, []op{{}}, 0, s.do)
	d := deltaOf(p0, takeSnap())
	rep.count(ref.n, ref.failed)
	m1, err := scrapeCluster(s.cluster)
	if err != nil {
		return err
	}
	t := s.takeTotals()
	served := s.served[:min(int64(len(s.served)), ref.n)]
	s.served = nil
	defer s.cluster.Close()
	n := float64(ref.n)
	getP50, _ := quantile(sortedCopy(t.getLat), 0.5)
	rep.set("runtime.get_us_p50", getP50)
	rep.set("runtime.msgs_per_req", (m1.messages-m0.messages)/n)
	rep.set("engine.shard_lock_waits_per_kreq", (m1.lockWaits-m0.lockWaits)/n*1000)
	rep.set("cache.inserts_per_req", (m1.inserts-m0.inserts)/n)
	rep.set("cache.evictions_per_req", (m1.evictions-m0.evictions)/n)
	rep.set("go.gc_per_kreq", float64(d.gcs)/n*1000)
	rep.set("go.gc_pause_p99_us", d.pauseP99us)
	rep.set("go.gc_cpu_share", d.gcCPUShare)

	// Tracing overhead: rounds on the reference cluster and on a cluster
	// with spans at rate 1 alternate, so both sides see the same host; the
	// traced cluster's rings are emptied after every round.
	const round = 500
	ts, err := setupReplay(cfg, 8*round, rep)
	if err != nil {
		return err
	}
	defer ts.cluster.Close()
	resetRings(ts)
	base0, base := ref.n, int64(0)
	var plainT, tracedT time.Duration
	var plainN, tracedN int64
	var dropped uint64
	for plainT+tracedT < phaseDur(cfg, 0.4) {
		st0 := closedLoop(workers(), 0, round, []op{{}}, base0, s.do)
		st := closedLoop(workers(), 0, round, []op{{}}, base, ts.do)
		rep.count(st0.n+st.n, st0.failed+st.failed)
		base0, base = base0+st0.n, base+st.n
		plainN, plainT = plainN+st0.n, plainT+st0.elapsed
		tracedN, tracedT = tracedN+st.n, tracedT+st.elapsed
		dropped += resetRings(ts)
	}
	rep.set("span.overhead_share", 1-(float64(tracedN)/tracedT.Seconds())/(float64(plainN)/plainT.Seconds()))
	rep.set("span.dropped", float64(dropped))

	// Standalone engine walk over the reference phase's requests.
	wk := newWalk(s)
	for j := int64(0); j < replayWarm; j++ {
		req, at := s.at(j)
		wk.step(req, at, false)
	}
	limit := int64(len(served))
	agree := 0
	for i := int64(0); i < limit; i++ {
		req, at := s.request(i)
		if wk.step(req, at, true) == served[i] {
			agree++
		}
	}
	wk.report(rep)
	walkHR := float64(wk.hits) / float64(wk.reqs)
	clusterHR := 0.0
	for _, v := range served {
		if v {
			clusterHR++
		}
	}
	clusterHR /= float64(limit)
	getMean := mean(t.getLat) * 1e3
	if getMean > 0 {
		rep.set("runtime.unattributed_share", 1-wk.engineNs()/float64(wk.reqs)/getMean)
	}
	fmt.Printf("   engine walk: %d requests, hit ratio %.4f vs cluster %.4f (%.4f agree per request)\n",
		limit, walkHR, clusterHR, float64(agree)/float64(limit))
	if math.Abs(walkHR-clusterHR) > 0.02 {
		return fmt.Errorf("engine walk hit ratio %.4f differs from the cluster's %.4f", walkHR, clusterHR)
	}
	return nil
}

// resetRings empties every node's span ring and returns the spans the
// rings overwrote since the last reset.
func resetRings(s *replaySys) uint64 {
	var dropped uint64
	for id := 0; id < s.net.NumCaches(); id++ {
		ring := s.cluster.SpanRing(cascade.NodeID(id))
		dropped += ring.Dropped()
		ring.Reset()
	}
	return dropped
}

type clusterCounts struct{ messages, lockWaits, inserts, evictions float64 }

func scrapeCluster(c *cascade.Cluster) (clusterCounts, error) {
	var b strings.Builder
	if err := c.Metrics().WritePrometheus(&b); err != nil {
		return clusterCounts{}, err
	}
	m, err := parsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		return clusterCounts{}, err
	}
	ms := c.MetricsSnapshot()
	k := clusterCounts{messages: float64(ms.Stats.Messages), lockWaits: m["cascade_node_shard_lock_waits_total"],
		inserts: float64(ms.Stats.Inserts)}
	for _, n := range ms.Nodes {
		k.evictions += float64(n.Evictions)
	}
	return k, nil
}

// walk replays requests through standalone engine state, one
// engine.Sharded per node configured as the cluster configures its nodes,
// calling the protocol steps in the direct data plane's order and timing
// each call from outside.
type walk struct {
	s      *replaySys
	nodes  []*engine.Sharded
	dec    engine.Decider
	cands  []engine.Candidate
	pb     []engine.Candidate
	evict  []cascade.ObjectID
	upCost []float64

	reqs, hits               int64
	lookups, ups, decs, down int64
	tLookup, tUp, tDec, tDn  time.Duration
	candsTotal               int64
}

func newWalk(s *replaySys) *walk {
	w := &walk{s: s, nodes: make([]*engine.Sharded, s.net.NumCaches())}
	for id := range w.nodes {
		w.nodes[id] = engine.NewSharded(engine.ShardedConfig{
			Node: cascade.NodeID(id), CacheBytes: s.cacheBytes, DCacheEntries: s.dEntries, Pooled: true,
		})
	}
	return w
}

// step replays one request at time now; timed requests count toward the
// walk's metrics. It reports whether a cache served the request.
func (w *walk) step(req cascade.Request, now float64, timed bool) bool {
	rt := w.s.net.Route(w.s.clientNode[req.Client], w.s.serverNode[req.Server])
	scale := float64(req.Size) / w.s.avgSize
	w.upCost = w.upCost[:0]
	for _, v := range rt.UpCost {
		w.upCost = append(w.upCost, v*scale)
	}
	// Untimed steps (the warm-up) read no clock and count nothing.
	clock := func() time.Time {
		if timed {
			return time.Now()
		}
		return time.Time{}
	}
	var one int64
	if timed {
		one = 1
	}
	serving, servedBy := len(rt.Caches), cascade.NoNode
	w.pb = w.pb[:0]
	for h, id := range rt.Caches {
		st := w.nodes[id]
		t0 := clock()
		hit := st.Lookup(req.Object, now)
		t1 := clock()
		w.tLookup += t1.Sub(t0)
		w.lookups += one
		if hit {
			serving, servedBy = h, id
			break
		}
		cand := st.UpMiss(req.Object, req.Size, h, w.upCost[h], now)
		w.tUp += clock().Sub(t1)
		w.ups += one
		if cand.Tag == engine.TagCandidate {
			w.pb = append(w.pb, cand)
		}
	}
	if timed {
		w.reqs++
		if servedBy != cascade.NoNode {
			w.hits++
		}
	}
	if serving == 0 {
		return true
	}
	w.cands = w.cands[:0]
	for h := 0; h < serving; h++ {
		w.cands = append(w.cands, engine.Candidate{Hop: h, Node: rt.Caches[h], Tag: engine.TagNoDescriptor, Link: w.upCost[h]})
	}
	for _, e := range w.pb {
		if e.Hop < serving {
			w.cands[e.Hop] = e
		}
	}
	t0 := clock()
	chosen := w.dec.Decide(w.cands, engine.DecideOptions{ClampMonotone: true}, engine.ServePoint{Hop: serving, Node: servedBy}, nil)
	w.tDec += clock().Sub(t0)
	w.decs += one
	w.candsTotal += one * int64(serving)
	mp := 0.0
	for h := serving - 1; h >= 0; h-- {
		mp += w.upCost[h]
		for k := len(chosen) - 1; k >= 0 && chosen[k] > h; k-- {
			chosen = chosen[:k]
		}
		place := false
		if k := len(chosen) - 1; k >= 0 && chosen[k] == h {
			place = true
			chosen = chosen[:k]
		}
		t0 := clock()
		out, ev := w.nodes[rt.Caches[h]].DownStep(req.Object, req.Size, place, mp, 0, h, now, w.evict[:0])
		w.tDn += clock().Sub(t0)
		w.down += one
		w.evict = ev
		mp = out.MP
	}
	return servedBy != cascade.NoNode
}

func (w *walk) engineNs() float64 {
	return float64((w.tLookup + w.tUp + w.tDec + w.tDn).Nanoseconds())
}

func (w *walk) report(rep *report) {
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	rep.set("engine.lookup_ns", per(w.tLookup, w.lookups))
	rep.set("engine.up_miss_ns", per(w.tUp, w.ups))
	rep.set("engine.decide_ns", per(w.tDec, w.decs))
	rep.set("engine.down_step_ns", per(w.tDn, w.down))
	rep.set("engine.walk_hit_ratio", float64(w.hits)/math.Max(float64(w.reqs), 1))
	if w.decs > 0 {
		rep.set("engine.cands_per_decide", float64(w.candsTotal)/float64(w.decs))
	}
}
