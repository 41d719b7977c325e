package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cascade"
	"cascade/internal/httpgw"
	"cascade/internal/store"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// catalog is the HTTP workloads' object set with the expected content of
// every object, hashed once during set-up.
type catalog struct {
	sizes []int
	crcs  []uint32
	urls  []string // request path of each object
}

func newCatalog(w *workload) *catalog {
	c := &catalog{sizes: make([]int, w.objects), crcs: make([]uint32, w.objects), urls: make([]string, w.objects)}
	for id := range c.sizes {
		c.sizes[id] = w.size(id)
		c.crcs[id] = crc32.Checksum(store.SyntheticBody(cascade.ObjectID(id), c.sizes[id]), crcTable)
		c.urls[id] = "/objects/" + strconv.Itoa(id)
	}
	return c
}

// originCounter wraps the origin handler and counts the payload it sends:
// object responses with a body (a segmented object's bodiless marker is
// not payload).
type originCounter struct {
	next         http.Handler
	bytes, resps atomic.Int64
	tr           *tracer // nil when untraced
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (o *originCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/objects/") {
		o.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	cw := &countingWriter{ResponseWriter: w}
	o.next.ServeHTTP(cw, r)
	if cw.n > 0 {
		o.bytes.Add(cw.n)
		o.resps.Add(1)
	}
	o.tr.handlerDone(chainLen, r, time.Since(t0))
}

// chain is one built HTTP workload: origin ← gateway 2 ← gateway 1 ←
// gateway 0 (the edge) on loopback, and the client that drives it.
type chain struct {
	w           *workload
	cat         *catalog
	origin      *originCounter
	nodes       []*cascade.HTTPCacheNode // nodes[h] is hop h, node ID h
	servers     []*httptest.Server
	front       string
	client      *http.Client
	dials       atomic.Int64 // connections opened by the gateways' upstream clients
	clientDials atomic.Int64 // connections opened by the load generator
	dir         string       // spill directories (removed on close)
	floors      []atomic.Uint64
	tr          *tracer
	bufs        [][]byte // per worker read buffer
	closed      bool

	delivered atomic.Int64 // verified payload bytes
	reads     atomic.Int64 // verified reads
	writes    atomic.Int64 // acknowledged writes
}

// workers is the number of concurrent callers: one per core.
func workers() int { return runtime.GOMAXPROCS(0) }

// newTransport is an HTTP transport that opens at most conns connections
// per host and counts every connection it opens.
func newTransport(conns int, dials *atomic.Int64) *http.Transport {
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        4 * conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// buildChain assembles the workload's chain. With tr set, every gateway
// records spans at rate 1 and every handler and upstream transport is
// timed. dir receives the spill tiers.
func buildChain(w *workload, cat *catalog, tr *tracer, dir string) (*chain, error) {
	c := &chain{w: w, cat: cat, tr: tr, dir: dir}
	org := cascade.NewHTTPOrigin(func(id cascade.ObjectID) int { return cat.sizes[id] })
	org.SegmentThreshold, org.SegmentSize = w.segThreshold, w.segSize
	if w.writeShare > 0 {
		org.Authority = cascade.NewCoherencyAuthority()
		c.floors = make([]atomic.Uint64, w.objects)
	}
	c.origin = &originCounter{next: org, tr: tr}
	c.servers = append(c.servers, httptest.NewServer(c.origin))
	upstream := c.servers[0].URL
	start := time.Now()
	// Since-start wall clock, offset so that no protocol time reads 0;
	// span floats keep sub-µs precision at this magnitude.
	clock := func() float64 { return 1000 + time.Since(start).Seconds() }
	avg := 0.0
	for _, s := range cat.sizes {
		avg += float64(s)
	}
	avg /= float64(len(cat.sizes))
	dEntries := 3 * int(float64(w.capacity)/avg+1)
	c.nodes = make([]*cascade.HTTPCacheNode, chainLen)
	for h := chainLen - 1; h >= 0; h-- {
		n := cascade.NewHTTPCacheNode(cascade.NodeID(h), upstream, linkCost, w.capacity, dEntries, clock)
		n.SetShards(w.shards)
		if w.writeShare > 0 {
			n.EnableCoherency(cascade.CoherencyCAS)
		}
		if w.spillMax > 0 {
			d := filepath.Join(dir, "node-"+strconv.Itoa(h))
			if err := n.EnableSpill(d, w.spillMax, 0); err != nil {
				c.close()
				return nil, fmt.Errorf("spill tier of gateway %d: %w", h, err)
			}
		}
		var handler http.Handler = n
		if tr != nil {
			n.EnableSpans(cascade.SpanPolicy{Rate: 1}, tr.ringCapacity)
			n.Client = &http.Client{
				Transport: &timedTransport{base: newTransport(2*workers(), &c.dials), hop: h, tr: tr},
				Timeout:   httpgw.DefaultUpstreamTimeout,
			}
			handler = tr.wrapHandler(h, n)
		}
		c.nodes[h] = n
		srv := httptest.NewServer(handler)
		c.servers = append(c.servers, srv)
		upstream = srv.URL
	}
	c.front = upstream
	c.client = &http.Client{Transport: newTransport(workers(), &c.clientDials), Timeout: 30 * time.Second}
	c.bufs = make([][]byte, workers())
	for i := range c.bufs {
		c.bufs[i] = make([]byte, 64*kib)
	}
	return c, nil
}

func (c *chain) close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	for i := len(c.servers) - 1; i >= 0; i-- {
		c.servers[i].Close()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir) //nolint:errcheck // scratch space; a leftover is harmless
	}
}

// do issues and verifies one generated request.
func (c *chain) do(worker int, i int64, o op) error {
	if o.write {
		return c.write(int(o.obj))
	}
	return c.read(worker, i, int(o.obj))
}

var errDegraded = errors.New("response marked degraded")

// read fetches one object and checks status, length, content, the degraded
// marker and (with coherency) the served generation against the floor the
// generator held when it sent the request.
func (c *chain) read(worker int, i int64, obj int) error {
	req, err := http.NewRequest(http.MethodGet, c.front+c.cat.urls[obj], nil)
	if err != nil {
		return err
	}
	var floor uint64
	if c.floors != nil {
		floor = c.floors[obj].Load()
		if floor > 0 {
			req.Header.Set(cascade.HTTPHeaderGen, strconv.FormatUint(floor, 10))
		}
	}
	c.tr.tagRequest(req, i)
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	n, sum, rerr := readHashed(resp.Body, c.bufs[worker])
	resp.Body.Close()
	c.tr.clientDone(i, time.Since(t0))
	switch {
	case rerr != nil:
		return rerr
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("object %d: status %d", obj, resp.StatusCode)
	case n != int64(c.cat.sizes[obj]):
		return fmt.Errorf("object %d: %d bytes, want %d", obj, n, c.cat.sizes[obj])
	case sum != c.cat.crcs[obj]:
		return fmt.Errorf("object %d: content mismatch", obj)
	case resp.Header.Get(cascade.HTTPHeaderDegraded) != "":
		return fmt.Errorf("object %d: %w", obj, errDegraded)
	}
	if c.floors != nil {
		// No header: generation 0, an object never written.
		var gen uint64
		if h := resp.Header.Get(cascade.HTTPHeaderGen); h != "" {
			if gen, err = strconv.ParseUint(h, 10, 64); err != nil {
				return fmt.Errorf("object %d: bad served generation %q", obj, h)
			}
		}
		if gen < floor {
			return fmt.Errorf("object %d: served generation %d below floor %d", obj, gen, floor)
		}
	}
	c.delivered.Add(n)
	c.reads.Add(1)
	return nil
}

// write bumps the object's generation through the chain's admin path and
// raises the generator's floor to the acknowledged generation.
func (c *chain) write(obj int) error {
	resp, err := c.client.Post(c.front+"/cascade/admin/invalidate?obj="+strconv.Itoa(obj), "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse only
		return fmt.Errorf("invalidate %d: status %d", obj, resp.StatusCode)
	}
	var rep struct {
		Gen uint64 `json:"gen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("invalidate %d: %w", obj, err)
	}
	if rep.Gen == 0 {
		return fmt.Errorf("invalidate %d: acknowledged generation 0", obj)
	}
	f := &c.floors[obj]
	for cur := f.Load(); rep.Gen > cur && !f.CompareAndSwap(cur, rep.Gen); cur = f.Load() {
	}
	c.writes.Add(1)
	return nil
}

// readHashed drains body through buf and returns its length and CRC-32C.
func readHashed(body io.Reader, buf []byte) (int64, uint32, error) {
	var n int64
	var sum uint32
	for {
		k, err := body.Read(buf)
		sum = crc32.Update(sum, crcTable, buf[:k])
		n += int64(k)
		if err == io.EOF {
			return n, sum, nil
		}
		if err != nil {
			return n, sum, err
		}
	}
}

// counters is a reading of the chain's own accounting.
type counters struct {
	hits, spillHits       [chainLen]float64
	inserts, evictions    float64
	lockWaits             float64
	badHeader             float64
	staleHits, invals     float64
	casConflicts          float64
	corrupt               int64
	spills                int64
	spillBytes            int64
	originBytes, originRs int64
	delivered, reads      int64
	writes                int64
}

// scrape reads every gateway's Prometheus exposition in process (no
// request crosses the network) plus the origin and client counters.
func (c *chain) scrape() (counters, error) {
	var k counters
	for h, n := range c.nodes {
		rec := httptest.NewRecorder()
		n.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cascade/metrics", nil))
		m, err := parsePrometheus(rec.Body)
		if err != nil {
			return k, fmt.Errorf("gateway %d metrics: %w", h, err)
		}
		k.hits[h] = m["cascade_gw_hits_total"]
		k.spillHits[h] = m["cascade_gw_spill_hits_total"]
		k.inserts += m["cascade_node_shard_inserts_total"]
		k.evictions += m["cascade_node_shard_evictions_total"]
		k.lockWaits += m["cascade_node_shard_lock_waits_total"]
		k.badHeader += m["cascade_gw_bad_header_total"]
		k.staleHits += m["cascade_coherency_stale_hits_total"]
		k.invals += m["cascade_coherency_invalidations_total"]
		k.casConflicts += m["cascade_coherency_cas_conflicts_total"]
		st := n.BodyStats()
		k.corrupt += st.CorruptReads
		k.spills += st.SpillObjectsTotal
		k.spillBytes += st.SpillBytesTotal
	}
	k.originBytes, k.originRs = c.origin.bytes.Load(), c.origin.resps.Load()
	k.delivered, k.reads, k.writes = c.delivered.Load(), c.reads.Load(), c.writes.Load()
	return k, nil
}

// served is the share of fetches served at each hop (chainLen = origin)
// between two readings. A fetch is one object or one Range segment.
func served(a, b counters) (shares [chainLen + 1]float64, fetches float64) {
	var n [chainLen + 1]float64
	for h := 0; h < chainLen; h++ {
		n[h] = b.hits[h] - a.hits[h]
		fetches += n[h]
	}
	n[chainLen] = float64(b.originRs - a.originRs)
	fetches += n[chainLen]
	if fetches > 0 {
		for h := range n {
			shares[h] = n[h] / fetches
		}
	}
	return shares, fetches
}
