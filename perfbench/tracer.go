package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cascade"
	"cascade/internal/httpgw"
	"cascade/internal/span"
)

// The traced run's instruments. They sit outside the program: a wrapper
// around each gateway handler and the origin handler, a wrapper around
// each gateway's upstream transport, and the gateways' own span rings at
// sampling rate 1. A request is followed across hops by its global index,
// which the load generator sends in benchReqHeader and in the span trace
// context it hands the edge, and which each upstream transport wrapper
// forwards to the next hop.

// benchReqHeader carries the generated request's index hop to hop.
const benchReqHeader = "X-Bench-Req"

// traceMagic marks the trace IDs the load generator mints (Hi half); the Lo
// half is the request index + 1.
const traceMagic = 0x7065726662656e63

// hopRec is one request's timing at one hop (ns).
type hopRec struct {
	handler atomic.Int64 // time inside the hop's handler (summed over calls)
	uprt    atomic.Int64 // upstream round trips issued by the hop, to body end
	calls   atomic.Int64 // handler invocations
}

// reqRec is one request's timing across the chain; hops[chainLen] is the
// origin (handler only).
type reqRec struct {
	hops     [chainLen + 1]hopRec
	clientRT atomic.Int64 // client send → body read (ns)
}

// tracer owns the per-request records of the current round and what the
// rounds have folded so far.
type tracer struct {
	ringCapacity int
	recs         []reqRec
	base         int64 // global index of recs[0]
	hdrBytes     atomic.Int64
	exchanges    atomic.Int64
	dropped      uint64
	layers       layerSamples
}

func newTracer(maxPerRound, ringCapacity int) *tracer {
	return &tracer{recs: make([]reqRec, maxPerRound), ringCapacity: ringCapacity}
}

// rec returns the record of global request i, nil outside the round.
func (t *tracer) rec(i int64) *reqRec {
	if t == nil || i < t.base || i-t.base >= int64(len(t.recs)) {
		return nil
	}
	return &t.recs[i-t.base]
}

// beginRound clears the records for requests numbered from base.
func (t *tracer) beginRound(base int64) {
	t.base = base
	for i := range t.recs {
		r := &t.recs[i]
		r.clientRT.Store(0)
		for h := range r.hops {
			r.hops[h].handler.Store(0)
			r.hops[h].uprt.Store(0)
			r.hops[h].calls.Store(0)
		}
	}
}

// tagRequest marks a generated request so every hop can attribute its
// time: the index header, and a span context the edge joins instead of
// minting its own trace.
func (t *tracer) tagRequest(req *http.Request, i int64) {
	if t == nil {
		return
	}
	req.Header.Set(benchReqHeader, strconv.FormatInt(i, 10))
	ctx := span.Ctx{Trace: span.TraceID{Hi: traceMagic, Lo: uint64(i) + 1}, Parent: span.SpanID(uint64(i)<<1 | 1<<63)}
	req.Header.Set(httpgw.HeaderTraceCtx, ctx.String())
}

func (t *tracer) clientDone(i int64, d time.Duration) {
	if r := t.rec(i); r != nil {
		r.clientRT.Store(int64(d))
	}
}

type recKey struct{}

// hopCtx travels in a handler's request context to its upstream transport.
type hopCtx struct {
	idx int64
	rec *reqRec
}

func reqIndex(r *http.Request) (int64, bool) {
	v := r.Header.Get(benchReqHeader)
	if v == "" {
		return 0, false
	}
	i, err := strconv.ParseInt(v, 10, 64)
	return i, err == nil
}

// handlerDone books d of handler time at hop h for r's request.
func (t *tracer) handlerDone(h int, r *http.Request, d time.Duration) {
	if t == nil {
		return
	}
	if i, ok := reqIndex(r); ok {
		if rec := t.rec(i); rec != nil {
			rec.hops[h].handler.Add(int64(d))
			rec.hops[h].calls.Add(1)
		}
	}
}

// wrapHandler times gateway h's handler and hands the request's record to
// the gateway's upstream transport through the request context.
func (t *tracer) wrapHandler(h int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, ok := reqIndex(r)
		rec := t.rec(i)
		if !ok || rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), recKey{}, hopCtx{idx: i, rec: rec}))
		t0 := time.Now()
		next.ServeHTTP(w, r)
		rec.hops[h].handler.Add(int64(time.Since(t0)))
		rec.hops[h].calls.Add(1)
	})
}

// timedTransport times gateway hop's upstream exchanges from the request
// until the response body is read to its end or closed, forwards the
// request index, and counts the X-Cascade-* header bytes both ways.
type timedTransport struct {
	base http.RoundTripper
	hop  int
	tr   *tracer
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	hc, ok := req.Context().Value(recKey{}).(hopCtx)
	if !ok {
		return tt.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(benchReqHeader, strconv.FormatInt(hc.idx, 10))
	hdr := cascadeHeaderBytes(req.Header)
	t0 := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		hc.rec.hops[tt.hop].uprt.Add(int64(time.Since(t0)))
		return nil, err
	}
	tt.tr.hdrBytes.Add(int64(hdr + cascadeHeaderBytes(resp.Header)))
	tt.tr.exchanges.Add(1)
	resp.Body = &timedBody{ReadCloser: resp.Body, t0: t0, acc: &hc.rec.hops[tt.hop].uprt}
	return resp, nil
}

// timedBody books the exchange's duration once, at EOF or Close.
type timedBody struct {
	io.ReadCloser
	t0   time.Time
	acc  *atomic.Int64
	done bool
}

func (b *timedBody) finish() {
	if !b.done {
		b.done = true
		b.acc.Add(int64(time.Since(b.t0)))
	}
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// cascadeHeaderBytes is the size of the X-Cascade-* header lines.
func cascadeHeaderBytes(h http.Header) int {
	n := 0
	for k, vs := range h {
		if strings.HasPrefix(k, "X-Cascade-") {
			for _, v := range vs {
				n += len(k) + len(v) + 4 // ": " and CRLF
			}
		}
	}
	return n
}

// layerSamples accumulates the traced rounds.
type layerSamples struct {
	hopSelf     [chainLen][]float64 // µs, per request that reached the hop
	rtSelf      []float64           // µs, per exchange: round trip − upstream handler
	phase       map[span.Phase]float64
	phaseReqs   int
	budgetParts [][]float64
	budgetLat   []float64
}

// budgetNames are the budget's attributed rows, in budgetParts order.
var budgetNames = []string{"loadgen", "nethttp", "httpgw", "engine", "store", "coherency", "origin"}

// drain empties the gateways' span rings and folds the round: every
// request of the round with complete timing contributes its per-hop self
// times, its exchanges' net/http self times, its span phase self times
// and, withBudget (open-loop rounds), one budget sample.
func (t *tracer) drain(nodes []*cascade.HTTPCacheNode, st loopStats, withBudget bool) {
	time.Sleep(5 * time.Millisecond) // let the last handlers record their spans
	byReq := make(map[int64][]span.Span)
	for _, n := range nodes {
		ring := n.SpanRing()
		t.dropped += ring.Dropped()
		for _, s := range ring.Spans() {
			if s.Trace.Hi == traceMagic {
				byReq[int64(s.Trace.Lo)-1] = append(byReq[int64(s.Trace.Lo)-1], s)
			}
		}
		ring.Reset()
	}
	if t.layers.phase == nil {
		t.layers.phase = make(map[span.Phase]float64)
	}
	for k, i := range st.idx {
		rec := t.rec(i)
		if rec == nil || rec.clientRT.Load() == 0 || rec.hops[0].calls.Load() == 0 {
			continue // a write, a failure, or outside the round's records
		}
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		var self [chainLen]float64
		nethttp := us(rec.clientRT.Load() - rec.hops[0].handler.Load())
		t.layers.rtSelf = append(t.layers.rtSelf, nethttp)
		for h := 0; h < chainLen; h++ {
			hr := &rec.hops[h]
			if hr.calls.Load() == 0 {
				break
			}
			self[h] = us(hr.handler.Load() - hr.uprt.Load())
			t.layers.hopSelf[h] = append(t.layers.hopSelf[h], self[h])
			if up := &rec.hops[h+1]; up.calls.Load() > 0 {
				x := us(hr.uprt.Load() - up.handler.Load())
				t.layers.rtSelf = append(t.layers.rtSelf, x)
				nethttp += x
			}
		}
		ph := phaseSelf(byReq[i])
		for p, v := range ph {
			t.layers.phase[p] += v
		}
		t.layers.phaseReqs++
		if !withBudget {
			continue
		}
		engine := ph[span.PhaseLookup] + ph[span.PhaseDecide] + ph[span.PhaseDown]
		store := ph[span.PhaseBody] + ph[span.PhasePromote] + ph[span.PhaseSpill]
		coh := ph[span.PhaseCoherency]
		gw := self[0] + self[1] + self[2] - engine - store - coh
		t.layers.budgetParts = append(t.layers.budgetParts,
			[]float64{st.late[k], nethttp, gw, engine, store, coh, us(rec.hops[chainLen].handler.Load())})
		t.layers.budgetLat = append(t.layers.budgetLat, st.lat[k])
	}
}

// phaseSelf sums, per phase, the self time (µs) of one request's spans:
// each span's duration less the union of its children.
func phaseSelf(spans []span.Span) map[span.Phase]float64 {
	kids := make(map[span.SpanID][]interval, len(spans))
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
	}
	out := make(map[span.Phase]float64)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never finished
		}
		out[s.Phase] += selfTime(interval{s.Start, s.End}, kids[s.ID]) * 1e6
	}
	return out
}
