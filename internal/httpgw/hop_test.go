package httpgw

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cascade/internal/model"
	"cascade/internal/store"
)

// The gateway hop's allocation contract: a relay hop copies through the
// pooled buffer (never the ResponseWriter's ReadFrom), a placing hop reads
// into one exact-size slice only when the declared length could fit, and
// the origin synthesises into pooled scratch without changing a byte.

// readFromForbidden fails the test if io.CopyBuffer reaches for its
// ReadFrom instead of writing through the buffer it was given.
type readFromForbidden struct {
	t   *testing.T
	buf bytes.Buffer
}

func (w *readFromForbidden) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *readFromForbidden) ReadFrom(io.Reader) (int64, error) {
	w.t.Fatal("copyStream called the destination's ReadFrom")
	return 0, nil
}

func TestCopyStreamNeverUsesReadFrom(t *testing.T) {
	payload := store.SyntheticBody(3, 100*1024+7) // several buffer fills
	dst := &readFromForbidden{t: t}
	// Hide bytes.Reader's WriteTo so the copy goes through the buffer, as
	// it does for an HTTP client body.
	src := struct{ io.Reader }{bytes.NewReader(payload)}
	n, err := copyStream(dst, src)
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("copyStream = %d, %v; want %d, nil", n, err, len(payload))
	}
	if !bytes.Equal(dst.buf.Bytes(), payload) {
		t.Fatal("copied bytes differ from the source")
	}
}

// shortBodyUpstream answers every request by hijacking the connection and
// sending a 200 that instructs node 0 to place, declares Content-Length
// 4096 and then delivers only 100 bytes before closing.
func shortBodyUpstream(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(rw, "HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n%s: %s\r\n%s: 0\r\n%s: origin\r\n\r\n",
			HeaderPlace, formatPlacement([]model.NodeID{0}), HeaderPenalty, HeaderHit)
		rw.Write(bytes.Repeat([]byte{'x'}, 100)) //nolint:errcheck
		rw.Flush()                               //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestPlacingHopShortBodyAnswers502AndPlacesNothing(t *testing.T) {
	up := shortBodyUpstream(t)
	n := NewNode(0, up.URL, 1, 1<<20, 100, func() float64 { return 0 })
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)

	resp, body := get(t, srv.URL, 5)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 (body %q)", resp.StatusCode, body)
	}
	if n.Contains(5) {
		t.Fatal("a truncated body was placed")
	}
	n.mu.Lock()
	inserts := n.inserts
	n.mu.Unlock()
	if inserts != 0 || n.BodyStats().MemObjects != 0 {
		t.Fatalf("inserts %d, memory objects %d after a truncated body; want 0, 0", inserts, n.BodyStats().MemObjects)
	}
}

func TestReadPlacedBodySizing(t *testing.T) {
	const capacity = 64 << 10
	payload := store.SyntheticBody(8, 100)
	resp := func(declared int64) *http.Response {
		return &http.Response{ContentLength: declared, Body: io.NopCloser(bytes.NewReader(payload))}
	}

	// A length the node could hold sizes exactly one allocation.
	body, err := readPlacedBody(resp(int64(len(payload))), capacity)
	if err != nil || !bytes.Equal(body, payload) || cap(body) != len(payload) {
		t.Fatalf("exact read: %d bytes (cap %d), %v", len(body), cap(body), err)
	}
	// A declared length the body does not deliver is an error.
	if _, err := readPlacedBody(resp(int64(len(payload))+1), capacity); err == nil {
		t.Fatal("short body read without error")
	}
	// A declared length above the whole cache's capacity — or none at all —
	// must not size the allocation: the read grows with what arrives.
	for _, declared := range []int64{capacity + 1, 1 << 40, -1} {
		body, err := readPlacedBody(resp(declared), capacity)
		if err != nil || !bytes.Equal(body, payload) {
			t.Fatalf("declared %d: %d bytes, %v", declared, len(body), err)
		}
		if int64(cap(body)) > capacity {
			t.Fatalf("declared %d: allocation of %d bytes followed the peer's claim", declared, cap(body))
		}
	}
}

func TestOriginPooledBodyMatchesSyntheticBody(t *testing.T) {
	// Ascending then descending sizes, so pooled buffers are reused both
	// grown and shrunk; 1<<20+3 exceeds what the pool keeps.
	sizes := []int{0, 1, 7, 8, 9, 63, 100, 4095, 4096, 4097, 65537, 1<<20 + 3}
	for i := len(sizes) - 1; i >= 0; i-- {
		sizes = append(sizes, sizes[i])
	}
	for _, size := range sizes {
		o := &Origin{Size: func(model.ObjectID) int { return size }}
		for _, obj := range []model.ObjectID{1, 77} {
			rec := httptest.NewRecorder()
			o.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/"+strconv.Itoa(int(obj)), nil))
			want := store.SyntheticBody(obj, size)
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("size %d obj %d: served body differs from store.SyntheticBody", size, obj)
			}
			if got := rec.Header().Get("ETag"); got != etagOf(want) {
				t.Fatalf("size %d obj %d: ETag %s, want %s", size, obj, got, etagOf(want))
			}
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(size) {
				t.Fatalf("size %d obj %d: Content-Length %q", size, obj, got)
			}
		}
	}
}

func TestSegmentedFirstSegmentFailureIsComplete502(t *testing.T) {
	// The origin segments object 7 but fails its first segment with a
	// non-retryable status: the client-facing node must answer a complete
	// 502 — not one that declares the whole object's length and then
	// closes with an empty body.
	o := &Origin{Size: func(model.ObjectID) int { return 10000 }, SegmentThreshold: 4096, SegmentSize: 4096}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.Header.Get(HeaderSegment), "0;") {
			http.Error(w, "segment unavailable", http.StatusNotFound)
			return
		}
		o.ServeHTTP(w, r)
	}))
	t.Cleanup(origin.Close)
	n := NewNode(0, origin.URL, 1, 1<<20, 100, func() float64 { return 0 })
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/objects/7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("502 body truncated: %v (Content-Length %d)", err, resp.ContentLength)
	}
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if resp.ContentLength >= 0 && resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	}
	if m := resp.Header.Get(HeaderSegmented); m != "" {
		t.Fatalf("failed response still carries the segmented marker %q", m)
	}
}

// ---- Layer benchmarks: one gateway hop through httptest, 4 KiB bodies. ----

const hopBodySize = 4096

// benchHop serves b.N GETs for obj(i) through one node in front of the
// upstream handler, over loopback keep-alive connections, and returns the
// node for post-run checks.
func benchHop(b *testing.B, upstream http.Handler, capacity int64, obj func(i int) int, warm func(get func(int) string)) *Node {
	b.Helper()
	up := httptest.NewServer(upstream)
	b.Cleanup(up.Close)
	n := NewNode(0, up.URL, 1, capacity, 1024, func() float64 { return 0 })
	srv := httptest.NewServer(n)
	b.Cleanup(srv.Close)
	client := srv.Client()
	base := srv.URL + "/objects/"
	buf := make([]byte, 2*hopBodySize)
	get := func(o int) string {
		resp, err := client.Get(base + strconv.Itoa(o))
		if err != nil {
			b.Fatal(err)
		}
		got, _ := io.ReadFull(resp.Body, buf)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || got != hopBodySize {
			b.Fatalf("object %d: status %d, %d bytes", o, resp.StatusCode, got)
		}
		return resp.Header.Get(HeaderHit)
	}
	if warm != nil {
		warm(get)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(obj(i))
	}
	b.StopTimer()
	return n
}

func hopOrigin() *Origin {
	return &Origin{Size: func(model.ObjectID) int { return hopBodySize }}
}

// BenchmarkGatewayHopHit serves one object from the node's memory tier.
func BenchmarkGatewayHopHit(b *testing.B) {
	benchHop(b, hopOrigin(), 1<<20, func(int) int { return 1 }, func(get func(int) string) {
		for i := 0; i < 8; i++ {
			if get(1) == "0" {
				return
			}
		}
		b.Fatal("object 1 never became a hit at node 0")
	})
}

// BenchmarkGatewayHopRelay streams every body through the node: its cache
// is smaller than one body, so the origin never chooses it.
func BenchmarkGatewayHopRelay(b *testing.B) {
	n := benchHop(b, hopOrigin(), hopBodySize/4, func(i int) int { return i % 64 }, nil)
	if n.BodyStats().MemObjects != 0 {
		b.Fatal("relay benchmark placed a body")
	}
}

// BenchmarkGatewayHopPlace places every body at the node: a stub origin
// instructs node 0 to place each fresh object, and the 64 KiB cache evicts
// one old copy per insert.
func BenchmarkGatewayHopPlace(b *testing.B) {
	body := store.SyntheticBody(1, hopBodySize)
	tag := etagOf(body)
	place := formatPlacement([]model.NodeID{0})
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set(HeaderPlace, place)
		h.Set(HeaderPenalty, "0")
		h.Set(HeaderHit, "origin")
		h.Set("ETag", tag)
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body) //nolint:errcheck
	})
	n := benchHop(b, stub, 16*hopBodySize, func(i int) int { return i }, nil)
	n.mu.Lock()
	inserts := n.inserts
	n.mu.Unlock()
	if inserts != int64(b.N) {
		b.Fatalf("%d inserts over %d placing requests", inserts, b.N)
	}
}
