package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cascade/internal/trace"
)

// op is one generated request: a read of obj, or (purge-mix) a write that
// invalidates it.
type op struct {
	obj   int32
	write bool
}

// Streams of the generator: every phase of a run draws from its own
// stream of the seed, so no two phases share a generator state.
const (
	streamWarm uint64 = iota
	streamMeasure
	streamTraced
)

// mixSeed derives the seed of one stream from the run's seed (splitmix64
// finalizer, so neighbouring seeds give unrelated streams).
func mixSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) ^ (stream * 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// mix is the shape of a generated request stream.
type mix struct {
	objects    int
	theta      float64 // popularity exponent: rank r has weight 1/(r+1)^theta
	writeShare float64 // share of requests that are writes
	// driftEvery and driftStep move the popularity ranking through the
	// catalog: after every driftEvery requests, rank r maps to an object
	// driftStep further on (0: object r is rank r for ever).
	driftEvery, driftStep int
}

// genOps draws n requests of the mix from the seed's stream; the drift
// counts requests from first.
func genOps(seed int64, stream uint64, first, n int, m mix) []op {
	r := rand.New(rand.NewSource(mixSeed(seed, stream)))
	z := trace.NewZipf(r, m.objects, m.theta)
	ops := make([]op, n)
	for i := range ops {
		obj := z.Sample()
		if m.driftEvery > 0 {
			obj = (obj + (first+i)/m.driftEvery*m.driftStep) % m.objects
		}
		ops[i].obj = int32(obj)
		ops[i].write = m.writeShare > 0 && r.Float64() < m.writeShare
	}
	return ops
}

// loopStats is what one load phase measured.
type loopStats struct {
	n, failed int64
	idx       []int64   // global request index of each sample
	lat       []float64 // µs per request; open loop: from the intended send time
	late      []float64 // µs each request was sent after its intended time (open loop)
	elapsed   time.Duration
}

// merge appends per-worker samples in worker order.
func (st *loopStats) merge(idx [][]int64, lat, late [][]float64, fails []int64) {
	for w := range lat {
		st.idx = append(st.idx, idx[w]...)
		st.lat = append(st.lat, lat[w]...)
		if late != nil {
			st.late = append(st.late, late[w]...)
		}
		st.failed += fails[w]
	}
	st.n = int64(len(st.lat))
}

// failedLatencyUs is the latency a failed request is booked at: longer
// than any run, so it counts as missing every latency limit.
const failedLatencyUs = 1e9

var failures struct {
	sync.Mutex
	first []string
}

// logFailure keeps the first few failure messages for the run's report.
func logFailure(err error) {
	failures.Lock()
	if len(failures.first) < 5 {
		failures.first = append(failures.first, err.Error())
	}
	failures.Unlock()
}

// doFunc issues and verifies global request i (op o) on the given worker.
type doFunc func(worker int, i int64, o op) error

// add appends another phase's samples.
func (st *loopStats) add(o loopStats) {
	st.idx = append(st.idx, o.idx...)
	st.lat = append(st.lat, o.lat...)
	st.late = append(st.late, o.late...)
	st.addCounts(o)
}

// addCounts adds another phase's totals but keeps none of its samples, so
// a long phase does not grow the heap (and rss_peak_mib) with its length.
func (st *loopStats) addCounts(o loopStats) {
	st.n += o.n
	st.failed += o.failed
	st.elapsed += o.elapsed
}

// windows is how many slices of at least length each a phase of dur is
// measured in (at least one).
func windows(dur, each time.Duration) int {
	return max(1, int(dur/each))
}

// closedLoop runs workers callers, each issuing its next request the moment
// the previous one completes, for dur (0: no time limit) or until limit
// requests were issued (0: no count limit). Requests are taken from ops in
// order starting at base; the count consumed is loopStats.n.
func closedLoop(workers int, dur time.Duration, limit int64, ops []op, base int64, do doFunc) loopStats {
	var next atomic.Int64
	idxs := make([][]int64, workers)
	lats := make([][]float64, workers)
	fails := make([]int64, workers)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for dur <= 0 || time.Now().Before(end) {
				k := next.Add(1) - 1
				if limit > 0 && k >= limit {
					return
				}
				i := base + k
				t0 := time.Now()
				err := do(w, i, ops[i%int64(len(ops))])
				d := float64(time.Since(t0).Nanoseconds()) / 1e3
				if err != nil {
					fails[w]++
					d = failedLatencyUs
					logFailure(err)
				}
				idxs[w] = append(idxs[w], i)
				lats[w] = append(lats[w], d)
			}
		}(w)
	}
	wg.Wait()
	st := loopStats{elapsed: time.Since(start)}
	st.merge(idxs, lats, nil, fails)
	return st
}

// openLoop offers requests on a fixed schedule — request k is due at
// start + k/rate — for dur, whatever the completions do. workers callers
// take due requests in order, so at most workers requests are in flight;
// a request that cannot start on time waits, and its latency is timed
// from when it was due, so queueing behind a stall counts. A failed
// request counts as slower than any limit.
func openLoop(workers int, rate float64, dur time.Duration, ops []op, base int64, do doFunc) loopStats {
	var next atomic.Int64
	idxs := make([][]int64, workers)
	lats := make([][]float64, workers)
	lates := make([][]float64, workers)
	fails := make([]int64, workers)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				due := start.Add(time.Duration(float64(k) / rate * 1e9))
				if !due.Before(end) {
					return
				}
				if d := time.Until(due); d > 0 {
					preciseSleep(d)
				}
				sent := time.Now()
				i := base + k
				err := do(w, i, ops[i%int64(len(ops))])
				l := float64(time.Since(due).Nanoseconds()) / 1e3
				if err != nil {
					fails[w]++
					l = failedLatencyUs
					logFailure(err)
				}
				idxs[w] = append(idxs[w], i)
				lats[w] = append(lats[w], l)
				lates[w] = append(lates[w], float64(sent.Sub(due).Nanoseconds())/1e3)
			}
		}(w)
	}
	wg.Wait()
	st := loopStats{elapsed: time.Since(start)}
	st.merge(idxs, lats, lates, fails)
	return st
}

// preciseSleep blocks the calling thread in nanosleep. The runtime's own
// timers wake an idle process through epoll with millisecond granularity
// (about 1 ms late on a quiet 2-vCPU host), which would swamp the latency
// being measured; nanosleep wakes within tens of µs.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
