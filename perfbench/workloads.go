package main

import (
	"math"
	"strings"
)

// workload is one traffic mix and the system it runs against. The numbers
// are fixed here, once: a later change is judged on the same inputs.
type workload struct {
	name   string
	replay bool // runtime Cluster instead of the HTTP gateway chain

	// HTTP chain workloads.
	mix
	size         func(int) int // payload bytes of object id (fixed catalog)
	capacity     int64         // memory tier of each gateway, bytes
	shards       int           // engine shards per gateway
	spillMax     int64         // disk spill tier budget per gateway, bytes (0: no disk tier)
	segThreshold int64         // origin segments objects above this size
	segSize      int64         // Range segment size
	rate         float64       // open-loop offered rate, req/s
	warm         int           // warm-up requests during set-up

	// Property guards: a run that loses its defining property fails.
	minPastEdge  float64 // share of fetches served beyond the edge gateway
	minDiskShare float64 // share of fetches served from a disk tier
}

const (
	kib = 1 << 10
	mib = 1 << 20
	// chainLen is the number of gateways between client and origin.
	chainLen = 3
	// linkCost is each gateway's UpCost: the model cost of one link.
	linkCost = 0.1
)

func fixedSize(n int) func(int) int { return func(int) int { return n } }

// heavySize gives object id a size from a bounded Pareto law (α = 1.3 on
// [32 KiB, 4 MiB]) at a quantile fixed by the id, so every seed sees the
// same catalog and the seed varies only the request stream.
func heavySize(id int) int {
	const lo, hi, alpha = 32.0 * kib, 4.0 * mib, 1.3
	u := float64(splitmix64(uint64(id))>>11) / (1 << 53)
	return int(lo / math.Pow(1-u*(1-math.Pow(lo/hi, alpha)), 1/alpha))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var workloads = []*workload{
	{
		// Per-request overhead: net/http, headers and frames, the hop and
		// the node mutex on the hit path; no disk tier, no coherency.
		name: "edge-small", mix: mix{objects: 4000, theta: 0.8}, size: fixedSize(4 * kib),
		capacity: 2 * mib, shards: 8, rate: 1500, warm: 12000,
		minPastEdge: 0.25,
	},
	largeSpill,
	{
		// The edge-small chain with CAS-strict coherency and 5% writes:
		// writes cross the chain, invalidations piggyback downstream and
		// every read validates generation floors.
		name: "purge-mix", mix: mix{objects: 4000, theta: 0.8, writeShare: 0.05}, size: fixedSize(4 * kib),
		capacity: 2 * mib, shards: 8, rate: 2000, warm: 12000,
		minPastEdge: 0.25,
	},
	{
		// The engine-bound workload: the paper's trace on its 100-node
		// en-route topology, no network.
		name: "replay", replay: true,
	},
}

// largeSpill is the per-byte workload: relay copies, spill writes and disk
// reads, promotion and Range-segment reassembly. The hot set drifts
// through the catalog (one full cycle per 1200 requests, so every measured
// window sees the whole size mix), so objects fall out of memory, spill,
// and come back into demand while their bytes sit on disk.
//
// It is not in BENCHMARK.json: its defining property (a fifth of fetches
// from disk) makes a fifth of the fetches spill with an fsync under a
// gateway's mutex, and its latencies follow the shared disk's fsync times
// (ten-run spread 0.28 for p50 and 0.66 for p90). Run it by name for the
// store layer; every traced HTTP run times store.Tiered on its size mix.
var largeSpill = &workload{
	name: "large-spill", mix: mix{objects: 600, theta: 0.8, driftEvery: 20, driftStep: 10}, size: heavySize,
	capacity: 4 * mib, shards: 8, spillMax: 32 * mib,
	segThreshold: 512 * kib, segSize: 256 * kib, rate: 150, warm: 4000,
	minDiskShare: 0.20,
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
